"""Grid geometry, placement, and movement kinematics."""
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallsim.world import (
    AgentKind,
    AgentState,
    AgentStatus,
    ConfigurationError,
    Position,
    SensorModel,
    World,
    WorldConfig,
    chebyshev,
    step_toward,
    walk_carers,
)

positions = st.builds(
    Position, st.integers(min_value=-16, max_value=16), st.integers(min_value=-16, max_value=16)
)


def _carer(position: Position) -> AgentState:
    return AgentState(
        id=0,
        kind=AgentKind.INFORMAL_CARER,
        position=position,
        base=None,
        status=AgentStatus.RANDOM_WALKING,
    )


class TestDistance:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (Position(0, 0), Position(0, 0), 0),
            (Position(0, 0), Position(3, 1), 3),
            (Position(0, 0), Position(1, 3), 3),
            (Position(-2, 5), Position(4, 5), 6),
            # Opposite corners of the default grid.
            (Position(-16, -16), Position(16, 16), 32),
        ],
    )
    def test_chebyshev_goldens(self, a, b, expected):
        assert chebyshev(a, b) == expected

    @given(a=positions, b=positions)
    def test_chebyshev_is_a_metric(self, a, b):
        d = chebyshev(a, b)
        assert d >= 0
        assert d == chebyshev(b, a)
        assert (d == 0) == (a == b)

    @given(a=positions, b=positions, c=positions)
    def test_triangle_inequality(self, a, b, c):
        assert chebyshev(a, c) <= chebyshev(a, b) + chebyshev(b, c)


class TestPlacement:
    def test_deterministic_in_seed(self):
        config = WorldConfig()
        first = World.create(config, Random(7), n_informal=12)
        second = World.create(config, Random(7), n_informal=12)
        assert first.hospital == second.hospital
        assert [(a.kind, a.position) for a in first.agents.values()] == [
            (a.kind, a.position) for a in second.agents.values()
        ]

    def test_houses_and_hospital_distinct(self):
        world = World.create(WorldConfig(), Random(3), n_informal=5)
        houses = [world.agents[e].position for e in world.elderly_ids]
        assert len(set(houses)) == len(houses)
        assert world.hospital not in houses

    def test_roster_counts_and_bases(self):
        config = WorldConfig(n_elderly=30, n_professional=6, n_ambulances=5)
        world = World.create(config, Random(0), n_informal=7, detectors_per_elderly=2)
        assert len(world.elderly_ids) == 30
        assert len(world.device_ids) == 60
        assert len(world.professional_ids) == 6
        assert len(world.ambulance_ids) == 5
        assert len(world.informal_ids) == 7
        for pid in world.professional_ids + world.ambulance_ids:
            assert world.agents[pid].position == world.hospital
        for did in world.device_ids:
            device = world.agents[did]
            assert device.position == world.agents[device.watches].position

    def test_devices_point_at_their_resident(self):
        world = World.create(WorldConfig(n_elderly=4), Random(1), detectors_per_elderly=2)
        watched = [world.agents[d].watches for d in world.device_ids]
        # Two devices per resident, every resident watched.
        assert sorted(set(watched)) == sorted(world.elderly_ids)
        assert all(watched.count(e) == 2 for e in world.elderly_ids)

    def test_informal_carers_start_walking_without_base(self):
        world = World.create(WorldConfig(), Random(5), n_informal=9)
        for cid in world.informal_ids:
            carer = world.agents[cid]
            assert carer.status is AgentStatus.RANDOM_WALKING
            assert carer.base is None
            assert world.in_bounds(carer.position)

    def test_everything_in_bounds(self):
        world = World.create(WorldConfig(half_width=4, half_height=4, n_elderly=10), Random(2), n_informal=20)
        for agent in world.agents.values():
            assert world.in_bounds(agent.position)

    def test_overfull_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            World.create(WorldConfig(half_width=1, half_height=1, n_elderly=9), Random(0))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_placement_bounds_property(self, seed):
        config = WorldConfig(half_width=5, half_height=3, n_elderly=8)
        world = World.create(config, Random(seed), n_informal=6)
        for agent in world.agents.values():
            assert -5 <= agent.position.x <= 5
            assert -3 <= agent.position.y <= 3


class TestStepToward:
    def test_reaches_target_in_exactly_travel_time_ticks(self):
        for start, goal in [
            (Position(-16, -16), Position(16, 16)),
            (Position(0, 0), Position(-5, 9)),
        ]:
            agent = _carer(start)
            steps = 0
            while agent.position != goal:
                before = chebyshev(agent.position, goal)
                step_toward(agent, goal)
                assert chebyshev(agent.position, goal) == before - 1
                steps += 1
            assert steps == chebyshev(start, goal)

    def test_immobile_kinds_refuse_to_move(self):
        resident = AgentState(
            id=0, kind=AgentKind.ELDERLY, position=Position(0, 0), base=Position(0, 0)
        )
        with pytest.raises(ValueError):
            step_toward(resident, Position(1, 1))

    @given(a=positions, b=positions)
    @settings(max_examples=50)
    def test_single_step_is_a_king_move(self, a, b):
        agent = _carer(a)
        step_toward(agent, b)
        assert chebyshev(agent.position, a) <= 1
        assert chebyshev(agent.position, b) == max(chebyshev(a, b) - 1, 0)

    @given(a=positions, b=positions, k=st.integers(min_value=0, max_value=40))
    @settings(max_examples=100)
    def test_k_steps_at_once_equal_k_single_steps(self, a, b, k):
        at_once, one_by_one = _carer(a), _carer(a)
        step_toward(at_once, b, k)
        for _ in range(k):
            step_toward(one_by_one, b)
        assert at_once.position == one_by_one.position

    def test_negative_steps_are_refused(self):
        with pytest.raises(ValueError):
            step_toward(_carer(Position(0, 0)), Position(3, 3), -1)


class TestRandomWalk:
    def test_stays_in_bounds_from_corner(self):
        rng = Random(11)
        agent = _carer(Position(16, 16))
        seen = set()
        for _ in range(200):
            agent.position = Position(16, 16)
            walk_carers((agent,), rng, 16, 16)
            assert -16 <= agent.position.x <= 16
            assert -16 <= agent.position.y <= 16
            seen.add(agent.position)
        # A corner has exactly three legal neighbors.
        assert seen == {Position(15, 15), Position(15, 16), Position(16, 15)}

    def test_interior_moves_are_uniform(self):
        """Chi-square uniformity over the 8 neighbors of an interior cell."""
        from scipy.stats import chisquare

        rng = Random(42)
        agent = _carer(Position(0, 0))
        counts: dict[Position, int] = {}
        n = 16_000
        for _ in range(n):
            agent.position = Position(0, 0)
            walk_carers((agent,), rng, 16, 16)
            counts[agent.position] = counts.get(agent.position, 0) + 1
        assert len(counts) == 8
        _, p_value = chisquare(list(counts.values()))
        assert p_value > 1e-4

    def test_degenerate_single_cell_grid(self):
        agent = _carer(Position(0, 0))
        rng = Random(0)
        walk_carers((agent,), rng, 0, 0)
        assert agent.position == Position(0, 0)
        # No draw is taken.
        assert rng.random() == Random(0).random()

    @given(
        extents=st.tuples(
            st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
        ).filter(lambda e: e != (0, 0)),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=100)
    def test_walk_is_one_king_move_in_bounds(self, extents, data, seed):
        """Thin 1xN and Nx1 grids leave only 2-3 legal neighbours per cell."""
        hw, hh = extents
        x = data.draw(st.integers(min_value=-hw, max_value=hw))
        y = data.draw(st.integers(min_value=-hh, max_value=hh))
        agent = _carer(Position(x, y))
        walk_carers((agent,), Random(seed), hw, hh)
        assert chebyshev(agent.position, Position(x, y)) == 1
        assert -hw <= agent.position.x <= hw
        assert -hh <= agent.position.y <= hh


class TestConfigValidation:
    def test_sensor_probabilities_validated(self):
        with pytest.raises(ConfigurationError):
            SensorModel(p_false_negative=1.2, p_false_positive=0.0)
        with pytest.raises(ConfigurationError):
            SensorModel(p_false_negative=0.2, p_false_positive=-0.1)

    def test_world_config_validated(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(half_width=-1)
        with pytest.raises(ConfigurationError):
            WorldConfig(n_elderly=-3)
        with pytest.raises(ConfigurationError):
            WorldConfig(speed=0)

    def test_grid_extent_properties(self):
        config = WorldConfig(half_width=16, half_height=16)
        assert config.width == 33
        assert config.height == 33
