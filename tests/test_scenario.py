"""Stochastic sensing layer and the run driver.

Statistical assertions use generous sigma bounds on fixed seeds, so they are
deterministic in practice while still catching wrong formulas.
"""
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallsim.fso import CaseOutcome
from fallsim.scenario import Scenario, ScenarioConfig, Simulation, run_simulation
from fallsim.world import ConfigurationError, SensorModel, WorldConfig


class ScriptedRng:
    """Feeds a preset sequence of uniform draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


class CountingRng:
    """Passes draws through from a real generator and counts them."""

    def __init__(self, rng):
        self._random = rng.random
        self.draws = 0

    def random(self):
        self.draws += 1
        return self._random()


SENSOR = SensorModel(p_false_negative=1 / 5, p_false_positive=1 / 500)

#: 24 houses and the hospital fill a 5x5 grid, and a convoy is free for every
#: alarm, so a resident is tossed again a few ticks after raising one.
QUICK_TURNAROUND = WorldConfig(
    half_width=2, half_height=2, n_elderly=24, n_professional=40, n_ambulances=40
)


PROBABILITIES = st.sampled_from([0.0, 1.0, 0.01, 0.3])


@st.composite
def small_worlds(draw):
    """Scenario configs on grids from 1x1 to 7x7 with every count in 0..5."""
    half_width = draw(st.integers(0, 3))
    half_height = draw(st.integers(0, 3))
    cells = (2 * half_width + 1) * (2 * half_height + 1)
    world = WorldConfig(
        half_width=half_width,
        half_height=half_height,
        n_elderly=draw(st.integers(0, min(5, cells - 1))),
        n_professional=draw(st.integers(0, 5)),
        n_ambulances=draw(st.integers(0, 5)),
    )
    return ScenarioConfig(
        scenario=draw(st.sampled_from(Scenario)),
        n_informal=draw(st.integers(0, 5)),
        ticks=draw(st.integers(1, 200)),
        p_fall=draw(PROBABILITIES),
        sensor=SensorModel(
            p_false_negative=draw(PROBABILITIES), p_false_positive=draw(PROBABILITIES)
        ),
        world=world,
        seed=draw(st.integers(0, 2**16)),
        dispatch_delay=draw(st.integers(0, 6)),
        count_return_travel=draw(st.booleans()),
    )


def small_config(scenario=Scenario.SINGLE_DETECTOR, **kw):
    defaults = dict(scenario=scenario, ticks=2_000, seed=1)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def sense_once(scenario, draws):
    """One ``sense_tick`` over a lone resident fed scripted draws.

    Returns the confusion cell the pass counted ("tp", "fn", "fp" or "tn")
    and the scripted generator, with whatever draws the pass left unused.
    """
    sim = Simulation(
        small_config(scenario, p_fall=0.5, sensor=SENSOR, world=WorldConfig(n_elderly=1))
    )
    sim.rng = ScriptedRng(draws)
    sim.sense_tick(0)
    counts = {cell: getattr(sim.counters, cell) for cell in ("tp", "fn", "fp", "tn")}
    assert sorted(counts.values()) == [0, 0, 0, 1]
    return max(counts, key=counts.get), sim.rng


class TestDetectorComposition:
    def test_single_detector_branches(self):
        s1 = Scenario.SINGLE_DETECTOR
        fall, no_fall, hit, miss = 0.0, 0.9, 0.9, 0.1
        assert sense_once(s1, [fall, hit])[0] == "tp"
        assert sense_once(s1, [fall, miss])[0] == "fn"
        assert sense_once(s1, [no_fall, 0.0001])[0] == "fp"
        assert sense_once(s1, [no_fall, 0.9])[0] == "tn"

    def test_dual_detector_miss_requires_both(self):
        s2 = Scenario.DUAL_DETECTOR
        fall = 0.0
        miss, hit = 0.1, 0.9
        assert sense_once(s2, [fall, miss, miss])[0] == "fn"
        for first, second in ((miss, hit), (hit, miss), (hit, hit)):
            assert sense_once(s2, [fall, first, second])[0] == "tp"

    def test_dual_detector_phantom_is_or(self):
        s2 = Scenario.DUAL_DETECTOR
        no_fall = 0.9
        quiet, fire = 0.9, 0.0001
        assert sense_once(s2, [no_fall, quiet, quiet])[0] == "tn"
        for first, second in ((fire, quiet), (quiet, fire), (fire, fire)):
            assert sense_once(s2, [no_fall, first, second])[0] == "fp"

    def test_dual_detector_draws_both_even_after_decision(self):
        # Both detector draws are consumed even when the first already
        # decided the outcome, keeping the stream layout fixed.
        _, rng = sense_once(Scenario.DUAL_DETECTOR, [0.0, 0.9, 0.1, 0.42])
        assert rng.random() == 0.42

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_each_tossed_resident_takes_one_draw_per_detector_and_one(self, scenario):
        # Whatever each toss decides, a tick with k of n residents pending
        # takes (n - k) * (1 + detectors) draws, so the stream layout does
        # not depend on outcomes.
        n = QUICK_TURNAROUND.n_elderly
        sim = Simulation(
            small_config(
                scenario,
                p_fall=0.5,
                sensor=SensorModel(p_false_negative=0.5, p_false_positive=0.5),
                world=QUICK_TURNAROUND,
                dispatch_delay=0,
            )
        )
        sim.rng = CountingRng(sim.rng)
        per_toss = 1 + scenario.detectors_per_elderly
        seen_pending = set()
        for tick in range(60):
            # Resolving arrivals takes no draws and makes residents tossable again.
            sim.engine.tick_protocols(tick)
            pending = sum(
                sim.world.agents[eid].pending_case is not None
                for eid in sim.world.elderly_ids
            )
            seen_pending.add(pending)
            before = sim.rng.draws
            sim.sense_tick(tick)
            assert sim.rng.draws - before == (n - pending) * per_toss
        # The rates make every branch likely; check that the run took them.
        assert any(0 < k < n for k in seen_pending)
        c = sim.counters
        assert min(c.tp, c.fp, c.fn, c.tn) > 0

    def test_monte_carlo_alarm_probability(self):
        """Per-fall alarm rate: 1 - pFN (single), 1 - pFN^2 (dual).

        With p_fall = 1 every toss is a fall, so TP + FN is the number of
        tosses the run made.
        """
        p_miss = SENSOR.p_false_negative
        for scenario, p_alarm in (
            (Scenario.SINGLE_DETECTOR, 1 - p_miss),
            (Scenario.DUAL_DETECTOR, 1 - p_miss**2),
        ):
            config = small_config(
                scenario, p_fall=1.0, sensor=SENSOR, world=QUICK_TURNAROUND,
                ticks=600, dispatch_delay=0, seed=7,
            )
            report = run_simulation(config).to_dict()
            n = report["tp"] + report["fn"]
            assert n > 5_000
            sigma = math.sqrt(n * p_alarm * (1 - p_alarm))
            assert abs(report["tp"] - n * p_alarm) < 4 * sigma


class TestScenarioConfig:
    def test_detector_counts(self):
        assert Scenario.SINGLE_DETECTOR.detectors_per_elderly == 1
        assert Scenario.DUAL_DETECTOR.detectors_per_elderly == 2

    @pytest.mark.parametrize(
        "kw",
        [
            {"ticks": 0},
            {"p_fall": 1.5},
            {"n_informal": -1},
            {"dispatch_delay": -2},
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            small_config(**kw)


class TestRunStatistics:
    def test_fall_count_matches_binomial_oracle(self):
        """Falls among *tossed* resident-ticks follow Binomial(N, p_fall).

        Residents with a pending alarm are not tossed, so the trial count is
        the confusion total, not ticks x residents.
        """
        report = run_simulation(small_config(ticks=6_000, seed=5)).to_dict()
        n_tossed = report["tp"] + report["fn"] + report["fp"] + report["tn"]
        assert n_tossed < 6_000 * 30  # suppression really removed some tosses
        falls = report["tp"] + report["fn"]
        p = 1 / 600
        sigma = math.sqrt(n_tossed * p * (1 - p))
        assert abs(falls - n_tossed * p) < 4 * sigma

    def test_single_detector_conditional_rates(self):
        report = run_simulation(small_config(ticks=6_000, seed=2)).to_dict()
        falls = report["tp"] + report["fn"]
        sigma_hit = math.sqrt(falls * 0.8 * 0.2)
        assert abs(report["tp"] - 0.8 * falls) < 4 * sigma_hit
        quiet = report["fp"] + report["tn"]
        sigma_fp = math.sqrt(quiet * (1 / 500) * (499 / 500))
        assert abs(report["fp"] - quiet / 500) < 4 * sigma_fp

    def test_dual_detector_conditional_rates(self):
        config = small_config(scenario=Scenario.DUAL_DETECTOR, ticks=6_000, seed=3)
        report = run_simulation(config).to_dict()
        falls = report["tp"] + report["fn"]
        p_hit = 1 - (1 / 5) ** 2
        assert abs(report["tp"] - p_hit * falls) < 4 * math.sqrt(falls * p_hit * (1 - p_hit))
        quiet = report["fp"] + report["tn"]
        p_fp = 1 - (499 / 500) ** 2
        assert abs(report["fp"] - p_fp * quiet) < 4 * math.sqrt(quiet * p_fp * (1 - p_fp))

    def test_case_count_is_fp_plus_tp(self):
        for scenario in Scenario:
            report = run_simulation(small_config(scenario=scenario, seed=4)).to_dict()
            assert report["treated_cases"] == report["fp"] + report["tp"]

    def test_every_case_reaches_one_terminal_state(self):
        sim = Simulation(small_config(n_informal=8, seed=6))
        sim.run(audit_every=200)
        assert len(sim.cases) == sim.ledger.treated_cases
        for case in sim.cases:
            assert case.outcome is not None
            assert case.terminal_tick is not None
            assert case.raised_tick <= case.terminal_tick
            assert case.waiting_time is not None
            assert 0 <= case.waiting_time <= case.terminal_tick - case.raised_tick

    def test_waiting_totals_match_case_records(self):
        sim = Simulation(small_config(n_informal=5, seed=8))
        report = sim.run()
        assert report.ledger.sum_wt == sum(c.waiting_time for c in sim.cases)


class TestDeterminism:
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_identical_seeds_identical_reports(self, scenario):
        config = small_config(scenario=scenario, n_informal=6, seed=11)
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.to_dict() == second.to_dict()
        assert first.csv_row() == second.csv_row()

    def test_different_seeds_differ(self):
        a = run_simulation(small_config(seed=1)).to_dict()
        b = run_simulation(small_config(seed=2)).to_dict()
        assert a != b

    def test_placement_seed_pins_geometry_only(self):
        base = small_config(
            seed=1, world=WorldConfig(placement_seed=99), n_informal=3
        )
        other_draws = replace(base, seed=2)
        sim_a, sim_b = Simulation(base), Simulation(other_draws)
        houses_a = [sim_a.world.agents[e].position for e in sim_a.world.elderly_ids]
        houses_b = [sim_b.world.agents[e].position for e in sim_b.world.elderly_ids]
        assert houses_a == houses_b

    def test_trace_sink_receives_events(self):
        records = []
        run_simulation(small_config(seed=1), trace_sink=records.append)
        assert records
        assert {"tick", "case", "event"} <= set(records[0])

    @given(config=small_worlds())
    @settings(max_examples=300, deadline=None)
    def test_runs_never_crash_and_audit_clean(self, config):
        sim = Simulation(config)
        report = sim.run(audit_every=1)
        c, led = sim.counters, sim.ledger
        assert all(
            case.terminal_tick is not None and case.outcome is not None
            for case in sim.cases
        )
        # Each resident-tick is either tossed or spent waiting on an open case.
        waited = sum(case.terminal_tick - case.raised_tick - 1 for case in sim.cases)
        closed_at_end = sum(
            case.outcome is CaseOutcome.CLOSED_AT_RUN_END for case in sim.cases
        )
        assert c.tp + c.fp + c.fn + c.tn + waited + closed_at_end == (
            config.world.n_elderly * config.ticks
        )
        assert led.treated_cases == c.tp + c.fp == len(sim.cases)
        # A true fall a carer verified is also served by the convoy, so
        # interventions are not bounded together with verifications.
        assert led.v_informal + led.v_ambulance <= led.treated_cases
        assert led.interventions <= c.tp
        assert led.v_ambulance <= c.fp
        assert run_simulation(config).to_dict() == report.to_dict()
