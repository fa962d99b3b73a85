"""Escalation ladders, enrollment, cancellation, and cost accrual.

These tests pin the protocol engine to hand-traced miniature worlds: one or
two houses on a small grid with the hospital a known distance away, so every
arrival tick and accrued cost can be computed by hand. Events are read from
the engine's trace records, its only event output.
"""
import gc
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallsim.fso import (
    EventKind,
    FsoEngine,
    InstanceState,
    ProtocolInstance,
    ProtocolKind,
    REQUIRED_ROLES,
    Role,
)
from fallsim.metrics import CostLedger
from fallsim.scenario import CaseRecord, Scenario, ScenarioConfig, Simulation
from fallsim.world import (
    AgentKind,
    AgentStatus,
    Position,
    World,
    WorldConfig,
    chebyshev,
)

HOSPITAL = Position(8, 0)


def build(
    n_elderly=1,
    n_pc=1,
    n_ma=1,
    ic_positions=(),
    dispatch_delay=0,
    count_return_travel=True,
    speed=1,
):
    """A pinned layout: houses at (0,0), (0,4), ...; hospital at (8,0).

    Returns the world, the ledger, the engine and the list its trace
    records are appended to.
    """
    config = WorldConfig(
        half_width=8, half_height=8, n_elderly=n_elderly,
        n_professional=n_pc, n_ambulances=n_ma, speed=speed,
    )
    world = World.create(config, Random(0), n_informal=len(ic_positions))
    for i, eid in enumerate(world.elderly_ids):
        house = Position(0, 4 * i)
        for aid in (eid, *[d for d in world.device_ids if world.agents[d].watches == eid]):
            world.agents[aid].position = house
            world.agents[aid].base = house
    world.hospital = HOSPITAL
    for aid in world.professional_ids + world.ambulance_ids:
        world.agents[aid].position = HOSPITAL
        world.agents[aid].base = HOSPITAL
    for cid, pos in zip(world.informal_ids, ic_positions):
        world.agents[cid].position = pos
    ledger = CostLedger()
    records = []
    engine = FsoEngine(
        world,
        ledger,
        dispatch_delay=dispatch_delay,
        count_return_travel=count_return_travel,
        trace=records.append,
    )
    return world, ledger, engine, records


def escalation(records):
    """Every record but the fall detections, as (event, agent, instance, missing)."""
    return [
        (r["event"], r["agent"], r["instance"], r["missing"])
        for r in records
        if r["event"] != EventKind.FALL_DETECTED.value
    ]


PROFESSIONAL_AND_AMBULANCE = [Role.NEED_PROFESSIONAL.value, Role.NEED_AMBULANCE.value]


def raise_case(engine, world, case_id, elderly_index=0, true_fall=True, tick=0):
    eid = world.elderly_ids[elderly_index]
    device = next(d for d in world.device_ids if world.agents[d].watches == eid)
    case = CaseRecord(case_id=case_id, ea_id=eid, true_fall=true_fall, raised_tick=tick)
    engine.raise_alarm(case, device, tick)
    return case


def live(engine, case, kind):
    """The live instance of this kind serving this case, running or parked."""
    return next(
        instance
        for instance in (*engine.active, *engine.retry_queue)
        if instance.case is case and instance.kind is kind
    )


def run_until(engine, records, predicate, start=1, limit=200):
    """Tick until predicate() holds; return that tick and the records it emitted."""
    for tick in range(start, limit):
        seen = len(records)
        engine.tick_protocols(tick)
        engine.audit()
        if predicate():
            return tick, records[seen:]
    raise AssertionError("condition not reached within tick limit")


class TestReadyingAndEscalation:
    def test_alarm_without_carers_readies_only_dispatch(self):
        world, _, engine, _ = build()
        case = raise_case(engine, world, 0)
        assert not engine.retry_queue
        (dispatch,) = engine.active
        assert dispatch.kind is ProtocolKind.CARE_DISPATCH
        assert dispatch.case is case
        assert dispatch.partner is None
        assert dispatch.state is InstanceState.RUNNING

    def test_alarm_with_carers_readies_dispatch_and_verify(self):
        world, _, engine, _ = build(ic_positions=(Position(0, 3),))
        case = raise_case(engine, world, 0)
        verify = live(engine, case, ProtocolKind.VERIFY_VISIT)
        assert verify.state is InstanceState.RUNNING
        dispatch = live(engine, case, ProtocolKind.CARE_DISPATCH)
        assert verify.partner is dispatch and dispatch.partner is verify

    # Coordinator ids follow the roster. With one resident, one professional,
    # one ambulance and one carer the agents are 0-4, so the hospital
    # coordinator is 5, the neighbourhood's 6 and the house's 7; without the
    # carer they are 4 and (house) 5.

    def test_escalation_emits_role_exceptions_within_one_tick(self):
        # Dispatch: house, then neighbourhood; the hospital enrolls it.
        # Visit: house; the neighbourhood enrolls it.
        world, _, engine, records = build(ic_positions=(Position(2, 2),))
        raise_case(engine, world, 0, tick=3)
        assert escalation(records) == [
            ("role_exception", 7, 0, PROFESSIONAL_AND_AMBULANCE),
            ("role_exception", 6, 0, PROFESSIONAL_AND_AMBULANCE),
            ("role_exception", 7, 1, [Role.NEED_INFORMAL.value]),
        ]
        assert {r["tick"] for r in records} == {3}

    def test_alarm_without_carers_escalates_from_house_only(self):
        world, _, engine, records = build()
        raise_case(engine, world, 0)
        assert escalation(records) == [
            ("role_exception", 5, 0, PROFESSIONAL_AND_AMBULANCE),
        ]

    def test_parked_instances_report_the_missing_subset_at_the_top(self):
        # Agents 0-3 are two residents and their devices, then professional
        # 4, ambulances 5 and 6 and carer 7; coordinators are 8 (hospital),
        # 9 (neighbourhood), 10 and 11 (houses). Case 0 holds the professional
        # and the carer, so case 1 parks its dispatch missing only the
        # professional and its visit missing the carer.
        world, _, engine, records = build(n_elderly=2, n_ma=2, ic_positions=(Position(2, 2),))
        raise_case(engine, world, 0, elderly_index=0)
        seen = len(records)
        raise_case(engine, world, 1, elderly_index=1)
        assert escalation(records[seen:]) == [
            ("role_exception", 11, 2, PROFESSIONAL_AND_AMBULANCE),
            ("role_exception", 9, 2, PROFESSIONAL_AND_AMBULANCE),
            ("role_exception", 8, 2, [Role.NEED_PROFESSIONAL.value]),
            ("role_exception", 11, 3, [Role.NEED_INFORMAL.value]),
            ("role_exception", 9, 3, [Role.NEED_INFORMAL.value]),
        ]
        assert [i.instance_id for i in engine.retry_queue] == [2, 3]

    def test_false_alarm_relays_from_neighbourhood_to_hospital(self):
        world, _, engine, records = build(ic_positions=(Position(2, 0),), dispatch_delay=50)
        case = raise_case(engine, world, 0, true_fall=False)
        tick, emitted = run_until(engine, records, lambda: case.terminal_tick is not None)
        # The relay takes id 2 and the cancel id 3; neither is kept.
        assert escalation(emitted) == [
            ("false_positive_confirmed", 4, None, []),
            ("role_exception", 6, 2, [Role.NEED_TOP_COORDINATOR.value]),
            ("dispatch_canceled", 5, 0, []),
        ]
        assert not engine.active and not engine.retry_queue
        next_case = raise_case(engine, world, 1, tick=tick + 1)
        assert live(engine, next_case, ProtocolKind.CARE_DISPATCH).instance_id == 4
        assert live(engine, next_case, ProtocolKind.VERIFY_VISIT).instance_id == 5

    def test_protocol_role_tables(self):
        assert REQUIRED_ROLES[ProtocolKind.CARE_DISPATCH] == (
            Role.NEED_PROFESSIONAL,
            Role.NEED_AMBULANCE,
        )


class TestEnrollment:
    def test_nearest_carer_wins_then_lowest_id(self):
        # Travel times to the house at (0,0): 5, 3, 3 — the tie at 3 goes to
        # the lower agent id.
        world, _, engine, _ = build(
            ic_positions=(Position(5, 0), Position(3, 0), Position(0, 3))
        )
        ids = world.informal_ids
        case = raise_case(engine, world, 0)
        verify = live(engine, case, ProtocolKind.VERIFY_VISIT)
        assert verify.enrolled == [ids[1]]

    def test_fast_carers_rank_by_whole_ticks_then_lowest_id(self):
        # At speed 2 the carers 4 and 3 cells away both need 2 ticks, so the
        # lower id wins although the other is nearer.
        world, _, engine, _ = build(
            ic_positions=(Position(4, 0), Position(3, 0)), speed=2
        )
        ids = world.informal_ids
        case = raise_case(engine, world, 0)
        verify = live(engine, case, ProtocolKind.VERIFY_VISIT)
        assert verify.enrolled == [ids[0]]

    @given(
        carers=st.lists(
            st.tuples(
                st.integers(min_value=-8, max_value=8),
                st.integers(min_value=-8, max_value=8),
                st.sampled_from(list(AgentStatus)),
            ),
            max_size=12,
        ),
        target=st.tuples(
            st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8)
        ),
        speed=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_scan_ranks_walking_carers_by_whole_ticks_then_id(self, carers, target, speed):
        world, _, engine, _ = build(
            ic_positions=[Position(x, y) for x, y, _ in carers], speed=speed
        )
        for cid, (_, _, status) in zip(world.informal_ids, carers):
            world.agents[cid].status = status
        target = Position(*target)
        walking = [
            world.agents[cid]
            for cid in world.informal_ids
            if world.agents[cid].status is AgentStatus.RANDOM_WALKING
        ]
        expected = min(
            walking,
            key=lambda c: (math.ceil(chebyshev(c.position, target) / speed), c.id),
            default=None,
        )
        assert engine._nearest_walking_carer(target) is expected

    def test_enrollment_is_all_or_nothing(self):
        world, _, engine, _ = build(n_pc=1, n_ma=0)
        case = raise_case(engine, world, 0)
        dispatch = live(engine, case, ProtocolKind.CARE_DISPATCH)
        assert dispatch.state is InstanceState.READIED
        assert dispatch.enrolled == []
        # The available professional was not grabbed speculatively.
        pc = world.agents[world.professional_ids[0]]
        assert pc.status is AgentStatus.IDLE

    def test_dispatch_binds_the_lowest_idle_ids(self):
        world, _, engine, _ = build(n_elderly=3, n_pc=2, n_ma=2, dispatch_delay=50)
        cases = [raise_case(engine, world, i, elderly_index=i) for i in range(3)]
        dispatches = [live(engine, case, ProtocolKind.CARE_DISPATCH) for case in cases]
        pcs, mas = world.professional_ids, world.ambulance_ids
        assert [d.enrolled for d in dispatches[:2]] == [[p, m] for p, m in zip(pcs, mas)]
        assert dispatches[2].state is InstanceState.READIED
        # Still mobilizing, so both crews are at base and idle at once; the
        # higher ids are freed first.
        engine.cancel_protocol(dispatches[1])
        engine.cancel_protocol(dispatches[0])
        engine.audit()
        engine.tick_protocols(1)
        engine.audit()
        assert dispatches[2].enrolled == [pcs[0], mas[0]]
        assert world.agents[pcs[1]].status is AgentStatus.IDLE
        assert world.agents[mas[1]].status is AgentStatus.IDLE

    def test_empty_pool_is_reported_and_the_other_is_untouched(self):
        world, _, engine, records = build(n_elderly=2, n_pc=2, n_ma=1)
        raise_case(engine, world, 0, elderly_index=0)
        case = raise_case(engine, world, 1, elderly_index=1)
        parked = live(engine, case, ProtocolKind.CARE_DISPATCH)
        assert records[-1]["missing"] == [Role.NEED_AMBULANCE.value]
        assert engine.try_enroll(parked, 1) == [Role.NEED_AMBULANCE]
        spare = world.agents[world.professional_ids[1]]
        assert spare.status is AgentStatus.IDLE
        engine.audit()

    def test_audit_checks_the_idle_pools(self):
        world, _, engine, _ = build(n_pc=2)
        engine._professionals.append(world.professional_ids[0])
        with pytest.raises(AssertionError, match="pool"):
            engine.audit()

    def test_terminal_instance_cannot_reenroll(self):
        world, _, engine, _ = build()
        case = raise_case(engine, world, 0)
        dispatch = live(engine, case, ProtocolKind.CARE_DISPATCH)
        engine.cancel_protocol(dispatch)
        with pytest.raises(ValueError):
            engine.try_enroll(dispatch, 2)

    def test_exhausted_resources_park_in_retry_queue(self):
        world, _, engine, _ = build(n_elderly=2, n_pc=1, n_ma=1)
        case_a = raise_case(engine, world, 0, elderly_index=0)
        case_b = raise_case(engine, world, 1, elderly_index=1)
        first = live(engine, case_a, ProtocolKind.CARE_DISPATCH)
        second = live(engine, case_b, ProtocolKind.CARE_DISPATCH)
        assert first.state is InstanceState.RUNNING
        assert second.state is InstanceState.READIED
        assert list(engine.retry_queue) == [second]

    def test_parked_dispatch_runs_after_convoy_returns(self):
        world, ledger, engine, records = build(n_elderly=2, n_pc=1, n_ma=1)
        case_a = raise_case(engine, world, 0, elderly_index=0, true_fall=True)
        case_b = raise_case(engine, world, 1, elderly_index=1, true_fall=True)
        run_until(engine, records, lambda: case_a.terminal_tick is not None)
        second = live(engine, case_b, ProtocolKind.CARE_DISPATCH)
        assert second.state is InstanceState.READIED  # crew still returning
        run_until(
            engine,
            records,
            lambda: second.state is InstanceState.RUNNING,
            start=case_a.terminal_tick + 1,
        )
        run_until(engine, records, lambda: case_b.terminal_tick is not None,
                  start=second.enroll_tick + 1)
        assert ledger.interventions == 2


class TestRetryAfterFree:
    """A parked instance enrolls on the tick an agent is freed, at each free point."""

    def test_carer_freed_by_cancel_enrolls_parked_verify(self):
        # The convoy reaches house 1 at tick 8, before the far carer, and
        # cancels its visit; case B's parked visit takes the carer that tick.
        world, _, engine, records = build(
            n_elderly=2, ic_positions=(Position(-8, -8),), dispatch_delay=0
        )
        case_a = raise_case(engine, world, 0, elderly_index=1)
        case_b = raise_case(engine, world, 1, elderly_index=0)
        verify_b = live(engine, case_b, ProtocolKind.VERIFY_VISIT)
        assert verify_b.state is InstanceState.READIED
        tick, _ = run_until(engine, records, lambda: verify_b.state is InstanceState.RUNNING)
        assert tick == case_a.terminal_tick == 8
        assert verify_b.enroll_tick == tick
        assert verify_b.enrolled == world.informal_ids

    def test_crew_cancelled_at_base_enrolls_parked_dispatch(self):
        world, _, engine, _ = build(n_elderly=2, dispatch_delay=50)
        case_a = raise_case(engine, world, 0, elderly_index=0)
        case_b = raise_case(engine, world, 1, elderly_index=1)
        first = live(engine, case_a, ProtocolKind.CARE_DISPATCH)
        second = live(engine, case_b, ProtocolKind.CARE_DISPATCH)
        for tick in range(1, 5):
            engine.tick_protocols(tick)
        assert second.state is InstanceState.READIED
        # Still mobilizing, so the crew is at base and idle at once.
        engine.cancel_protocol(first)
        for aid in world.professional_ids + world.ambulance_ids:
            assert world.agents[aid].status is AgentStatus.IDLE
        engine.tick_protocols(5)
        assert second.state is InstanceState.RUNNING
        assert second.enroll_tick == 5
        engine.audit()

    def test_crew_back_at_base_enrolls_parked_dispatch(self):
        world, _, engine, records = build(n_elderly=2, dispatch_delay=0)
        raise_case(engine, world, 0, elderly_index=0)
        case_b = raise_case(engine, world, 1, elderly_index=1)
        second = live(engine, case_b, ProtocolKind.CARE_DISPATCH)
        tick, _ = run_until(engine, records, lambda: second.state is InstanceState.RUNNING)
        # Eight ticks out to house 0 and eight back to the hospital.
        assert tick == second.enroll_tick == 16
        assert second.enrolled == world.professional_ids + world.ambulance_ids


class TestFalseAlarmChain:
    def test_carer_confirmation_cancels_dispatch_same_tick(self):
        # Carer 2 cells out; convoy held by a long mobilization delay.
        world, ledger, engine, records = build(
            ic_positions=(Position(2, 0),), dispatch_delay=50
        )
        case = raise_case(engine, world, 0, true_fall=False, tick=0)
        dispatch = live(engine, case, ProtocolKind.CARE_DISPATCH)
        tick, emitted = run_until(engine, records, lambda: case.terminal_tick is not None)
        assert tick == 2  # enroll at 0, move at 1 and 2
        kinds = [r["event"] for r in emitted]
        assert EventKind.FALSE_POSITIVE_CONFIRMED.value in kinds
        assert EventKind.DISPATCH_CANCELED.value in kinds
        assert case.outcome.value == "canceled"
        assert case.waiting_time == 2
        assert ledger.v_informal == 1
        assert ledger.v_ambulance == 0
        assert dispatch.state is InstanceState.CANCELED
        assert not engine.active and not engine.retry_queue
        # The convoy never left its base, so it is idle again at once.
        for aid in world.professional_ids + world.ambulance_ids:
            assert world.agents[aid].status is AgentStatus.IDLE
        assert world.agents[case.ea_id].pending_case is None

    def test_true_fall_confirmation_keeps_dispatch_running(self):
        world, ledger, engine, records = build(ic_positions=(Position(2, 0),), dispatch_delay=0)
        case = raise_case(engine, world, 0, true_fall=True, tick=0)
        tick, _ = run_until(
            engine,
            records,
            lambda: any(r["event"] == EventKind.FALL_CONFIRMED.value for r in records),
        )
        assert tick == 2
        assert case.waiting_time == 2  # frozen at verification
        assert case.terminal_tick is None
        dispatch = live(engine, case, ProtocolKind.CARE_DISPATCH)
        assert dispatch.state is InstanceState.RUNNING
        run_until(engine, records, lambda: case.terminal_tick is not None, start=tick + 1)
        assert case.outcome.value == "served"
        assert case.waiting_time == 2  # unchanged by the later arrival
        assert ledger.interventions == 1
        assert ledger.sum_wt == 2

    def test_convoy_verifies_phantom_when_no_carers_exist(self):
        world, ledger, engine, records = build(dispatch_delay=0)
        case = raise_case(engine, world, 0, true_fall=False, tick=0)
        tick, _ = run_until(engine, records, lambda: case.terminal_tick is not None)
        assert tick == 8  # Chebyshev distance hospital -> house
        assert case.outcome.value == "served"
        assert ledger.v_ambulance == 1
        assert ledger.v_informal == 0


class TestCancellation:
    def test_cancel_is_idempotent_and_frees_agents(self):
        world, _, engine, _ = build(dispatch_delay=0)
        case = raise_case(engine, world, 0)
        dispatch = live(engine, case, ProtocolKind.CARE_DISPATCH)
        engine.tick_protocols(1)  # convoy takes one step
        engine.cancel_protocol(dispatch)
        assert dispatch.state is InstanceState.CANCELED
        assert dispatch.enrolled == []
        for aid in world.professional_ids + world.ambulance_ids:
            assert world.agents[aid].status is AgentStatus.RETURNING_TO_BASE
        # A second cancellation must not disturb the terminal state.
        engine.cancel_protocol(dispatch)
        assert dispatch.state is InstanceState.CANCELED
        engine.audit()

    def test_canceled_carer_resumes_walking_immediately(self):
        world, _, engine, _ = build(ic_positions=(Position(6, 6),), dispatch_delay=0)
        case = raise_case(engine, world, 0)
        verify = live(engine, case, ProtocolKind.VERIFY_VISIT)
        engine.tick_protocols(1)
        engine.cancel_protocol(verify)
        carer = world.agents[world.informal_ids[0]]
        assert carer.status is AgentStatus.RANDOM_WALKING

    def test_finalize_closes_everything(self):
        world, _, engine, _ = build(n_elderly=2, n_pc=1, n_ma=1, dispatch_delay=50)
        case_a = raise_case(engine, world, 0, elderly_index=0)
        case_b = raise_case(engine, world, 1, elderly_index=1)
        running = live(engine, case_a, ProtocolKind.CARE_DISPATCH)
        parked = live(engine, case_b, ProtocolKind.CARE_DISPATCH)
        engine.tick_protocols(1)
        engine.finalize(final_tick=1)
        for case in (case_a, case_b):
            assert case.terminal_tick == 1
            assert case.outcome.value == "closed_at_run_end"
        assert running.state is parked.state is InstanceState.CANCELED
        assert not engine.active
        assert not engine.retry_queue
        engine.audit()

    def test_engine_keeps_only_live_instances(self):
        sim = Simulation(ScenarioConfig(scenario=Scenario.DUAL_DETECTOR, n_informal=10))
        for tick in range(2000):
            sim.step(tick)
        gc.collect()
        engine = sim.engine
        live = {*engine.active, *engine.retry_queue}
        kept = live | {instance.partner for instance in live}
        run_cases = {id(case) for case in sim.cases}
        held = [
            obj
            for obj in gc.get_objects()
            if isinstance(obj, ProtocolInstance) and id(obj.case) in run_cases
        ]
        assert len(sim.cases) > 100
        assert live
        assert all(instance in kept for instance in held)


class TestCostAccrual:
    def test_convoy_cost_mobilization_travel_and_return(self):
        # delay 3, distance 8: each crew member accrues 3 + 8 + 8 = 19.
        world, ledger, engine, records = build(dispatch_delay=3, count_return_travel=True)
        case = raise_case(engine, world, 0, true_fall=True, tick=0)
        arrival, _ = run_until(engine, records, lambda: case.terminal_tick is not None)
        assert arrival == 3 + 8  # first move at tick 4, arrive at tick 11
        assert case.waiting_time == 11
        run_until(
            engine,
            records,
            lambda: world.agents[world.ambulance_ids[0]].status is AgentStatus.IDLE,
            start=arrival + 1,
        )
        assert ledger.sc(AgentKind.AMBULANCE) == 19
        assert ledger.sc(AgentKind.PROFESSIONAL_CARER) == 19

    def test_return_leg_can_be_excluded(self):
        world, ledger, engine, records = build(dispatch_delay=3, count_return_travel=False)
        case = raise_case(engine, world, 0, true_fall=True, tick=0)
        run_until(
            engine,
            records,
            lambda: world.agents[world.ambulance_ids[0]].status is AgentStatus.IDLE,
        )
        assert ledger.sc(AgentKind.AMBULANCE) == 11

    def test_carer_at_the_house_arrives_next_tick_at_no_cost(self):
        # Distance 0: the visit enrolled at tick 0 arrives at tick 1 without
        # a charged tick, and only then confirms the phantom.
        world, ledger, engine, records = build(ic_positions=(Position(0, 0),), dispatch_delay=50)
        case = raise_case(engine, world, 0, true_fall=False, tick=0)
        verify = live(engine, case, ProtocolKind.VERIFY_VISIT)
        assert verify.enroll_tick == 0
        assert case.terminal_tick is None
        tick, _ = run_until(engine, records, lambda: case.terminal_tick is not None)
        assert tick == 1
        assert case.waiting_time == 1
        assert ledger.v_informal == 1
        assert ledger.sc(AgentKind.INFORMAL_CARER) == 0
        assert world.agents[world.informal_ids[0]].status is AgentStatus.RANDOM_WALKING

    def test_carer_cost_stops_at_arrival(self):
        world, ledger, engine, records = build(ic_positions=(Position(4, 0),), dispatch_delay=50)
        case = raise_case(engine, world, 0, true_fall=False, tick=0)
        run_until(engine, records, lambda: case.terminal_tick is not None)
        assert ledger.sc(AgentKind.INFORMAL_CARER) == 4

    def test_convoy_cancelled_by_false_alarm_moved_through_previous_tick(self):
        # The carer 3 cells out confirms the phantom at tick 3. Visits resolve
        # before convoys, so the convoy has moved through tick 2 only: two
        # cells from the hospital at (8,0), two ticks each, then two back.
        world, ledger, engine, records = build(ic_positions=(Position(3, 0),))
        case = raise_case(engine, world, 0, true_fall=False, tick=0)
        tick, _ = run_until(engine, records, lambda: case.terminal_tick is not None)
        assert tick == 3
        crew = [world.agents[a] for a in world.professional_ids + world.ambulance_ids]
        for agent in crew:
            assert agent.position == Position(6, 0)
            assert agent.status is AgentStatus.RETURNING_TO_BASE
        assert ledger.sc(AgentKind.AMBULANCE) == ledger.sc(AgentKind.PROFESSIONAL_CARER) == 2
        assert ledger.sc(AgentKind.INFORMAL_CARER) == 3
        back, _ = run_until(
            engine, records, lambda: crew[0].status is AgentStatus.IDLE, start=tick + 1
        )
        assert back == 5
        assert all(agent.position == HOSPITAL for agent in crew)
        assert ledger.sc(AgentKind.AMBULANCE) == 4

    def test_visit_cancelled_by_convoy_arrival_moved_through_that_tick(self):
        # The convoy reaches house 1 at (0,4) at tick 8; the carer, 12 cells
        # out at (-8,-8), has moved 8 diagonal cells by then.
        world, ledger, engine, records = build(
            n_elderly=2, ic_positions=(Position(-8, -8),)
        )
        case = raise_case(engine, world, 0, elderly_index=1, true_fall=True, tick=0)
        tick, _ = run_until(engine, records, lambda: case.terminal_tick is not None)
        assert tick == 8
        carer = world.agents[world.informal_ids[0]]
        assert carer.position == Position(0, 0)
        assert carer.status is AgentStatus.RANDOM_WALKING
        assert ledger.sc(AgentKind.INFORMAL_CARER) == 8
        assert ledger.sc(AgentKind.AMBULANCE) == 8
        assert ledger.v_informal == 0

    @pytest.mark.parametrize("count_return_travel", [True, False])
    def test_finalize_charges_the_covered_part_of_a_return(self, count_return_travel):
        # Arrive at tick 8, head back from the house, stop at tick 11.
        world, ledger, engine, records = build(count_return_travel=count_return_travel)
        case = raise_case(engine, world, 0, true_fall=True, tick=0)
        run_until(engine, records, lambda: case.terminal_tick is not None)
        for tick in range(9, 12):
            engine.tick_protocols(tick)
        engine.finalize(final_tick=11)
        engine.audit()
        for aid in world.professional_ids + world.ambulance_ids:
            agent = world.agents[aid]
            assert agent.position == Position(3, 0)
            assert agent.status is AgentStatus.RETURNING_TO_BASE
        assert ledger.sc(AgentKind.AMBULANCE) == (8 + 3 if count_return_travel else 8)

    def test_waiting_time_recorded_once(self):
        world, ledger, engine, records = build(ic_positions=(Position(2, 0),), dispatch_delay=0)
        case = raise_case(engine, world, 0, true_fall=True, tick=0)
        run_until(engine, records, lambda: case.terminal_tick is not None)
        assert ledger.sum_wt == case.waiting_time == 2
