"""Circle hierarchy, enrollment, escalation, cancellation, and cost accrual.

These tests pin the protocol engine to hand-traced miniature worlds: one or
two houses on a small grid with the hospital a known distance away, so every
arrival tick and accrued cost can be computed by hand. Events are read from
the engine's trace records, its only event output.
"""
from random import Random

import pytest

from fallsim.fso import (
    EventKind,
    FsoEngine,
    InstanceState,
    ProtocolKind,
    REQUIRED_ROLES,
    RESOLUTION_LEVEL,
    Role,
)
from fallsim.metrics import CostLedger
from fallsim.scenario import CaseRecord
from fallsim.world import (
    AgentKind,
    AgentStatus,
    Position,
    World,
    WorldConfig,
)

HOSPITAL = Position(8, 0)


def build(
    n_elderly=1,
    n_pc=1,
    n_ma=1,
    ic_positions=(),
    dispatch_delay=0,
    count_return_travel=True,
):
    """A pinned layout: houses at (0,0), (0,4), ...; hospital at (8,0).

    Returns the world, the ledger, the engine and the list its trace
    records are appended to.
    """
    config = WorldConfig(
        half_width=8, half_height=8, n_elderly=n_elderly,
        n_professional=n_pc, n_ambulances=n_ma,
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


def raise_case(engine, world, case_id, elderly_index=0, true_fall=True, tick=0):
    eid = world.elderly_ids[elderly_index]
    device = next(d for d in world.device_ids if world.agents[d].watches == eid)
    case = CaseRecord(case_id=case_id, ea_id=eid, true_fall=true_fall, raised_tick=tick)
    engine.raise_alarm(case, device, tick)
    return case


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
        raise_case(engine, world, 0)
        kinds = {i.kind for i in engine.instances.values()}
        assert kinds == {ProtocolKind.CARE_DISPATCH}
        dispatch = engine.instances[engine.case_instances[0][ProtocolKind.CARE_DISPATCH]]
        assert dispatch.state is InstanceState.RUNNING
        assert engine.circles[dispatch.current_circle].level == 3

    def test_alarm_with_carers_readies_dispatch_and_verify(self):
        world, _, engine, _ = build(ic_positions=(Position(0, 3),))
        raise_case(engine, world, 0)
        verify = engine.instances[engine.case_instances[0][ProtocolKind.VERIFY_VISIT]]
        assert verify.state is InstanceState.RUNNING
        assert engine.circles[verify.current_circle].level == 2

    def test_escalation_emits_role_exceptions_within_one_tick(self):
        world, _, engine, records = build(ic_positions=(Position(2, 2),))
        raise_case(engine, world, 0, tick=0)
        exceptions = [r for r in records if r["event"] == EventKind.ROLE_EXCEPTION.value]
        # The house circle can satisfy neither protocol; the middle circle
        # cannot satisfy the dispatch. All escalation happens at tick 0.
        assert len(exceptions) >= 3
        assert all(r["tick"] == 0 for r in exceptions)
        missing = {role for r in exceptions for role in r["missing"]}
        assert Role.NEED_PROFESSIONAL.value in missing
        assert Role.NEED_AMBULANCE.value in missing
        assert Role.NEED_INFORMAL.value in missing

    def test_protocol_role_tables(self):
        assert REQUIRED_ROLES[ProtocolKind.CARE_DISPATCH] == (
            Role.NEED_PROFESSIONAL,
            Role.NEED_AMBULANCE,
        )
        assert REQUIRED_ROLES[ProtocolKind.DISPATCH_CANCEL] == ()
        assert RESOLUTION_LEVEL[ProtocolKind.VERIFY_VISIT] == 2


class TestEnrollment:
    def test_nearest_carer_wins_then_lowest_id(self):
        # Travel times to the house at (0,0): 5, 3, 3 — the tie at 3 goes to
        # the lower agent id.
        world, _, engine, _ = build(
            ic_positions=(Position(5, 0), Position(3, 0), Position(0, 3))
        )
        ids = world.informal_ids
        raise_case(engine, world, 0)
        verify = engine.instances[engine.case_instances[0][ProtocolKind.VERIFY_VISIT]]
        assert verify.enrolled == [ids[1]]

    def test_enrollment_is_all_or_nothing(self):
        world, _, engine, _ = build(n_pc=1, n_ma=0)
        raise_case(engine, world, 0)
        dispatch = engine.instances[engine.case_instances[0][ProtocolKind.CARE_DISPATCH]]
        assert dispatch.state is InstanceState.READIED
        assert dispatch.enrolled == []
        # The available professional was not grabbed speculatively.
        pc = world.agents[world.professional_ids[0]]
        assert pc.status is AgentStatus.IDLE

    def test_terminal_instance_cannot_reenroll(self):
        world, _, engine, _ = build()
        raise_case(engine, world, 0)
        dispatch = engine.instances[engine.case_instances[0][ProtocolKind.CARE_DISPATCH]]
        engine.cancel_protocol(dispatch, 1)
        with pytest.raises(ValueError):
            engine.try_enroll(dispatch, engine.circles[engine.level3_id], 2)

    def test_exhausted_resources_park_in_retry_queue(self):
        world, _, engine, _ = build(n_elderly=2, n_pc=1, n_ma=1)
        raise_case(engine, world, 0, elderly_index=0)
        raise_case(engine, world, 1, elderly_index=1)
        first = engine.instances[engine.case_instances[0][ProtocolKind.CARE_DISPATCH]]
        second = engine.instances[engine.case_instances[1][ProtocolKind.CARE_DISPATCH]]
        assert first.state is InstanceState.RUNNING
        assert second.state is InstanceState.READIED
        assert list(engine.retry_queue) == [second.instance_id]

    def test_parked_dispatch_runs_after_convoy_returns(self):
        world, ledger, engine, records = build(n_elderly=2, n_pc=1, n_ma=1)
        case_a = raise_case(engine, world, 0, elderly_index=0, true_fall=True)
        case_b = raise_case(engine, world, 1, elderly_index=1, true_fall=True)
        run_until(engine, records, lambda: case_a.terminal_tick is not None)
        second = engine.instances[engine.case_instances[1][ProtocolKind.CARE_DISPATCH]]
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
        raise_case(engine, world, 1, elderly_index=0)
        verify_b = engine.instances[engine.case_instances[1][ProtocolKind.VERIFY_VISIT]]
        assert verify_b.state is InstanceState.READIED
        tick, _ = run_until(engine, records, lambda: verify_b.state is InstanceState.RUNNING)
        assert tick == case_a.terminal_tick == 8
        assert verify_b.enroll_tick == tick
        assert verify_b.enrolled == world.informal_ids

    def test_crew_cancelled_at_base_enrolls_parked_dispatch(self):
        world, _, engine, _ = build(n_elderly=2, dispatch_delay=50)
        raise_case(engine, world, 0, elderly_index=0)
        raise_case(engine, world, 1, elderly_index=1)
        first = engine.instances[engine.case_instances[0][ProtocolKind.CARE_DISPATCH]]
        second = engine.instances[engine.case_instances[1][ProtocolKind.CARE_DISPATCH]]
        for tick in range(1, 5):
            engine.tick_protocols(tick)
        assert second.state is InstanceState.READIED
        # Still mobilizing, so the crew is at base and idle at once.
        engine.cancel_protocol(first, 5)
        for aid in world.professional_ids + world.ambulance_ids:
            assert world.agents[aid].status is AgentStatus.IDLE
        engine.tick_protocols(5)
        assert second.state is InstanceState.RUNNING
        assert second.enroll_tick == 5
        engine.audit()

    def test_crew_back_at_base_enrolls_parked_dispatch(self):
        world, _, engine, records = build(n_elderly=2, dispatch_delay=0)
        raise_case(engine, world, 0, elderly_index=0)
        raise_case(engine, world, 1, elderly_index=1)
        second = engine.instances[engine.case_instances[1][ProtocolKind.CARE_DISPATCH]]
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
        tick, emitted = run_until(engine, records, lambda: case.terminal_tick is not None)
        assert tick == 2  # enroll at 0, move at 1 and 2
        kinds = [r["event"] for r in emitted]
        assert EventKind.FALSE_POSITIVE_CONFIRMED.value in kinds
        assert EventKind.DISPATCH_CANCELED.value in kinds
        assert case.outcome.value == "canceled"
        assert case.waiting_time == 2
        assert ledger.v_informal == 1
        assert ledger.v_ambulance == 0
        dispatch = engine.instances[engine.case_instances[0][ProtocolKind.CARE_DISPATCH]]
        assert dispatch.state is InstanceState.CANCELED
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
        dispatch = engine.instances[engine.case_instances[0][ProtocolKind.CARE_DISPATCH]]
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
        assert case.verified_by is AgentKind.AMBULANCE
        assert ledger.v_ambulance == 1
        assert ledger.v_informal == 0


class TestCancellation:
    def test_cancel_is_idempotent_and_frees_agents(self):
        world, _, engine, _ = build(dispatch_delay=0)
        raise_case(engine, world, 0)
        dispatch = engine.instances[engine.case_instances[0][ProtocolKind.CARE_DISPATCH]]
        engine.tick_protocols(1)  # convoy takes one step
        engine.cancel_protocol(dispatch, 2)
        assert dispatch.state is InstanceState.CANCELED
        assert dispatch.enrolled == []
        for aid in world.professional_ids + world.ambulance_ids:
            assert world.agents[aid].status is AgentStatus.RETURNING_TO_BASE
        # A second cancellation must not disturb the terminal state.
        engine.cancel_protocol(dispatch, 3)
        assert dispatch.state is InstanceState.CANCELED
        engine.audit()

    def test_canceled_carer_resumes_walking_immediately(self):
        world, _, engine, _ = build(ic_positions=(Position(6, 6),), dispatch_delay=0)
        raise_case(engine, world, 0)
        verify = engine.instances[engine.case_instances[0][ProtocolKind.VERIFY_VISIT]]
        engine.tick_protocols(1)
        engine.cancel_protocol(verify, 2)
        carer = world.agents[world.informal_ids[0]]
        assert carer.status is AgentStatus.RANDOM_WALKING
        assert carer.instance_id is None

    def test_finalize_closes_everything(self):
        world, _, engine, _ = build(n_elderly=2, n_pc=1, n_ma=1, dispatch_delay=50)
        case_a = raise_case(engine, world, 0, elderly_index=0)
        case_b = raise_case(engine, world, 1, elderly_index=1)
        engine.tick_protocols(1)
        engine.finalize(final_tick=1)
        for case in (case_a, case_b):
            assert case.terminal_tick == 1
            assert case.outcome.value == "closed_at_run_end"
        for instance in engine.instances.values():
            assert instance.state in (InstanceState.COMPLETED, InstanceState.CANCELED)
        assert not engine.retry_queue or all(
            engine.instances[i].state is InstanceState.CANCELED
            for i in engine.retry_queue
        )
        engine.audit()


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
        assert case.cost_by_kind[AgentKind.AMBULANCE] == 19

    def test_return_leg_can_be_excluded(self):
        world, ledger, engine, records = build(dispatch_delay=3, count_return_travel=False)
        case = raise_case(engine, world, 0, true_fall=True, tick=0)
        run_until(
            engine,
            records,
            lambda: world.agents[world.ambulance_ids[0]].status is AgentStatus.IDLE,
        )
        assert ledger.sc(AgentKind.AMBULANCE) == 11

    def test_carer_cost_stops_at_arrival(self):
        world, ledger, engine, records = build(ic_positions=(Position(4, 0),), dispatch_delay=50)
        case = raise_case(engine, world, 0, true_fall=False, tick=0)
        run_until(engine, records, lambda: case.terminal_tick is not None)
        assert ledger.sc(AgentKind.INFORMAL_CARER) == 4

    def test_waiting_time_recorded_once(self):
        world, ledger, engine, records = build(ic_positions=(Position(2, 0),), dispatch_delay=0)
        case = raise_case(engine, world, 0, true_fall=True, tick=0)
        run_until(engine, records, lambda: case.terminal_tick is not None)
        assert ledger.sum_wt == case.waiting_time == 2
