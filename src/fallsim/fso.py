"""Tiered coordination engine: circles, protocol readying, role enrollment,
exception escalation, and cancellation.

The community is organized as three nested circles. Each house forms a
level-1 circle (resident, detectors, coordinator). Level 2 groups the houses
with the informal carers; level 3 adds the hospital staff and ambulances.
An alarm readies a care-dispatch protocol (professional + ambulance) and,
when informal carers exist, a verification visit. Roles that cannot be
filled in a circle escalate to the parent circle within the same tick.
A confirmed false alarm is relayed to the top circle, which cancels the
care dispatch.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

from .metrics import CostLedger
from .world import (
    AgentKind,
    AgentState,
    AgentStatus,
    Position,
    World,
    step_toward,
    travel_time,
)


class Role(Enum):
    NEED_PROFESSIONAL = "need_professional"
    NEED_AMBULANCE = "need_ambulance"
    NEED_INFORMAL = "need_informal"
    NEED_TOP_COORDINATOR = "need_top_coordinator"


ROLE_KIND = {
    Role.NEED_PROFESSIONAL: AgentKind.PROFESSIONAL_CARER,
    Role.NEED_AMBULANCE: AgentKind.AMBULANCE,
    Role.NEED_INFORMAL: AgentKind.INFORMAL_CARER,
    Role.NEED_TOP_COORDINATOR: AgentKind.COORDINATOR,
}


class ProtocolKind(Enum):
    CARE_DISPATCH = "care_dispatch"  # professional + ambulance convoy
    VERIFY_VISIT = "verify_visit"  # informal carer checks on the resident
    FALSE_ALARM_RELAY = "false_alarm_relay"  # forward a confirmed false alarm up
    DISPATCH_CANCEL = "dispatch_cancel"  # role-free abort of the care dispatch


REQUIRED_ROLES: dict[ProtocolKind, tuple[Role, ...]] = {
    ProtocolKind.CARE_DISPATCH: (Role.NEED_PROFESSIONAL, Role.NEED_AMBULANCE),
    ProtocolKind.VERIFY_VISIT: (Role.NEED_INFORMAL,),
    ProtocolKind.FALSE_ALARM_RELAY: (Role.NEED_TOP_COORDINATOR,),
    ProtocolKind.DISPATCH_CANCEL: (),
}

#: Highest circle level at which each protocol's roles can ever be filled;
#: unfilled instances park there and retry (FIFO) after an agent is freed.
RESOLUTION_LEVEL = {
    ProtocolKind.CARE_DISPATCH: 3,
    ProtocolKind.VERIFY_VISIT: 2,
    ProtocolKind.FALSE_ALARM_RELAY: 3,
    ProtocolKind.DISPATCH_CANCEL: 3,
}


class InstanceState(Enum):
    READIED = "readied"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELED = "canceled"


TERMINAL_STATES = frozenset({InstanceState.COMPLETED, InstanceState.CANCELED})


class EventKind(Enum):
    FALL_DETECTED = "fall_detected"
    FALL_CONFIRMED = "fall_confirmed"
    FALSE_POSITIVE_CONFIRMED = "false_positive_confirmed"
    ROLE_EXCEPTION = "role_exception"
    CARE_ARRIVED = "care_arrived"
    DISPATCH_CANCELED = "dispatch_canceled"


@dataclass(slots=True)
class Circle:
    id: int
    level: int
    coordinator_id: int
    parent: Optional[int] = None


@dataclass(slots=True)
class ProtocolInstance:
    instance_id: int
    kind: ProtocolKind
    case_id: int
    origin_circle: int
    state: InstanceState = InstanceState.READIED
    current_circle: int = -1
    enrolled: list[int] = field(default_factory=list)
    enroll_tick: int = -1
    # First tick the enrolled agents are allowed to move.
    first_move_tick: int = -1
    target: Optional[Position] = None


class CaseOutcome(Enum):
    SERVED = "served"
    CANCELED = "canceled"
    CLOSED_AT_RUN_END = "closed_at_run_end"


class FsoEngine:
    """Deterministic driver of the circle hierarchy for one simulation run.

    `cases` entries are supplied by the scenario layer via :meth:`raise_alarm`;
    they must expose case_id, ea_id, true_fall, raised_tick, and the mutable
    terminal/waiting/cost fields of the scenario's case record type.
    """

    def __init__(
        self,
        world: World,
        ledger: CostLedger,
        *,
        dispatch_delay: int = 5,
        count_return_travel: bool = True,
        trace: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.world = world
        self.ledger = ledger
        self.dispatch_delay = dispatch_delay
        self.count_return_travel = count_return_travel
        self.trace = trace

        self.circles: dict[int, Circle] = {}
        self.instances: dict[int, ProtocolInstance] = {}
        self.cases: dict[int, object] = {}
        self.level1_by_elderly: dict[int, int] = {}
        self.level2_id: Optional[int] = None
        self.level3_id: int = -1
        # case id -> {protocol kind: instance id} for the dispatch/verify pair
        self.case_instances: dict[int, dict[ProtocolKind, int]] = {}
        self.retry_queue: deque[int] = deque()
        # Set when an agent becomes enrollable; parked instances wait for it.
        self._freed = False
        self.returning: list[int] = []
        # Running dispatch/verify instances, the only ones that need ticking.
        self.active: set[int] = set()
        self._next_instance = 0
        self._next_circle = 0
        self._build_circles()
        # Candidates per (circle, role): the hospital staff and the top
        # coordinator in the top circle, the informal carers in the middle
        # one. Every other pair has none, so its role escalates.
        top = self.circles[self.level3_id]
        self._role_candidates: dict[tuple[int, str], list[int]] = {
            (top.id, Role.NEED_PROFESSIONAL.value): list(world.professional_ids),
            (top.id, Role.NEED_AMBULANCE.value): list(world.ambulance_ids),
            (top.id, Role.NEED_TOP_COORDINATOR.value): [top.coordinator_id],
        }
        if self.level2_id is not None:
            self._role_candidates[(self.level2_id, Role.NEED_INFORMAL.value)] = list(
                world.informal_ids
            )

    # -- structure -----------------------------------------------------------

    def _new_circle(self, level: int, coordinator: int, parent: Optional[int]) -> Circle:
        circle = Circle(self._next_circle, level, coordinator, parent)
        self._next_circle += 1
        self.circles[circle.id] = circle
        return circle

    def _build_circles(self) -> None:
        world = self.world
        top = self._new_circle(3, world.add_coordinator(world.hospital).id, None)
        self.level3_id = top.id
        parent = top.id
        if world.informal_ids:
            mid = self._new_circle(2, world.add_coordinator(world.hospital).id, top.id)
            self.level2_id = parent = mid.id
        for eid in world.elderly_ids:
            ca = world.add_coordinator(world.agents[eid].position)
            self.level1_by_elderly[eid] = self._new_circle(1, ca.id, parent).id

    # -- tracing -------------------------------------------------------------

    def _emit(
        self,
        kind: EventKind,
        agent: int,
        case: int,
        tick: int,
        missing: Sequence[Role] = (),
        instance: Optional[int] = None,
    ) -> None:
        if self.trace is not None:
            self.trace(
                {
                    "tick": tick,
                    "case": case,
                    "event": kind.value,
                    "agent": agent,
                    "instance": instance,
                    "missing": [r.value for r in missing],
                }
            )

    # -- alarm intake --------------------------------------------------------

    def raise_alarm(self, case, device_id: int, tick: int) -> None:
        """Register a fresh alarm case and ready its protocols in the house circle.

        Both protocols are readied before either is launched; this order
        fixes the instance ids that appear in the trace.
        """
        self.cases[case.case_id] = case
        self.case_instances[case.case_id] = {}
        self.ledger.treated_cases += 1
        self.world.agents[case.ea_id].pending_case = case.case_id
        self._emit(EventKind.FALL_DETECTED, device_id, case.case_id, tick)
        circle = self.circles[self.level1_by_elderly[case.ea_id]]
        readied = [self._ready(ProtocolKind.CARE_DISPATCH, case.case_id, circle)]
        if self.level2_id is not None:
            readied.append(self._ready(ProtocolKind.VERIFY_VISIT, case.case_id, circle))
        for instance in readied:
            self._launch(instance, tick)

    def _ready(self, kind: ProtocolKind, case_id: int, circle: Circle) -> ProtocolInstance:
        instance = ProtocolInstance(
            instance_id=self._next_instance,
            kind=kind,
            case_id=case_id,
            origin_circle=circle.id,
            current_circle=circle.id,
            target=self.world.agents[self.cases[case_id].ea_id].position,
        )
        self._next_instance += 1
        self.instances[instance.instance_id] = instance
        if kind in (ProtocolKind.CARE_DISPATCH, ProtocolKind.VERIFY_VISIT):
            self.case_instances[case_id][kind] = instance.instance_id
        return instance

    def _launch(self, instance: ProtocolInstance, tick: int) -> None:
        """Enroll, escalating through parents; park and retry if unfillable."""
        circle = self.circles[instance.current_circle]
        ceiling = RESOLUTION_LEVEL[instance.kind]
        while True:
            missing = self.try_enroll(instance, circle, tick)
            if not missing:
                self._on_running(instance, tick)
                return
            self._emit(
                EventKind.ROLE_EXCEPTION,
                circle.coordinator_id,
                instance.case_id,
                tick,
                missing,
                instance.instance_id,
            )
            if circle.level >= ceiling or circle.parent is None:
                self.retry_queue.append(instance.instance_id)
                return
            circle = self.circles[circle.parent]
            instance.current_circle = circle.id

    # -- enrollment ----------------------------------------------------------

    def try_enroll(
        self, instance: ProtocolInstance, circle: Circle, tick: int
    ) -> list[Role]:
        """Bind every required role or report the missing ones.

        Selection per role: nearest free candidate by travel time to the
        resident's house, ties broken by lowest agent id. Informal carers are
        free while they walk, everyone else while idle (coordinators never
        leave idle). Nothing is bound unless every role can be filled.
        """
        if instance.state in TERMINAL_STATES:
            raise ValueError("cannot enroll a terminal protocol instance")
        agents = self.world.agents
        target = instance.target
        speed = self.world.config.speed
        chosen: list[int] = []
        missing: list[Role] = []
        for role in REQUIRED_ROLES[instance.kind]:
            free = AgentStatus.RANDOM_WALKING if role is Role.NEED_INFORMAL else AgentStatus.IDLE
            best: Optional[AgentState] = None
            best_key: tuple[int, int] = (0, 0)
            for member_id in self._role_candidates.get((circle.id, role.value), ()):
                agent = agents[member_id]
                if agent.status is not free or member_id in chosen:
                    continue
                key = (travel_time(agent.position, target, speed), agent.id)
                if best is None or key < best_key:
                    best, best_key = agent, key
            if best is None:
                missing.append(role)
            else:
                chosen.append(best.id)
        if missing:
            return missing

        instance.enrolled = chosen
        instance.enroll_tick = tick
        instance.current_circle = circle.id
        instance.state = InstanceState.RUNNING
        delay = self.dispatch_delay if instance.kind is ProtocolKind.CARE_DISPATCH else 0
        instance.first_move_tick = tick + 1 + delay
        if instance.kind in (ProtocolKind.CARE_DISPATCH, ProtocolKind.VERIFY_VISIT):
            self.active.add(instance.instance_id)
        for agent_id in chosen:
            agent = agents[agent_id]
            if agent.kind is AgentKind.COORDINATOR:
                continue
            agent.status = AgentStatus.ENROLLED_TRAVELING
            agent.target = target
            agent.instance_id = instance.instance_id
            agent.serving_case = instance.case_id
        return []

    def _on_running(self, instance: ProtocolInstance, tick: int) -> None:
        """Kick off protocols whose effect is instantaneous."""
        if instance.kind is ProtocolKind.FALSE_ALARM_RELAY:
            # The relay only hands the confirmed false alarm to the top
            # coordinator, which immediately runs the role-free cancellation.
            instance.state = InstanceState.COMPLETED
            instance.enrolled = []
            cancel = self._ready(
                ProtocolKind.DISPATCH_CANCEL,
                instance.case_id,
                self.circles[self.level3_id],
            )
            self._launch(cancel, tick)
        elif instance.kind is ProtocolKind.DISPATCH_CANCEL:
            instance.state = InstanceState.COMPLETED
            self._execute_cancel(instance.case_id, tick)

    def _execute_cancel(self, case_id: int, tick: int) -> None:
        case = self.cases[case_id]
        dispatch_id = self.case_instances[case_id].get(ProtocolKind.CARE_DISPATCH)
        if dispatch_id is not None:
            dispatch = self.instances[dispatch_id]
            if dispatch.state not in TERMINAL_STATES:
                self.cancel_protocol(dispatch, tick)
        self._close_case(case, CaseOutcome.CANCELED, tick)
        self._emit(
            EventKind.DISPATCH_CANCELED,
            self.circles[self.level3_id].coordinator_id,
            case_id,
            tick,
            instance=dispatch_id,
        )

    # -- cancellation and release --------------------------------------------

    def cancel_protocol(self, instance: ProtocolInstance, tick: int) -> None:
        """Abort a non-terminal instance, freeing its agents.

        Carers resume their walk immediately; hospital agents head back to
        base and become enrollable again on arrival. Terminal instances are
        left untouched.
        """
        if instance.state in TERMINAL_STATES:
            return
        if instance.state is InstanceState.READIED and instance.instance_id in self.retry_queue:
            self.retry_queue.remove(instance.instance_id)
        for agent_id in instance.enrolled:
            self._release(self.world.agents[agent_id])
        instance.enrolled = []
        instance.state = InstanceState.CANCELED
        self.active.discard(instance.instance_id)

    def _release(self, agent: AgentState) -> None:
        if agent.kind is AgentKind.INFORMAL_CARER:
            agent.status = AgentStatus.RANDOM_WALKING
            agent.target = None
            agent.instance_id = None
            agent.serving_case = None
            self._freed = True
        elif agent.kind is AgentKind.COORDINATOR:
            pass
        elif agent.position == agent.base:
            agent.status = AgentStatus.IDLE
            agent.target = None
            agent.instance_id = None
            agent.serving_case = None
            self._freed = True
        else:
            agent.status = AgentStatus.RETURNING_TO_BASE
            agent.target = agent.base
            agent.instance_id = None
            self.returning.append(agent.id)

    # -- per-tick driving ----------------------------------------------------

    def tick_protocols(self, tick: int) -> None:
        """Advance travel, resolve arrivals, and retry parked enrollments."""
        self._advance_returning(tick)
        # Verification visits resolve before the convoy on ties, so a carer
        # reaching the house the same tick as the ambulance does the check.
        active = [self.instances[i] for i in sorted(self.active)]
        for instance in active:
            if instance.kind is ProtocolKind.VERIFY_VISIT:
                self._advance_instance(instance, tick)
        for instance in active:
            if instance.kind is ProtocolKind.CARE_DISPATCH:
                self._advance_instance(instance, tick)
        self._retry_parked(tick)

    def _advance_returning(self, tick: int) -> None:
        still: list[int] = []
        for agent_id in self.returning:
            agent = self.world.agents[agent_id]
            if agent.status is not AgentStatus.RETURNING_TO_BASE:
                continue
            if self.count_return_travel:
                self._accrue(agent, 1)
            step_toward(agent, agent.base)
            if agent.status is AgentStatus.IDLE:
                agent.target = None
                agent.serving_case = None
                self._freed = True
            else:
                still.append(agent_id)
        self.returning = still

    def _accrue(self, agent: AgentState, ticks: int) -> None:
        self.ledger.add_cost(agent.kind, ticks)
        case = self.cases.get(agent.serving_case)
        if case is not None:
            case.cost_by_kind[agent.kind] = case.cost_by_kind.get(agent.kind, 0) + ticks

    def _advance_instance(self, instance: ProtocolInstance, tick: int) -> None:
        if instance.state is not InstanceState.RUNNING or tick <= instance.enroll_tick:
            return
        agents = [self.world.agents[a] for a in instance.enrolled]
        arrived = all(a.position == instance.target for a in agents)
        if not arrived:
            if instance.kind is ProtocolKind.CARE_DISPATCH:
                # Mobilization ticks before departure still occupy the crew.
                for agent in agents:
                    self._accrue(agent, 1)
                if tick < instance.first_move_tick:
                    return
            else:
                for agent in agents:
                    self._accrue(agent, 1)
            for agent in agents:
                step_toward(agent, agent.target)
            arrived = all(a.status is AgentStatus.AT_SCENE for a in agents)
        if arrived:
            if instance.kind is ProtocolKind.VERIFY_VISIT:
                self._on_verifier_arrival(instance, tick)
            else:
                self._on_convoy_arrival(instance, tick)

    def _on_verifier_arrival(self, instance: ProtocolInstance, tick: int) -> None:
        case = self.cases[instance.case_id]
        carer = self.world.agents[instance.enrolled[0]]
        self.ledger.v_informal += 1
        case.verified_by = AgentKind.INFORMAL_CARER
        self._record_waiting(case, tick)
        instance.state = InstanceState.COMPLETED
        instance.enrolled = []
        self.active.discard(instance.instance_id)
        self._release(carer)
        if case.true_fall:
            self._emit(EventKind.FALL_CONFIRMED, carer.id, case.case_id, tick)
        else:
            # The carer's circle relays the confirmed false alarm upward.
            self._emit(EventKind.FALSE_POSITIVE_CONFIRMED, carer.id, case.case_id, tick)
            relay = self._ready(
                ProtocolKind.FALSE_ALARM_RELAY, case.case_id, self.circles[self.level2_id]
            )
            self._launch(relay, tick)

    def _on_convoy_arrival(self, instance: ProtocolInstance, tick: int) -> None:
        case = self.cases[instance.case_id]
        if case.true_fall:
            self.ledger.interventions += 1
        else:
            self.ledger.v_ambulance += 1
            case.verified_by = AgentKind.AMBULANCE
        self._record_waiting(case, tick)
        self._emit(
            EventKind.CARE_ARRIVED,
            instance.enrolled[0],
            case.case_id,
            tick,
            instance=instance.instance_id,
        )
        verify_id = self.case_instances[case.case_id].get(ProtocolKind.VERIFY_VISIT)
        if verify_id is not None:
            verify = self.instances[verify_id]
            if verify.state not in TERMINAL_STATES:
                self.cancel_protocol(verify, tick)
        for agent_id in instance.enrolled:
            self._release(self.world.agents[agent_id])
        instance.enrolled = []
        instance.state = InstanceState.COMPLETED
        self.active.discard(instance.instance_id)
        self._close_case(case, CaseOutcome.SERVED, tick)

    def _retry_parked(self, tick: int) -> None:
        """Retry parked instances in FIFO order once an agent has been freed.

        A parked instance failed because some role had no free candidate,
        and no candidate becomes free except where ``_freed`` is set. A
        retry skipped in between would have failed, and a failed retry
        emits nothing and keeps the queue order.
        """
        if not self._freed:
            return
        self._freed = False
        pending = len(self.retry_queue)
        for _ in range(pending):
            instance_id = self.retry_queue.popleft()
            instance = self.instances[instance_id]
            if instance.state is not InstanceState.READIED:
                continue
            missing = self.try_enroll(instance, self.circles[instance.current_circle], tick)
            if missing:
                self.retry_queue.append(instance_id)
            else:
                self._on_running(instance, tick)

    # -- case closure --------------------------------------------------------

    def _record_waiting(self, case, tick: int) -> None:
        if case.waiting_time is None:
            case.waiting_time = tick - case.raised_tick
            self.ledger.sum_wt += case.waiting_time

    def _close_case(self, case, outcome: CaseOutcome, tick: int) -> None:
        case.outcome = outcome
        case.terminal_tick = tick
        self._record_waiting(case, tick)
        self.world.agents[case.ea_id].pending_case = None

    def finalize(self, final_tick: int) -> None:
        """Close everything still in flight at the end of the run."""
        for instance in self.instances.values():
            if instance.state not in TERMINAL_STATES:
                self.cancel_protocol(instance, final_tick)
        for case in self.cases.values():
            if case.terminal_tick is None:
                self._close_case(case, CaseOutcome.CLOSED_AT_RUN_END, final_tick)

    # -- invariant audit -----------------------------------------------------

    def audit(self) -> None:
        """Assert cross-cutting safety invariants; used by tests."""
        bound: dict[int, int] = {}
        for instance in self.instances.values():
            if instance.state in TERMINAL_STATES:
                assert not instance.enrolled, (
                    f"terminal instance {instance.instance_id} still holds agents"
                )
                continue
            if instance.state is InstanceState.RUNNING:
                circle = self.circles[instance.current_circle]
                if instance.kind is ProtocolKind.CARE_DISPATCH:
                    assert circle.level == 3, "care dispatch running below the top circle"
                elif instance.kind is ProtocolKind.VERIFY_VISIT:
                    assert circle.level == 2, "verification running outside the middle circle"
                for role, agent_id in zip(REQUIRED_ROLES[instance.kind], instance.enrolled):
                    agent = self.world.agents[agent_id]
                    expected = ROLE_KIND[role]
                    assert agent.kind is expected, (
                        f"agent {agent_id} of kind {agent.kind} bound to role {role}"
                    )
                    assert agent_id not in bound, f"agent {agent_id} enrolled twice"
                    bound[agent_id] = instance.instance_id
        for agent in self.world.agents.values():
            if agent.status in (AgentStatus.ENROLLED_TRAVELING, AgentStatus.AT_SCENE):
                assert agent.instance_id is not None
                inst = self.instances[agent.instance_id]
                assert inst.state not in TERMINAL_STATES
            assert self.world.in_bounds(agent.position), f"agent {agent.id} out of bounds"
