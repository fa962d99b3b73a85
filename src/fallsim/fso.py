"""Tiered coordination engine: protocol readying, role enrollment,
exception escalation, cancellation, and per-leg travel and cost.

The community is organized as three nested circles: each house (resident,
detectors), the neighbourhood (the houses plus the informal carers, when
there are any) and the hospital (staff and ambulances). A circle appears
only as its coordinator's id, which names it in the trace. An alarm readies
a care-dispatch protocol (professional + ambulance) and, when informal
carers exist, a verification visit. Each role has candidates in one circle
only, so every protocol climbs a fixed ladder of coordinators within the
same tick: each rung below the last reports all its roles missing, and the
last rung enrolls or parks the instance. A hospital role takes the lowest
idle id of its kind, kept in one id heap per kind: idle hospital agents all
stand at the hospital, so they tie on travel time. A carer role takes the
nearest walking carer by travel time, then the lowest id. A confirmed false
alarm is relayed from the neighbourhood to the hospital, which cancels the
care dispatch at once; the relay and the cancel take the next two instance
ids in the trace but are never stored. Each instance carries its case and
its partner, the other protocol of the same alarm. The engine holds only
live instances: parked ones in the retry queue and running ones under their
arrival tick.

Travel is settled once per leg, not once per tick. A leg's path is fixed
when it starts: a visit's carer, or a dispatch's convoy after
``dispatch_delay`` mobilization ticks, heads for the house one king-move per
tick, and a released hospital agent heads back to base the same way. So the
engine works out each leg's end tick when the leg starts, files the instance
or the returning agent under that tick, and does nothing for it on any other
tick. When the leg arrives, is cancelled or the run ends, each agent is
charged the leg's ticks in one ``add_cost`` call and placed with one
``step_toward`` call; until then its ``position`` is where the leg began.
Within a tick, agents reaching base are freed first, then due visits resolve
in id order, then due convoys in id order, and then parked instances retry.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .metrics import CostLedger
from .world import (
    AgentKind,
    AgentState,
    AgentStatus,
    KeyEnum,
    Position,
    World,
    chebyshev,
    step_toward,
)


class Role(KeyEnum):
    NEED_PROFESSIONAL = "need_professional"
    NEED_AMBULANCE = "need_ambulance"
    NEED_INFORMAL = "need_informal"
    NEED_TOP_COORDINATOR = "need_top_coordinator"


ROLE_KIND = {
    Role.NEED_PROFESSIONAL: AgentKind.PROFESSIONAL_CARER,
    Role.NEED_AMBULANCE: AgentKind.AMBULANCE,
    Role.NEED_INFORMAL: AgentKind.INFORMAL_CARER,
}


class ProtocolKind(KeyEnum):
    CARE_DISPATCH = "care_dispatch"  # professional + ambulance convoy
    VERIFY_VISIT = "verify_visit"  # informal carer checks on the resident


REQUIRED_ROLES: dict[ProtocolKind, tuple[Role, ...]] = {
    ProtocolKind.CARE_DISPATCH: (Role.NEED_PROFESSIONAL, Role.NEED_AMBULANCE),
    ProtocolKind.VERIFY_VISIT: (Role.NEED_INFORMAL,),
}


class InstanceState(KeyEnum):
    READIED = "readied"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELED = "canceled"


TERMINAL_STATES = frozenset({InstanceState.COMPLETED, InstanceState.CANCELED})


class EventKind(KeyEnum):
    FALL_DETECTED = "fall_detected"
    FALL_CONFIRMED = "fall_confirmed"
    FALSE_POSITIVE_CONFIRMED = "false_positive_confirmed"
    ROLE_EXCEPTION = "role_exception"
    CARE_ARRIVED = "care_arrived"
    DISPATCH_CANCELED = "dispatch_canceled"


#: The trace string of each event kind and role, read once here: every
#: ``.value`` read is a Python-level call.
_TRACE_NAME = {member: member.value for enum in (EventKind, Role) for member in enum}


@dataclass(slots=True, eq=False)
class ProtocolInstance:
    """One protocol of one alarm; it compares and hashes by identity."""

    instance_id: int
    kind: ProtocolKind
    # The scenario's case record of the alarm.
    case: object
    # The resident's house.
    target: Position
    state: InstanceState = InstanceState.READIED
    enrolled: list[int] = field(default_factory=list)
    enroll_tick: int = -1
    # Tick the enrolled agents reach the house, fixed at enrollment.
    arrival_tick: int = -1
    # The other protocol of the same alarm: a visit's dispatch and back.
    partner: Optional[ProtocolInstance] = None


_by_id = attrgetter("instance_id")


class CaseOutcome(Enum):
    SERVED = "served"
    CANCELED = "canceled"
    CLOSED_AT_RUN_END = "closed_at_run_end"


def trace_line(record: dict) -> str:
    """One trace record of :meth:`FsoEngine._emit` as its JSONL line.

    The line equals ``json.dumps(record) + "\\n"`` byte for byte. The keys are
    fixed, ``instance`` is an int or None, the other numbers are ints, and
    the event and missing roles are enum values that need no escaping.
    """
    instance, missing = record["instance"], record["missing"]
    roles = '["' + '", "'.join(missing) + '"]' if missing else "[]"
    return (
        f'{{"tick": {record["tick"]}, "case": {record["case"]}, '
        f'"event": "{record["event"]}", "agent": {record["agent"]}, '
        f'"instance": {"null" if instance is None else instance}, '
        f'"missing": {roles}}}\n'
    )


class FsoEngine:
    """Deterministic driver of the coordination protocols for one simulation run.

    Cases are supplied by the scenario layer via :meth:`raise_alarm`; they
    must expose case_id, ea_id, true_fall, raised_tick, and the mutable
    outcome, terminal_tick and waiting_time fields of the scenario's case
    record type. Each instance carries its case. The engine holds only live
    instances and drops an instance once it completes or is canceled.
    """

    def __init__(
        self,
        world: World,
        ledger: CostLedger,
        *,
        dispatch_delay: int,
        count_return_travel: bool,
        trace: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.world = world
        self.ledger = ledger
        self.dispatch_delay = dispatch_delay
        self.count_return_travel = count_return_travel
        self.trace = trace

        self.retry_queue: deque[ProtocolInstance] = deque()
        # Set when an agent becomes enrollable; parked instances wait for it.
        self._freed = False
        # The tick being resolved, or the last one resolved: a leg cancelled
        # between ticks has travelled through it.
        self._now = 0
        # Running instances, filed under their arrival tick.
        self._arrivals: dict[int, list[ProtocolInstance]] = {}
        # Hospital agents heading back to base, each with its release tick,
        # filed under the tick it reaches base.
        self._homecomings: dict[int, list[tuple[AgentState, int]]] = {}
        self._next_instance = 0
        # Candidates: the hospital staff, and the informal carers of the
        # neighbourhood. No other circle holds any. The idle hospital agents
        # are id heaps, one per kind; all start idle, and an ascending id
        # list is a heap.
        self._professionals = list(world.professional_ids)
        self._ambulances = list(world.ambulance_ids)
        self._idle = {
            AgentKind.PROFESSIONAL_CARER: self._professionals,
            AgentKind.AMBULANCE: self._ambulances,
        }
        self._carers = [world.agents[i] for i in world.informal_ids]
        # A coordinator is only an id that names its circle in the trace.
        # Ids follow the roster: the hospital, the neighbourhood (only with
        # carers), then one per house in resident order.
        top = self.hospital_coordinator = len(world.agents)
        self.neighbourhood_coordinator: Optional[int] = None
        above_house = {ProtocolKind.CARE_DISPATCH: (top,)}
        first_house = top + 1
        if world.informal_ids:
            middle = self.neighbourhood_coordinator = first_house
            first_house += 1
            above_house = {
                ProtocolKind.CARE_DISPATCH: (middle, top),
                ProtocolKind.VERIFY_VISIT: (middle,),
            }
        # Per resident, the coordinators each protocol of an alarm climbs,
        # in launch order; the last one's circle holds the candidates.
        self.ladders: dict[int, dict[ProtocolKind, tuple[int, ...]]] = {
            eid: {kind: (house, *rest) for kind, rest in above_house.items()}
            for house, eid in enumerate(world.elderly_ids, first_house)
        }

    @property
    def active(self) -> list[ProtocolInstance]:
        """The running instances, in no particular order."""
        return [instance for due in self._arrivals.values() for instance in due]

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
        # The record's keys and value types are what trace_line formats.
        if self.trace is not None:
            self.trace(
                {
                    "tick": tick,
                    "case": case,
                    "event": _TRACE_NAME[kind],
                    "agent": agent,
                    "instance": instance,
                    "missing": [_TRACE_NAME[r] for r in missing],
                }
            )

    # -- alarm intake --------------------------------------------------------

    def raise_alarm(self, case, device_id: int, tick: int) -> None:
        """Take a fresh alarm case and ready its protocols in the house circle.

        Both protocols are readied before either is launched; this order
        fixes the instance ids that appear in the trace.
        """
        self.ledger.treated_cases += 1
        resident = self.world.agents[case.ea_id]
        resident.pending_case = case.case_id
        self._emit(EventKind.FALL_DETECTED, device_id, case.case_id, tick)
        ladders = self.ladders[case.ea_id]
        first = self._next_instance
        readied = [
            ProtocolInstance(first + offset, kind, case, resident.position)
            for offset, kind in enumerate(ladders)
        ]
        self._next_instance += len(readied)
        if len(readied) == 2:
            dispatch, visit = readied
            dispatch.partner, visit.partner = visit, dispatch
        for instance in readied:
            self._launch(instance, ladders[instance.kind], tick)

    def _launch(
        self, instance: ProtocolInstance, ladder: tuple[int, ...], tick: int
    ) -> None:
        """Escalate up the ladder; enroll at its top or park there for retry.

        No circle below the last holds a candidate, so each of their
        coordinators reports every required role missing.
        """
        for coordinator in ladder[:-1]:
            self._emit(
                EventKind.ROLE_EXCEPTION,
                coordinator,
                instance.case.case_id,
                tick,
                REQUIRED_ROLES[instance.kind],
                instance.instance_id,
            )
        missing = self.try_enroll(instance, tick)
        if missing:
            self._emit(
                EventKind.ROLE_EXCEPTION,
                ladder[-1],
                instance.case.case_id,
                tick,
                missing,
                instance.instance_id,
            )
            self.retry_queue.append(instance)

    # -- enrollment ----------------------------------------------------------

    def try_enroll(self, instance: ProtocolInstance, tick: int) -> list[Role]:
        """Bind every required role or report the missing ones.

        A hospital role takes the lowest idle id of its kind; every idle
        hospital agent stands at the hospital, so a travel-time ranking
        would tie. A carer role takes the nearest walking carer by travel
        time to the resident's house, ties broken by lowest id. Nothing is
        bound unless every role can be filled; the missing roles come in
        ``REQUIRED_ROLES`` order.
        """
        if instance.state in TERMINAL_STATES:
            raise ValueError("cannot enroll a terminal protocol instance")
        target = instance.target
        if instance.kind is ProtocolKind.CARE_DISPATCH:
            professionals, ambulances = self._professionals, self._ambulances
            if not (professionals and ambulances):
                pools = zip(REQUIRED_ROLES[instance.kind], (professionals, ambulances))
                return [role for role, pool in pools if not pool]
            chosen = [heappop(professionals), heappop(ambulances)]
        else:
            carer = self._nearest_walking_carer(target)
            if carer is None:
                return [Role.NEED_INFORMAL]
            chosen = [carer.id]

        agents = self.world.agents
        instance.enrolled = chosen
        instance.enroll_tick = tick
        instance.state = InstanceState.RUNNING
        distance = max(chebyshev(agents[a].position, target) for a in chosen)
        if distance:
            instance.arrival_tick = tick + self._delay(instance) + distance
        else:
            # Agents already at the house arrive on the next tick, at no cost.
            instance.arrival_tick = tick + 1
        self._arrivals.setdefault(instance.arrival_tick, []).append(instance)
        for agent_id in chosen:
            agents[agent_id].status = AgentStatus.ENROLLED_TRAVELING
        return []

    def _nearest_walking_carer(self, target: Position) -> Optional[AgentState]:
        """The walking carer with the fewest travel ticks to target, then lowest id."""
        speed = self.world.config.speed
        walking = AgentStatus.RANDOM_WALKING
        tx, ty = target
        best: Optional[AgentState] = None
        best_ticks = 0
        # Carers are in id order, so a strict improvement keeps the lowest id.
        for carer in self._carers:
            if carer.status is walking:
                x, y = carer.position
                ticks = -(-max(abs(x - tx), abs(y - ty)) // speed)
                if best is None or ticks < best_ticks:
                    best, best_ticks = carer, ticks
        return best

    def _delay(self, instance: ProtocolInstance) -> int:
        """Mobilization ticks before the enrolled agents start to move."""
        return self.dispatch_delay if instance.kind is ProtocolKind.CARE_DISPATCH else 0

    # -- cancellation and release --------------------------------------------

    def cancel_protocol(
        self, instance: ProtocolInstance, through: Optional[int] = None
    ) -> None:
        """Abort a non-terminal instance, freeing its agents.

        The enrolled agents are charged and placed for their leg through tick
        ``through``, by default the tick being resolved. Carers resume their
        walk immediately; hospital agents head back to base and become
        enrollable again on arrival. Terminal instances are left untouched.
        """
        if instance.state in TERMINAL_STATES:
            return
        if instance.state is InstanceState.READIED:
            # Outside _launch a readied instance is always parked.
            self.retry_queue.remove(instance)
        else:
            # The due list of the tick being resolved is already taken out.
            due = self._arrivals.get(instance.arrival_tick)
            if due is not None:
                due.remove(instance)
            self._settle(instance, self._now if through is None else through)
            for agent_id in instance.enrolled:
                self._release(self.world.agents[agent_id])
        instance.enrolled = []
        instance.state = InstanceState.CANCELED

    def _release(self, agent: AgentState) -> None:
        """Unbind an enrolled carer or hospital agent."""
        if agent.kind is AgentKind.INFORMAL_CARER:
            self._free(agent, AgentStatus.RANDOM_WALKING)
        elif agent.position == agent.base:
            self._free(agent, AgentStatus.IDLE)
        else:
            agent.status = AgentStatus.RETURNING_TO_BASE
            home = self._now + chebyshev(agent.position, agent.base)
            self._homecomings.setdefault(home, []).append((agent, self._now))

    def _free(self, agent: AgentState, status: AgentStatus) -> None:
        """Make an agent enrollable again, which lets parked instances retry."""
        agent.status = status
        if status is AgentStatus.IDLE:
            heappush(self._idle[agent.kind], agent.id)
        self._freed = True

    # -- travel --------------------------------------------------------------

    def _settle(self, instance: ProtocolInstance, through: int) -> None:
        """Charge and place the enrolled agents for their leg through a tick.

        While any of them is away from the house, every agent is charged each
        tick after enrollment, mobilization included, and moves one cell per
        tick once the delay is over. Agents that start at the house cost
        nothing.
        """
        agents = [self.world.agents[a] for a in instance.enrolled]
        target = instance.target
        ticks = through - instance.enroll_tick
        if ticks <= 0 or all(agent.position == target for agent in agents):
            return
        moves = ticks - self._delay(instance)
        for agent in agents:
            self.ledger.add_cost(agent.kind, ticks)
            if moves > 0:
                step_toward(agent, target, moves)

    def _go_home(self, agent: AgentState, ticks: int) -> None:
        """Charge and place a returning agent for ``ticks`` ticks of its way back."""
        if self.count_return_travel:
            self.ledger.add_cost(agent.kind, ticks)
        step_toward(agent, agent.base, ticks)

    # -- per-tick driving ----------------------------------------------------

    def tick_protocols(self, tick: int) -> None:
        """Free agents reaching base, resolve due arrivals, retry parked ones.

        Call it once for every tick, in order: a leg is looked at only on
        its end tick.
        """
        self._now = tick
        for agent, released in self._homecomings.pop(tick, ()):
            self._go_home(agent, tick - released)
            self._free(agent, AgentStatus.IDLE)
        due = self._arrivals.pop(tick, None)
        if due:
            due.sort(key=_by_id)
            # Verification visits resolve before the convoy on ties, so a
            # carer reaching the house the same tick as the ambulance does
            # the check; a false alarm then cancels the convoy.
            for instance in due:
                if instance.kind is ProtocolKind.VERIFY_VISIT:
                    self._on_verifier_arrival(instance, tick)
            for instance in due:
                if (
                    instance.kind is ProtocolKind.CARE_DISPATCH
                    and instance.state is InstanceState.RUNNING
                ):
                    self._on_convoy_arrival(instance, tick)
        if self._freed:
            self._retry_parked(tick)

    def _on_verifier_arrival(self, instance: ProtocolInstance, tick: int) -> None:
        case = instance.case
        carer = self.world.agents[instance.enrolled[0]]
        self._settle(instance, tick)
        self.ledger.v_informal += 1
        self._record_waiting(case, tick)
        instance.state = InstanceState.COMPLETED
        instance.enrolled = []
        self._release(carer)
        if case.true_fall:
            self._emit(EventKind.FALL_CONFIRMED, carer.id, case.case_id, tick)
            return
        # The neighbourhood relays the confirmed false alarm to the hospital,
        # whose coordinator takes it at once and cancels the dispatch. The
        # relay and the cancel never wait, so each is only an instance id:
        # the relay's appears in the trace, the cancel's in no record.
        self._emit(EventKind.FALSE_POSITIVE_CONFIRMED, carer.id, case.case_id, tick)
        self._emit(
            EventKind.ROLE_EXCEPTION,
            self.neighbourhood_coordinator,
            case.case_id,
            tick,
            (Role.NEED_TOP_COORDINATOR,),
            self._next_instance,
        )
        self._next_instance += 2
        dispatch = instance.partner
        # Convoys resolve after visits, so this one has moved through the
        # previous tick only.
        self.cancel_protocol(dispatch, through=tick - 1)
        self._close_case(case, CaseOutcome.CANCELED, tick)
        self._emit(
            EventKind.DISPATCH_CANCELED,
            self.hospital_coordinator,
            case.case_id,
            tick,
            instance=dispatch.instance_id,
        )

    def _on_convoy_arrival(self, instance: ProtocolInstance, tick: int) -> None:
        case = instance.case
        self._settle(instance, tick)
        if case.true_fall:
            self.ledger.interventions += 1
        else:
            self.ledger.v_ambulance += 1
        self._record_waiting(case, tick)
        self._emit(
            EventKind.CARE_ARRIVED,
            instance.enrolled[0],
            case.case_id,
            tick,
            instance=instance.instance_id,
        )
        if instance.partner is not None:
            self.cancel_protocol(instance.partner)
        for agent_id in instance.enrolled:
            self._release(self.world.agents[agent_id])
        instance.enrolled = []
        instance.state = InstanceState.COMPLETED
        self._close_case(case, CaseOutcome.SERVED, tick)

    def _retry_parked(self, tick: int) -> None:
        """Retry parked instances in FIFO order; called once an agent is freed.

        A parked instance failed because some role had no free candidate,
        and no candidate becomes free except where ``_freed`` is set. A
        retry skipped in between would have failed, and a failed retry
        emits nothing and keeps the queue order.
        """
        self._freed = False
        pending = len(self.retry_queue)
        for _ in range(pending):
            instance = self.retry_queue.popleft()
            if self.try_enroll(instance, tick):
                self.retry_queue.append(instance)

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
        """Cancel every live instance and close its case if still open.

        A case stays open only while its dispatch is live, so this closes
        every open case. Agents still on their way back to base are charged
        and placed for the part of the way they covered by ``final_tick``.
        """
        self._now = final_tick
        for instance in sorted([*self.active, *self.retry_queue], key=_by_id):
            self.cancel_protocol(instance)
            if instance.case.terminal_tick is None:
                self._close_case(instance.case, CaseOutcome.CLOSED_AT_RUN_END, final_tick)
        for homecoming in self._homecomings.values():
            for agent, released in homecoming:
                if final_tick > released:
                    self._go_home(agent, final_tick - released)
        self._homecomings.clear()

    # -- invariant audit -----------------------------------------------------

    def audit(self) -> None:
        """Assert cross-cutting safety invariants; used by tests."""
        for instance in self.retry_queue:
            assert instance.state is InstanceState.READIED, (
                f"queued instance {instance.instance_id} is not readied"
            )
        bound: dict[int, int] = {}
        for instance in self.active:
            assert instance.state is InstanceState.RUNNING, (
                f"active instance {instance.instance_id} is not running"
            )
            assert instance.arrival_tick > self._now, (
                f"instance {instance.instance_id} is due at {instance.arrival_tick}, "
                f"after tick {self._now} was resolved"
            )
            roles = REQUIRED_ROLES[instance.kind]
            assert len(instance.enrolled) == len(roles), (
                f"instance {instance.instance_id} holds {instance.enrolled} for {roles}"
            )
            for role, agent_id in zip(roles, instance.enrolled):
                agent = self.world.agents[agent_id]
                expected = ROLE_KIND[role]
                assert agent.kind is expected, (
                    f"agent {agent_id} of kind {agent.kind} bound to role {role}"
                )
                assert agent_id not in bound, f"agent {agent_id} enrolled twice"
                bound[agent_id] = instance.instance_id
        for agent in self.world.agents.values():
            traveling = agent.status is AgentStatus.ENROLLED_TRAVELING
            assert traveling == (agent.id in bound), (
                f"agent {agent.id} is {agent.status.value} but bound to {bound.get(agent.id)}"
            )
            assert self.world.in_bounds(agent.position), f"agent {agent.id} out of bounds"
        for kind, pool in self._idle.items():
            idle = [
                agent.id
                for agent in self.world.agents.values()
                if agent.kind is kind and agent.status is AgentStatus.IDLE
            ]
            assert sorted(pool) == idle, f"idle {kind.value} pool {sorted(pool)}, idle {idle}"
            for agent_id in pool:
                agent = self.world.agents[agent_id]
                assert agent.position == agent.base, f"idle agent {agent_id} is off base"
