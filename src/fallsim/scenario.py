"""Per-tick stochastic fall/detector generation and the run driver.

Two deployments are modeled: one detector per resident ("s1"), or two
independent detectors whose alarms are OR-combined and whose misses must
coincide for a fall to go unnoticed ("s2"). Each resident is tossed
independently every tick; a resident with an unresolved alarm produces no
new tosses until the case terminates.
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict
from enum import Enum
from random import Random
from typing import Optional, Callable

from .fso import CaseOutcome, FsoEngine
from .metrics import ConfusionCounters, CostLedger, MetricsReport
from .world import (
    ConfigurationError,
    SensorModel,
    World,
    WorldConfig,
    walk_carers,
)


class Scenario(Enum):
    SINGLE_DETECTOR = "s1"
    DUAL_DETECTOR = "s2"

    @property
    def detectors_per_elderly(self) -> int:
        return 2 if self is Scenario.DUAL_DETECTOR else 1


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario = Scenario.SINGLE_DETECTOR
    n_informal: int = 0
    ticks: int = 10_000
    p_fall: float = 1 / 600
    sensor: SensorModel = field(
        default_factory=lambda: SensorModel(p_false_negative=1 / 5, p_false_positive=1 / 500)
    )
    world: WorldConfig = field(default_factory=WorldConfig)
    seed: int = 0
    # Ticks the hospital convoy spends mobilizing before it starts moving.
    dispatch_delay: int = 5
    count_return_travel: bool = True

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ConfigurationError("ticks must be >= 1")
        if not 0.0 <= self.p_fall <= 1.0:
            raise ConfigurationError("p_fall must be in [0, 1]")
        if self.n_informal < 0:
            raise ConfigurationError("n_informal must be non-negative")
        if self.dispatch_delay < 0:
            raise ConfigurationError("dispatch_delay must be non-negative")


@dataclass(slots=True)
class CaseRecord:
    """One alarm, true or phantom, from raise to terminal outcome."""

    case_id: int
    ea_id: int
    true_fall: bool
    raised_tick: int
    terminal_tick: Optional[int] = None
    outcome: Optional[CaseOutcome] = None
    waiting_time: Optional[int] = None


class Simulation:
    """Mutable state of one run; strictly sequential, seeded, reproducible."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        placement_seed = (
            config.world.placement_seed
            if config.world.placement_seed is not None
            else config.seed
        )
        self.world = World.create(
            config.world,
            Random(placement_seed),
            n_informal=config.n_informal,
            detectors_per_elderly=config.scenario.detectors_per_elderly,
        )
        self.rng = Random(config.seed)
        self.counters = ConfusionCounters()
        self.ledger = CostLedger()
        self.engine = FsoEngine(
            self.world,
            self.ledger,
            dispatch_delay=config.dispatch_delay,
            count_return_travel=config.count_return_travel,
        )
        self.trace_sink = None
        self.cases: list[CaseRecord] = []
        self._device_of: dict[int, int] = {}
        for did in self.world.device_ids:
            self._device_of.setdefault(self.world.agents[did].watches, did)
        self._residents = [self.world.agents[i] for i in self.world.elderly_ids]
        self._informal_agents = [self.world.agents[i] for i in self.world.informal_ids]

    @property
    def trace_sink(self) -> Optional[Callable[[dict], None]]:
        """Receiver of the engine's trace records, or None for an untraced run."""
        return self._trace_sink

    @trace_sink.setter
    def trace_sink(self, sink: Optional[Callable[[dict], None]]) -> None:
        # Without a sink the engine gets no callback, so it builds no records.
        self._trace_sink = sink
        self.engine.trace = None if sink is None else self._trace

    def _trace(self, record: dict) -> None:
        self._trace_sink(record)

    # -- sensing -------------------------------------------------------------

    def _raise_case(self, ea_id: int, true_fall: bool, tick: int) -> None:
        case = CaseRecord(
            case_id=len(self.cases),
            ea_id=ea_id,
            true_fall=true_fall,
            raised_tick=tick,
        )
        self.cases.append(case)
        if true_fall:
            self.counters.tp += 1
        else:
            self.counters.fp += 1
        self.engine.raise_alarm(case, self._device_of[ea_id], tick)

    def sense_tick(self, tick: int) -> None:
        """Toss every resident without a pending alarm.

        One uniform draw decides whether the resident falls. Then each
        detector takes one draw against its miss rate (after a fall) or its
        phantom rate (otherwise). With one detector ("s1") that draw decides.
        With two ("s2") a fall is missed only when both detectors miss, and a
        phantom alarm is raised when either fires; a single alarm is raised
        even when both fire. Both s2 draws are always taken, even when the
        first already decides, so the stream layout does not depend on the
        outcome. A missed fall counts as FN, a quiet tick as TN; an alarm
        raises a case, counted as TP or FP.
        """
        rand = self.rng.random
        p_fall = self.config.p_fall
        p_fn = self.config.sensor.p_false_negative
        p_fp = self.config.sensor.p_false_positive
        dual = self.config.scenario is Scenario.DUAL_DETECTOR
        counters = self.counters
        quiet = 0
        for resident in self._residents:
            if resident.pending_case is not None:
                continue
            if rand() < p_fall:
                if dual:
                    missed = (rand() < p_fn) & (rand() < p_fn)
                else:
                    missed = rand() < p_fn
                if missed:
                    counters.fn += 1
                else:
                    self._raise_case(resident.id, True, tick)
            else:
                if dual:
                    phantom = (rand() < p_fp) | (rand() < p_fp)
                else:
                    phantom = rand() < p_fp
                if phantom:
                    self._raise_case(resident.id, False, tick)
                else:
                    quiet += 1
        counters.tn += quiet

    # -- driving -------------------------------------------------------------

    def step(self, tick: int) -> None:
        self.engine.tick_protocols(tick)
        self.sense_tick(tick)
        self._walk_idle_carers()

    def _walk_idle_carers(self) -> None:
        world = self.config.world
        walk_carers(self._informal_agents, self.rng, world.half_width, world.half_height)

    def run(self, audit_every: int = 0) -> MetricsReport:
        for tick in range(self.config.ticks):
            self.step(tick)
            if audit_every and tick % audit_every == 0:
                self.engine.audit()
        self.engine.finalize(self.config.ticks - 1)
        if audit_every:
            self.engine.audit()
        return self.report()

    def report(self) -> MetricsReport:
        return MetricsReport(
            counters=self.counters,
            ledger=self.ledger,
            ticks=self.config.ticks,
            seed=self.config.seed,
            config=config_to_dict(self.config),
        )


def config_to_dict(config: ScenarioConfig) -> dict:
    d = asdict(config)
    d["scenario"] = config.scenario.value
    return d


def run_simulation(
    config: ScenarioConfig,
    *,
    audit_every: int = 0,
    trace_sink: Optional[Callable[[dict], None]] = None,
) -> MetricsReport:
    """Run one full experiment; deterministic in (config, seed)."""
    sim = Simulation(config)
    sim.trace_sink = trace_sink
    return sim.run(audit_every=audit_every)
