"""Seedable multi-agent simulator of a tiered telecare community that
detects, verifies, and responds to falls of elderly residents."""

from .fso import CaseOutcome, FsoEngine, InstanceState, ProtocolInstance, ProtocolKind, Role
from .metrics import (
    ConfusionCounters,
    CostLedger,
    MetricsReport,
    UndefinedMetricError,
    avg_per_tick,
    fn_rate,
    fp_rate,
    normalized_sc,
    normalized_wt,
    sensitivity,
    specificity,
)
from .scenario import (
    CaseRecord,
    Scenario,
    ScenarioConfig,
    Simulation,
    run_simulation,
)
from .sweep import SweepSpec, derive_seed, run_sweep
from .world import (
    AgentKind,
    AgentState,
    AgentStatus,
    ConfigurationError,
    Position,
    SensorModel,
    World,
    WorldConfig,
    step_toward,
    travel_time,
)

__all__ = [name for name in dir() if not name.startswith("_")]
