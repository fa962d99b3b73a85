"""Seedable multi-agent simulator of a tiered telecare community that
detects, verifies, and responds to falls of elderly residents."""

# The benchmark's span tracer reads these modules as package attributes.
from . import fso, metrics, scenario, world
from .scenario import Scenario, ScenarioConfig, run_simulation
from .world import WorldConfig

__all__ = ["Scenario", "ScenarioConfig", "WorldConfig", "run_simulation"]
