"""Experiment sweeps over the informal-carer count, with replications.

Every (x value, replication) cell gets its own seed derived with a keyed
hash of (base seed, scenario tag, x index, replication index), so cells are
independent, reproducible, and safe to run in parallel.
"""
from __future__ import annotations

import csv
import hashlib
import json
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

from .metrics import REPORT_COLUMNS, MetricsReport, emit_csv
from .scenario import Scenario, ScenarioConfig, config_to_dict, run_simulation
from .world import ConfigurationError

DEFAULT_X_VALUES = tuple(range(0, 45, 5))

#: Report fields aggregated across replications: the report row's figures.
AGGREGATED_FIELDS = [key for _, key, _ in REPORT_COLUMNS]

#: Statistic name -> its value over a field's defined replication values, in
#: the aggregate CSV's column order.
AGGREGATE_STATS = {
    "mean": lambda values: sum(values) / len(values),  # left-to-right by replication
    "std": lambda values: statistics.pstdev(values) if len(values) > 1 else 0.0,
    "min": min,
    "max": max,
}


def derive_seed(base_seed: int, scenario: Scenario, x_index: int, replication: int) -> int:
    """Pure, collision-resistant per-cell seed derivation."""
    key = f"{base_seed}:{scenario.value}:{x_index}:{replication}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class SweepSpec:
    scenario: Scenario = Scenario.SINGLE_DETECTOR
    x_values: tuple[int, ...] = DEFAULT_X_VALUES
    replications: int = 10
    base_seed: int = 0
    base_config: ScenarioConfig = field(default_factory=ScenarioConfig)
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if not self.x_values:
            raise ConfigurationError("x_values must be non-empty")

    def cell_config(self, x_index: int, replication: int) -> ScenarioConfig:
        seed = derive_seed(self.base_seed, self.scenario, x_index, replication)
        return replace(
            self.base_config,
            scenario=self.scenario,
            n_informal=self.x_values[x_index],
            seed=seed,
        )


@dataclass
class AggregateRow:
    x: int
    stats: dict[str, dict[str, float]]  # field -> {stat: value}, see AGGREGATE_STATS


@dataclass
class SweepResult:
    spec: SweepSpec
    reports: list[list[MetricsReport]]  # [x index][replication]
    aggregates: list[AggregateRow]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute every cell and aggregate per x value.

    Cells may run on a process pool; output ordering is by (x, replication)
    regardless of completion order.
    """
    configs = [
        spec.cell_config(i, r)
        for i in range(len(spec.x_values))
        for r in range(spec.replications)
    ]
    # A pool may start all its workers at once, so never ask for more than
    # there are cells.
    workers = min(spec.jobs, len(configs))
    if workers > 1:
        # Imported here so a serial run never loads the pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(run_simulation, configs))
    else:
        flat = [run_simulation(c) for c in configs]
    reports = [
        flat[i * spec.replications : (i + 1) * spec.replications]
        for i in range(len(spec.x_values))
    ]
    aggregates = [
        aggregate(spec.x_values[i], reports[i]) for i in range(len(spec.x_values))
    ]
    return SweepResult(spec=spec, reports=reports, aggregates=aggregates)


def aggregate(x: int, reports: list[MetricsReport]) -> AggregateRow:
    rows = [r.to_dict() for r in reports]
    stats: dict[str, dict[str, float]] = {}
    for name in AGGREGATED_FIELDS:
        values = [row[name] for row in rows if row[name] is not None]
        if not values:
            continue
        stats[name] = {stat: fn(values) for stat, fn in AGGREGATE_STATS.items()}
    return AggregateRow(x=x, stats=stats)


def emit_aggregate_csv(aggregates: list[AggregateRow], path: Path | str) -> None:
    if not aggregates:
        raise ValueError("no rows to serialize")
    header = ["x"]
    for name in AGGREGATED_FIELDS:
        header += [f"{name} {stat}" for stat in AGGREGATE_STATS]
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in aggregates:
            out: list[str] = [str(row.x)]
            for name in AGGREGATED_FIELDS:
                cell = row.stats.get(name)
                if cell is None:
                    out += [""] * len(AGGREGATE_STATS)
                else:
                    out += [repr(cell[s]) for s in AGGREGATE_STATS]
            writer.writerow(out)


def write_outputs(result: SweepResult, out_prefix: Path | str) -> dict[str, Path]:
    """Write raw CSV, aggregate CSV, and a JSON summary next to the prefix."""
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    raw_path = prefix.with_name(prefix.name + "_raw.csv")
    agg_path = prefix.with_name(prefix.name + "_aggregate.csv")
    json_path = prefix.with_name(prefix.name + "_summary.json")
    raw_rows = [report.csv_row() for level in result.reports for report in level]
    emit_csv(raw_rows, raw_path)
    emit_aggregate_csv(result.aggregates, agg_path)
    summary = {
        "scenario": result.spec.scenario.value,
        "x_values": list(result.spec.x_values),
        "replications": result.spec.replications,
        "base_seed": result.spec.base_seed,
        "base_config": config_to_dict(result.spec.base_config),
        "runs": [
            {"x": result.spec.x_values[i], "replication": r, **report.to_dict()}
            for i, level in enumerate(result.reports)
            for r, report in enumerate(level)
        ],
        "aggregates": [{"x": row.x, "stats": row.stats} for row in result.aggregates],
    }
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"raw": raw_path, "aggregate": agg_path, "summary": json_path}
