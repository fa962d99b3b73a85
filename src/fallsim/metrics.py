"""Confusion counters, cost/wait ledgers, and the derived report figures.

A report keeps only a run's raw counters and ledgers. Every derived figure
is a pure function of them, computed each time the report is read, and one
table, ``REPORT_COLUMNS``, fixes the row of the reference tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .world import AgentKind


class UndefinedMetricError(ValueError):
    """A ratio was requested with an empty denominator."""


def _require(denominator: int, what: str) -> None:
    if denominator <= 0:
        raise UndefinedMetricError(f"{what} is undefined: empty denominator")


def sensitivity(tp: int, fn: int) -> float:
    """Percentage of true falls that raised an alarm."""
    _require(tp + fn, "sensitivity")
    return 100.0 * tp / (tp + fn)


def specificity(tn: int, fp: int) -> float:
    """Percentage of quiet agent-ticks that stayed quiet."""
    _require(tn + fp, "specificity")
    return 100.0 * tn / (tn + fp)


def fp_rate(fp: int, tp: int) -> float:
    """Fraction of treated cases that were phantom alarms."""
    _require(fp + tp, "fp_rate")
    return fp / (fp + tp)


def fn_rate(fn: int, tn: int) -> float:
    """Missed falls over all quiet-or-missed outcomes."""
    _require(fn + tn, "fn_rate")
    return fn / (fn + tn)


def fp_rate_as_specificity_complement(tn: int, fp: int) -> float:
    """Alternative false-alarm ratio: phantoms over all no-fall ticks.

    This is the complement of specificity; kept distinct from :func:`fp_rate`,
    which divides by treated cases instead.
    """
    _require(tn + fp, "fp_rate_as_specificity_complement")
    return fp / (tn + fp)


def fn_rate_as_sensitivity_complement(tp: int, fn: int) -> float:
    """Alternative miss ratio: missed falls over all true falls."""
    _require(tp + fn, "fn_rate_as_sensitivity_complement")
    return fn / (tp + fn)


def normalized_sc(sum_sc: int, cases: int) -> float:
    """Social cost per treated case."""
    _require(cases, "normalized_sc")
    return sum_sc / cases


def normalized_wt(sum_wt: int, cases: int) -> float:
    """Waiting time per treated case."""
    _require(cases, "normalized_wt")
    return sum_wt / cases


def avg_per_tick(count: int, ticks: int) -> float:
    _require(ticks, "avg_per_tick")
    return count / ticks


# --- display formatting -----------------------------------------------------
# Percentages and rates are truncated to the displayed precision; per-case
# figures are rounded. Both conventions are needed to hit the reference
# figures digit for digit.

def truncate(value: float, places: int) -> float:
    scaled = value * 10**places
    # Guard against float fuzz just below a representable boundary.
    return math.floor(round(scaled, 6)) / 10**places


def fmt_percent(value: float) -> str:
    return f"{truncate(value, 2):.2f}"


def fmt_rate(value: float, places: int = 4) -> str:
    return f"{truncate(value, places):.{places}f}"


def fmt_rate_rounded(value: float, places: int = 5) -> str:
    """Rounded rate display; the reference tables round the FN-rate row."""
    return f"{round(value, places):.{places}f}"


def fmt_per_case(value: float) -> str:
    return f"{round(value, 3):.3f}"


@dataclass
class ConfusionCounters:
    fp: int = 0
    fn: int = 0
    tp: int = 0
    tn: int = 0


@dataclass
class CostLedger:
    sc_by_kind: dict[AgentKind, int] = field(default_factory=dict)
    sum_wt: int = 0
    treated_cases: int = 0
    v_informal: int = 0
    v_ambulance: int = 0
    interventions: int = 0

    def add_cost(self, kind: AgentKind, ticks: int = 1) -> None:
        self.sc_by_kind[kind] = self.sc_by_kind.get(kind, 0) + ticks

    def sc(self, kind: AgentKind) -> int:
        return self.sc_by_kind.get(kind, 0)


def _safe(fn, *args) -> Optional[float]:
    """The figure, or None where its denominator is empty."""
    try:
        return fn(*args)
    except UndefinedMetricError:
        return None


#: The report row, one column of the reference tables per entry: its header,
#: the :meth:`MetricsReport.to_dict` key it shows and that figure's display
#: format. An undefined figure (None) shows as "".
REPORT_COLUMNS = (
    ("FP", "fp", str),
    ("FN", "fn", str),
    ("TP", "tp", str),
    ("TN", "tn", str),
    ("Avg. FP/tick", "avg_fp_per_tick", fmt_rate),
    ("Avg. FN/tick", "avg_fn_per_tick", fmt_rate),
    ("FP rate", "fp_rate", fmt_rate),
    ("FN rate", "fn_rate", fmt_rate_rounded),
    ("Sensitivity", "sensitivity", fmt_percent),
    ("Specificity", "specificity", fmt_percent),
    ("ΣSC(MA)", "sum_sc_ambulance", str),
    ("ΣSC(IC)", "sum_sc_informal", str),
    ("ΣWT", "sum_wt", str),
    ("♯", "treated_cases", str),
    ("V(IC)", "v_informal", str),
    ("V(MA)", "v_ambulance", str),
    ("I(MA)", "interventions", str),
    ("ΣSC(MA)/♯", "normalized_sc_ambulance", fmt_per_case),
    ("ΣWT/♯", "normalized_wt", fmt_per_case),
)

#: Fixed column order of a serialized report row.
CSV_COLUMNS = [header for header, _, _ in REPORT_COLUMNS]


def emit_csv(rows: list[list[str]], path: Path | str) -> None:
    """Write report rows under the fixed header; refuses an empty row list."""
    # Imported here so that importing fallsim never loads csv.
    import csv

    if not rows:
        raise ValueError("no rows to serialize")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


@dataclass
class MetricsReport:
    """The raw counters and ledger of one run; every figure derives from them."""

    counters: ConfusionCounters
    ledger: CostLedger
    ticks: int
    seed: int
    config: dict

    def csv_row(self) -> list[str]:
        """One table-shaped row; counts verbatim, ratios at table precision."""
        record = self.to_dict()
        return [
            "" if record[key] is None else display(record[key])
            for _, key, display in REPORT_COLUMNS
        ]

    def to_dict(self) -> dict:
        """Full-precision structured record (key/value, JSON-serializable)."""
        c, led = self.counters, self.ledger
        return {
            "seed": self.seed,
            "ticks": self.ticks,
            "config": self.config,
            "fp": c.fp,
            "fn": c.fn,
            "tp": c.tp,
            "tn": c.tn,
            "avg_fp_per_tick": _safe(avg_per_tick, c.fp, self.ticks),
            "avg_fn_per_tick": _safe(avg_per_tick, c.fn, self.ticks),
            "fp_rate": _safe(fp_rate, c.fp, c.tp),
            "fn_rate": _safe(fn_rate, c.fn, c.tn),
            "sensitivity": _safe(sensitivity, c.tp, c.fn),
            "specificity": _safe(specificity, c.tn, c.fp),
            "fp_rate_as_specificity_complement": _safe(
                fp_rate_as_specificity_complement, c.tn, c.fp
            ),
            "fn_rate_as_sensitivity_complement": _safe(
                fn_rate_as_sensitivity_complement, c.tp, c.fn
            ),
            "sum_sc_ambulance": led.sc(AgentKind.AMBULANCE),
            "sum_sc_professional": led.sc(AgentKind.PROFESSIONAL_CARER),
            "sum_sc_informal": led.sc(AgentKind.INFORMAL_CARER),
            "sum_wt": led.sum_wt,
            "treated_cases": led.treated_cases,
            "v_informal": led.v_informal,
            "v_ambulance": led.v_ambulance,
            "interventions": led.interventions,
            "normalized_sc_ambulance": _safe(
                normalized_sc, led.sc(AgentKind.AMBULANCE), led.treated_cases
            ),
            "normalized_wt": _safe(normalized_wt, led.sum_wt, led.treated_cases),
        }
