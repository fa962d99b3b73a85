"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria run the real simulator at default parameters, so
this module is the slow part of the suite (several minutes on one core).
Expensive run collections are shared through module-scoped fixtures:

* ``s1_baseline`` / ``s2_baseline`` — 20 independent X=0 runs per scenario
  (criteria 1, 2, 4, 6);
* ``s1_sweeps`` / ``s2_sweeps`` — 10 independent sweep repetitions over
  X in {0, 10, 20, 40} with 10 replications each (criteria 3 and 4).
  The trend assertions only reference those four axis points, so the other
  axis values are skipped; criterion 8 still exercises one full nine-point
  sweep. These sweeps run on up to four worker processes. Every cell has its
  own derived seed, so the results do not depend on the worker count.
"""
import math
import os
import time

import pytest

from fallsim.metrics import (
    fmt_per_case,
    fmt_percent,
    fmt_rate,
    fp_rate,
    normalized_sc,
    normalized_wt,
    sensitivity,
    specificity,
)
from fallsim.scenario import Scenario, ScenarioConfig, Simulation, run_simulation
from fallsim.sweep import SweepSpec, run_sweep
from fallsim.world import SensorModel, WorldConfig

BASELINE_SEEDS = 20
SWEEP_X_VALUES = (0, 10, 20, 40)
SWEEP_REPETITIONS = 10


@pytest.fixture
def announce(record_property):
    """Record a ``[criterion N] name: PASS/FAIL (detail)`` line for the test.

    ``tests/conftest.py`` prints the recorded lines in the terminal summary,
    which output capture does not swallow.
    """

    def _announce(number: int, name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        record_property("criterion", (number, f"[criterion {number}] {name}: {verdict} ({detail})"))

    return _announce


def _baseline(scenario: Scenario):
    start = time.perf_counter()
    reports = [
        run_simulation(ScenarioConfig(scenario=scenario, n_informal=0, seed=seed)).to_dict()
        for seed in range(BASELINE_SEEDS)
    ]
    return reports, time.perf_counter() - start


def _sweeps(scenario: Scenario):
    return [
        run_sweep(
            SweepSpec(
                scenario=scenario,
                x_values=SWEEP_X_VALUES,
                replications=10,
                base_seed=base_seed,
                jobs=min(4, os.cpu_count() or 1),
            )
        )
        for base_seed in range(SWEEP_REPETITIONS)
    ]


@pytest.fixture(scope="module")
def s1_baseline():
    return _baseline(Scenario.SINGLE_DETECTOR)


@pytest.fixture(scope="module")
def s2_baseline():
    return _baseline(Scenario.DUAL_DETECTOR)


@pytest.fixture(scope="module")
def s1_sweeps():
    return _sweeps(Scenario.SINGLE_DETECTOR)


@pytest.fixture(scope="module")
def s2_sweeps():
    return _sweeps(Scenario.DUAL_DETECTOR)


def _mean(reports, field):
    return sum(r[field] for r in reports) / len(reports)


def _agg_mean(sweep, x, field):
    row = next(r for r in sweep.aggregates if r.x == x)
    return row.stats[field]["mean"]


def test_criterion_1_single_detector_ratios(s1_baseline, announce):
    reports, elapsed = s1_baseline
    mean_fp_rate = _mean(reports, "fp_rate")
    mean_sens = _mean(reports, "sensitivity")
    mean_spec = _mean(reports, "specificity")
    ok = (
        0.57 <= mean_fp_rate <= 0.63
        and 76.0 <= mean_sens <= 84.0
        and 99.7 <= mean_spec <= 99.9
        and elapsed < 30.0
    )
    announce(
        1,
        "single-detector baseline ratios",
        ok,
        f"fp_rate={mean_fp_rate:.4f} sensitivity={mean_sens:.2f} "
        f"specificity={mean_spec:.2f} runtime={elapsed:.1f}s",
    )
    assert 0.57 <= mean_fp_rate <= 0.63
    assert 76.0 <= mean_sens <= 84.0
    assert 99.7 <= mean_spec <= 99.9
    assert elapsed < 30.0


def test_criterion_2_dual_detector_ratios(s2_baseline, announce):
    reports, elapsed = s2_baseline
    mean_fp_rate = _mean(reports, "fp_rate")
    mean_sens = _mean(reports, "sensitivity")
    mean_spec = _mean(reports, "specificity")
    ok = (
        0.68 <= mean_fp_rate <= 0.75
        and 94.0 <= mean_sens <= 98.0
        and 99.5 <= mean_spec <= 99.7
    )
    announce(
        2,
        "dual-detector baseline ratios",
        ok,
        f"fp_rate={mean_fp_rate:.4f} sensitivity={mean_sens:.2f} "
        f"specificity={mean_spec:.2f} runtime={elapsed:.1f}s",
    )
    assert 0.68 <= mean_fp_rate <= 0.75
    # Analytic detector-composition value (96%); the published average
    # diverges from its own pseudo-code here and is not matched.
    assert 94.0 <= mean_sens <= 98.0
    assert 99.5 <= mean_spec <= 99.7


def _trend_holds(sweep, wt_factor):
    sc0 = _agg_mean(sweep, 0, "normalized_sc_ambulance")
    sc20 = _agg_mean(sweep, 20, "normalized_sc_ambulance")
    wt0 = _agg_mean(sweep, 0, "normalized_wt")
    wt10 = _agg_mean(sweep, 10, "normalized_wt")
    wt40 = _agg_mean(sweep, 40, "normalized_wt")
    cost_drop = sc20 <= 0.75 * sc0
    wait_drop = wt10 <= wt0 / wt_factor
    diminishing = (wt10 - wt40) < 0.6 * (wt0 - wt10)
    return cost_drop and wait_drop and diminishing


def test_criterion_3_sweep_trends(s1_sweeps, s2_sweeps, announce):
    s1_hits = sum(_trend_holds(sweep, wt_factor=4) for sweep in s1_sweeps)
    s2_hits = sum(_trend_holds(sweep, wt_factor=6) for sweep in s2_sweeps)
    ok = s1_hits >= 9 and s2_hits >= 9
    announce(
        3,
        "carer-sweep cost/wait trends",
        ok,
        f"s1 {s1_hits}/{len(s1_sweeps)} repetitions, "
        f"s2 {s2_hits}/{len(s2_sweeps)} repetitions",
    )
    assert s1_hits >= 9
    assert s2_hits >= 9


def test_criterion_4_verification_shift(s1_baseline, s1_sweeps, announce):
    reports, _ = s1_baseline
    no_carer_ok = all(r["v_informal"] == 0 for r in reports) and all(
        r["v_ambulance"] > 0 for r in reports
    )
    # Mean ambulance verifications per run, over all repetitions, at each
    # high axis point.
    per_x_means = {
        x: sum(_agg_mean(sweep, x, "v_ambulance") for sweep in s1_sweeps) / len(s1_sweeps)
        for x in (20, 40)
    }
    ok = no_carer_ok and all(m <= 2.0 for m in per_x_means.values())
    announce(
        4,
        "verification shifts from ambulances to carers",
        ok,
        f"V(IC)=0 and V(MA)>0 at X=0: {no_carer_ok}; "
        + "; ".join(f"mean V(MA) at X={x}: {m:.2f}" for x, m in per_x_means.items()),
    )
    assert no_carer_ok
    assert all(m <= 2.0 for m in per_x_means.values())


def test_criterion_5_sensor_composition_oracles(announce):
    """Monte Carlo oracles of detector composition, read off full runs.

    With p_fall = 1 every toss is a fall, so TP / (TP + FN) is the per-fall
    alarm rate; with p_fall = 0 none is, so FP / (FP + TN) is the per-tick
    phantom rate. n is the number of tosses the run made. The alarm runs use
    a 5x5 grid holding 24 houses and a convoy for every alarm, so residents
    are tossed again soon after raising one.
    """
    sensor = SensorModel(p_false_negative=1 / 5, p_false_positive=1 / 500)
    quick_turnaround = WorldConfig(
        half_width=2, half_height=2, n_elderly=24, n_professional=40, n_ambulances=40
    )
    s1, s2 = Scenario.SINGLE_DETECTOR, Scenario.DUAL_DETECTOR
    checks = []
    for label, scenario, p_fall, p in [
        ("s1 alarm", s1, 1.0, 1 - 1 / 5),
        ("s2 alarm", s2, 1.0, 1 - (1 / 5) ** 2),
        ("s1 phantom", s1, 0.0, 1 / 500),
        ("s2 phantom", s2, 0.0, 1 - (499 / 500) ** 2),
    ]:
        if p_fall:
            config = ScenarioConfig(
                scenario=scenario, p_fall=p_fall, sensor=sensor, world=quick_turnaround,
                ticks=2_000, dispatch_delay=0, seed=2024,
            )
        else:
            config = ScenarioConfig(scenario=scenario, p_fall=p_fall, sensor=sensor, seed=2024)
        r = run_simulation(config).to_dict()
        hits, n = (r["tp"], r["tp"] + r["fn"]) if p_fall else (r["fp"], r["fp"] + r["tn"])
        sigma = math.sqrt(n * p * (1 - p))
        checks.append((label, hits, n * p, 3 * sigma, abs(hits - n * p) <= 3 * sigma))
    ok = all(c[-1] for c in checks)
    announce(
        5,
        "detector-composition Monte Carlo oracles",
        ok,
        "; ".join(f"{label} {hits} vs {expect:.0f}±{bound:.0f}" for label, hits, expect, bound, _ in checks),
    )
    for label, hits, expect, bound, good in checks:
        assert good, f"{label}: {hits} outside {expect:.0f}±{bound:.0f}"


def test_criterion_6_invariants(s1_baseline, s2_baseline, announce):
    problems = []
    for reports, _ in (s1_baseline, s2_baseline):
        for r in reports:
            if r["treated_cases"] != r["fp"] + r["tp"]:
                problems.append("case total != FP+TP")
    # Audited run with carers: enrollment, level, and release invariants are
    # asserted inside the engine every 250 ticks; case lifecycle checked here.
    sim = Simulation(ScenarioConfig(n_informal=10, ticks=4_000, seed=17))
    sim.run(audit_every=250)
    for case in sim.cases:
        if case.outcome is None or case.terminal_tick is None:
            problems.append(f"case {case.case_id} not terminal")
    # Bitwise reproducibility of a full default run.
    config = ScenarioConfig(scenario=Scenario.DUAL_DETECTOR, n_informal=10, seed=3)
    if run_simulation(config).csv_row() != run_simulation(config).csv_row():
        problems.append("rerun not byte-identical")
    ok = not problems
    announce(6, "structural invariant suite", ok, problems[0] if problems else "all invariants hold")
    assert not problems


def test_criterion_7_metric_formula_goldens(announce):
    checks = [
        (fmt_percent(sensitivity(195, 56)), "77.68"),
        (fmt_percent(sensitivity(221, 74)), "74.91"),
        (fmt_percent(specificity(147313, 299)), "99.79"),
        (fmt_percent(specificity(103699, 418)), "99.59"),
        (fmt_rate(fp_rate(299, 195)), "0.6052"),
        (fmt_rate(fp_rate(418, 178)), "0.7013"),
        (fmt_per_case(normalized_sc(33720, 494)), "68.259"),
        (fmt_per_case(normalized_sc(38819, 596)), "65.133"),
        (fmt_per_case(normalized_wt(58617, 494)), "118.658"),
        (fmt_per_case(normalized_wt(121316, 596)), "203.550"),
    ]
    ok = all(got == want for got, want in checks)
    announce(
        7,
        "derived-metric table goldens",
        ok,
        f"{sum(got == want for got, want in checks)}/{len(checks)} cells exact",
    )
    for got, want in checks:
        assert got == want


def test_criterion_8_performance(announce):
    config = ScenarioConfig(n_informal=40, seed=0)
    start = time.perf_counter()
    run_simulation(config)
    single = time.perf_counter() - start

    start = time.perf_counter()
    run_sweep(SweepSpec(scenario=Scenario.SINGLE_DETECTOR, replications=10, base_seed=0))
    sweep = time.perf_counter() - start

    ok = single < 1.0 and sweep < 120.0
    announce(
        8,
        "runtime budget",
        ok,
        f"40-carer run {single:.2f}s (<1s); 9x10 sweep {sweep:.1f}s (<120s)",
    )
    assert single < 1.0
    assert sweep < 120.0
