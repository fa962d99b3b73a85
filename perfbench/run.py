"""fallsim benchmark: end-to-end and per-layer figures of default runs.

    python3 perfbench/run.py --workload walk_s1_x40 --seed 0 --seconds 40 --trace 0

Each pass runs CELLS_PER_PASS default 10 000-tick cells in a fresh
interpreter (``worker.py``), one pass at a time; a new pass starts only if
the last one would still fit in ``--seconds`` (the first always runs).
``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` alternates an untraced and a traced pass over the same cells
and reports the per-layer metrics of the traced ones. Every cell's output
is checked (see ``workloads.check_cell``); a failed cell counts in
``failed`` and its pass is left out of the timings. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload in turn,
both untraced and traced, and prints every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import (
    BENCH_DIR,
    CELLS_PER_PASS,
    CYCLE_PASSES,
    DEFAULT_BASE_SEED,
    DEFAULT_TICKS,
    LAYOUT_SEEDS,
    ROOT,
    SRC,
    WORKLOADS,
    cell_seed,
    check_cell,
    load_pins,
)

OUT = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"
PASS_TIMEOUT_S = 90

#: name -> unit, in the order they are printed.
END_TO_END = {
    "wall_s": "s",
    "sim_ticks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "scenario.init_s": "s",
    "scenario.sense_s": "s",
    "scenario.walk_s": "s",
    "scenario.walk_steps": "count",
    "scenario.other_s": "s",
    "fso.tick_protocols_s": "s",
    "fso.try_enroll_s": "s",
    "fso.try_enroll_calls": "count",
    "fso.enroll_hit_ratio": "ratio",
    "fso.retry_depth_mean": "count",
    "fso.raise_alarm_s": "s",
    "fso.raise_alarm_calls": "count",
    "fso.trace_s": "s",
    "fso.trace_records": "count",
    "fso.finalize_s": "s",
    "world.step_toward_s": "s",
    "world.step_toward_calls": "count",
    "metrics.report_s": "s",
    "cli.self_s": "s",
    "cli.trace_bytes": "bytes",
    "trace.run_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.hook_s": "s",
}


# -- one pass -----------------------------------------------------------------


def run_pass(workload: str, seeds: list[int], ticks: int, traced: bool) -> dict:
    """Run one pass in a fresh interpreter; return its figures and cells."""
    pass_dir = OUT / workload / "pass"
    shutil.rmtree(pass_dir, ignore_errors=True)
    result_path = OUT / workload / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {
        "workload": workload,
        "seeds": seeds,
        "ticks": ticks,
        "traced": traced,
        "out_dir": str(pass_dir),
        "result": str(result_path),
    }
    cmd = [sys.executable, str(WORKER), WORKLOADS[workload].via, json.dumps(spec)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
        error = None if proc.returncode == 0 else f"worker exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"pass exceeded {PASS_TIMEOUT_S} s"
    if error is None and not result_path.is_file():
        error = "worker wrote no result"
    if error is not None:
        cells = [{"seed": s, "ticks": ticks, "error": error} for s in seeds]
        return {"traced": traced, "cells": cells, "timed": False}
    r = json.loads(result_path.read_text(encoding="utf-8"))
    return {
        "traced": traced,
        "cells": r["cells"],
        "timed": True,
        "wall_s": r["t_end"] - t0,
        "sim_ticks_per_s": r["ticks"] / sum(r["run_s"]) if r["run_s"] else 0.0,
        "setup_s": r["import_s"] + sum(r["init_s"]),
        "peak_rss_mb": r["maxrss_kb"] / 1024,
        "layers": r["layers"],
    }


# -- one workload -------------------------------------------------------------


def measure(workload, base_seed, seconds, traced, ticks, pins, cells_per_pass=CELLS_PER_PASS):
    """Run passes while they fit in ``seconds``; check every cell."""
    t_start = time.monotonic()
    records = []
    k = 0
    while True:
        seeds = [cell_seed(base_seed, workload, k, j) for j in range(cells_per_pass)]
        t0 = time.monotonic()
        plain = run_pass(workload, seeds, ticks, traced=False)
        records.append(plain)
        if traced:
            rec = run_pass(workload, seeds, ticks, traced=True)
            for a, b in zip(plain["cells"], rec["cells"]):
                if a.get("error") or b.get("error"):
                    continue
                for key in ("row_sha256", "trace_sha256"):
                    if a.get(key) != b.get(key):
                        b["error"] = f"traced run differs from untraced run in {key}"
            records.append(rec)
        k += 1
        now = time.monotonic()
        if now + (now - t0) > t_start + seconds:
            break
    attempted = failed = 0
    problems = []
    for rec in records:
        rec["failed"] = 0
        for cell in rec["cells"]:
            attempted += 1
            found = check_cell(workload, cell, pins)
            if found:
                failed += 1
                rec["failed"] += 1
                problems.append(f"seed {cell['seed']}: {'; '.join(found)}")
    return records, attempted, failed, problems


def median_of(records, key):
    values = [r[key] for r in records]
    return statistics.median(values), values


def end_to_end_metrics(records):
    plain = timing_records(records, traced=False)
    return {name: median_of(plain, name) for name in END_TO_END}


def per_layer_metrics(records):
    traced = timing_records(records, traced=True)
    layers = [r["layers"] for r in traced]
    out = {name: median_of(layers, name) for name in PER_LAYER if name in layers[0]}
    out["trace.wall_s"] = median_of(traced, "wall_s")
    untraced_wall = median_of(timing_records(records, traced=False), "wall_s")[0]
    out["trace.overhead_s"] = (out["trace.wall_s"][0] - untraced_wall, [])
    return out


def timing_records(records, traced):
    """Passes whose figures count: timed, and every cell correct.

    When no pass is clean the timed ones stand in, so that a broken program
    still reports its figures alongside ``correct: false``.
    """
    timed = [r for r in records if r["traced"] is traced and r["timed"]]
    clean = [r for r in timed if r["failed"] == 0]
    if not timed:
        raise SystemExit("no pass produced figures; see the worker errors above")
    return clean or timed


# -- reporting ------------------------------------------------------------------


def high_percentile(values):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    return round(100 * (n - 10) / n), sorted(values)[n - 11]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def manifest(args, samples):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "base_seed": args.seed,
        "seconds": args.seconds,
        "ticks_per_cell": args.ticks,
        "cells_per_pass": CELLS_PER_PASS,
        "cycle_passes": CYCLE_PASSES,
        "layout_seeds": list(LAYOUT_SEEDS),
        "samples_per_median": samples,
    }


def print_table(workload, kind, metrics, units):
    print(f"{workload} ({kind}):")
    for name, (value, values) in metrics.items():
        line = f"  {name:26s} {value:14.6g} {units[name]:6s}"
        if values:
            line += f" median of {len(values)}"
            tail = high_percentile(values)
            if tail is not None:
                line += f", p{tail[0]} {tail[1]:.6g}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ticks", type=int, default=DEFAULT_TICKS,
                        help="ticks per cell (tests shorten it)")
    args = parser.parse_args(argv)

    if not (SRC / "fallsim" / "__init__.py").is_file():
        print(f"error: no fallsim source under {SRC}", file=sys.stderr)
        return 2
    pins = load_pins()
    OUT.mkdir(parents=True, exist_ok=True)
    warm = subprocess.run([sys.executable, str(WORKER), "warmup"], timeout=PASS_TIMEOUT_S)
    if warm.returncode != 0:
        print("error: fallsim does not import", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    attempted = failed = 0
    combined = {}
    samples = {}
    report = {"workloads": {}}
    for workload in names:
        for traced in modes:
            records, a, f, problems = measure(
                workload, args.seed, args.seconds, traced, args.ticks, pins
            )
            attempted += a
            failed += f
            for problem in problems:
                print(f"FAIL {workload}: {problem}")
            if traced:
                metrics, units, kind = per_layer_metrics(records), PER_LAYER, "traced"
            else:
                metrics, units, kind = end_to_end_metrics(records), END_TO_END, "untraced"
            print_table(workload, kind, metrics, units)
            print(f"  {'fail_rate':26s} {f}/{a} cells")
            prefix = f"{workload}/" if args.workload == "all" else ""
            for name, (value, values) in metrics.items():
                combined[prefix + name] = {"value": value, "unit": units[name]}
                samples[prefix + name] = len(values)
            report["workloads"].setdefault(workload, {})[kind] = {
                "metrics": {n: {"value": v, "samples": vs} for n, (v, vs) in metrics.items()},
                "attempted": a,
                "failed": f,
                "problems": problems,
            }

    report["manifest"] = manifest(args, samples)
    results_path = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("manifest: " + json.dumps(report["manifest"]))
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
