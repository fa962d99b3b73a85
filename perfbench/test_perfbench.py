"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run short cells (a few hundred ticks), so they take seconds. The pins
in ``pins.json`` are of 10 000-tick cells, so no short cell matches one; the
digest test brings its own.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from spans import LAYER_OF_SPAN, Tracer  # noqa: E402
from workloads import CELLS_PER_PASS, WORKLOADS  # noqa: E402

TICKS = 200


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_pass_emits_every_named_metric(workload, trace):
    result, _ = bench(
        "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
        "--ticks", str(TICKS),
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == CELLS_PER_PASS * (2 if trace == "1" else 1)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("wrong", ["row", "trace"])
def test_wrong_pinned_digest_fails_the_cell(wrong):
    from run import measure

    workload = "trace_s2_x10"
    (rec,), attempted, failed, _ = measure(workload, 3, 0, False, TICKS, {}, cells_per_pass=1)
    assert (attempted, failed) == (1, 0)
    (cell,) = rec["cells"]
    pin = {"row": cell["row_sha256"], "trace": cell["trace_sha256"]}
    pins = {(workload, cell["seed"], TICKS): pin}
    _, attempted, failed, _ = measure(workload, 3, 0, False, TICKS, pins, cells_per_pass=1)
    assert (attempted, failed) == (1, 0)

    pin[wrong] = "0" * 64
    _, attempted, failed, problems = measure(workload, 3, 0, False, TICKS, pins, cells_per_pass=1)
    assert (failed, attempted) == (1, 1)
    assert "pinned" in problems[0]


def test_layer_self_times_add_up_to_traced_run_time(tmp_path):
    import fallsim
    import fallsim.cli

    original = fallsim.scenario.Simulation.sense_tick
    tracer = Tracer()
    undo = tracer.install(fallsim, fallsim.cli)
    try:
        config = fallsim.ScenarioConfig(
            scenario=fallsim.Scenario.DUAL_DETECTOR, n_informal=10, ticks=TICKS, seed=1
        )
        report = fallsim.run_simulation(config)
        report.csv_row()
        report.to_dict()
        assert fallsim.cli.main([
            "run", "--scenario", "s2", "--ics", "10", "--ticks", str(TICKS),
            "--trace", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "r.csv"),
        ]) == 0
    finally:
        undo()
    assert fallsim.scenario.Simulation.sense_tick is original

    self_ns, root_ns = tracer.self_ns()
    assert sum(self_ns.values()) == root_ns
    layers = tracer.layer_metrics()
    assert sum(layers[m] for m in LAYER_OF_SPAN.values()) == pytest.approx(layers["trace.run_s"])
    assert layers["scenario.other_s"] > 0
    assert layers["cli.self_s"] > 0
    assert layers["trace.hook_s"] > 0
    assert layers["scenario.walk_steps"] > 0
    assert layers["fso.try_enroll_calls"] > 0
    assert all(d >= 0 for d in tracer.durations("scenario.run"))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk_s1_x40",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
