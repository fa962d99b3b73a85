"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: ``python3 worker.py api|cli SPEC_JSON`` runs the cells the spec names
and writes the pass's timings, counts and digests to ``spec["result"]``;
``python3 worker.py warmup`` only imports fallsim, so that bytecode is
compiled before anything is timed.

``import fallsim`` is timed before this file imports anything else, so the
modules the benchmark itself needs do not make the import look cheaper than
it is for a user.
"""
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_pass(fallsim, spec, import_s):
    import contextlib
    import csv
    import json
    import resource
    import traceback
    from pathlib import Path

    from spans import Tracer
    from workloads import LAYOUT_SEEDS, WORKLOADS, file_digest, row_digest

    workload = WORKLOADS[spec["workload"]]
    ticks = spec["ticks"]
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    Simulation = fallsim.scenario.Simulation

    tracer = None
    init_s = []
    if spec["traced"]:
        tracer = Tracer()
        tracer.install(fallsim, getattr(fallsim, "cli", None))
    else:
        # The one wrapper of an untraced pass: set-up time is a metric.
        original_init = Simulation.__init__

        def timed_init(self, config):
            t0 = time.perf_counter()
            original_init(self, config)
            init_s.append(time.perf_counter() - t0)

        Simulation.__init__ = timed_init

    cells = []
    run_s = []
    with open(out_dir / "cells.jsonl", "w", encoding="utf-8") as out:
        for j, seed in enumerate(spec["seeds"]):
            cell = {"seed": seed, "ticks": ticks}
            cells.append(cell)
            try:
                if workload.via == "api":
                    config = fallsim.ScenarioConfig(
                        scenario=fallsim.Scenario(workload.scenario),
                        n_informal=workload.n_informal,
                        ticks=ticks,
                        seed=seed,
                        world=fallsim.WorldConfig(placement_seed=LAYOUT_SEEDS[j]),
                    )
                    t0 = time.perf_counter()
                    report = fallsim.run_simulation(config)
                    run_s.append(time.perf_counter() - t0)
                    row = report.csv_row()
                    record = report.to_dict()
                    out.write(json.dumps({"row": row, "report": record}) + "\n")
                    cell.update(row=row, tp=record["tp"], fp=record["fp"],
                                treated=record["treated_cases"])
                else:
                    argv = [
                        "run", "--scenario", workload.scenario,
                        "--ics", str(workload.n_informal), "--ticks", str(ticks),
                        "--seed", str(seed), "--trace", str(out_dir / f"cell{j}.jsonl"),
                        "--out", str(out_dir / f"cell{j}.csv"),
                    ]
                    with open(out_dir / f"cell{j}.txt", "w", encoding="utf-8") as fh, \
                            contextlib.redirect_stdout(fh):
                        t0 = time.perf_counter()
                        code = fallsim.cli.main(argv)
                        run_s.append(time.perf_counter() - t0)
                    if code != 0:
                        cell["error"] = f"fallsim.cli.main exited with {code}"
            except Exception as exc:  # a failed cell is counted, not fatal
                traceback.print_exc()
                cell["error"] = f"{type(exc).__name__}: {exc}"
    # Everything the program was asked to produce has been written.
    t_end = time.monotonic()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    columns = fallsim.metrics.CSV_COLUMNS
    trace_bytes = trace_records = 0
    for j, cell in enumerate(cells):
        if cell.get("error"):
            continue
        try:
            if workload.via == "cli":
                trace_path = out_dir / f"cell{j}.jsonl"
                with (out_dir / f"cell{j}.csv").open(newline="", encoding="utf-8") as fh:
                    header, row = list(csv.reader(fh))
                if header != columns:
                    raise ValueError("CSV header differs from CSV_COLUMNS")
                cell.update(row=row, tp=int(row[columns.index("TP")]),
                            fp=int(row[columns.index("FP")]),
                            treated=int(row[columns.index("♯")]),
                            trace_sha256=file_digest(trace_path))
                trace_bytes += trace_path.stat().st_size
                with trace_path.open("rb") as fh:
                    trace_records += sum(1 for _ in fh)
            cell["row_sha256"] = row_digest(cell.pop("row"))
        except (OSError, ValueError) as exc:
            cell["error"] = f"{type(exc).__name__}: {exc}"

    layers = None
    if tracer is not None:
        init_s = [ns / 1e9 for ns in tracer.durations("scenario.init")]
        layers = tracer.layer_metrics()
        layers["cli.trace_bytes"] = trace_bytes
        layers["fso.trace_records"] = trace_records
        tracer.write(out_dir / "spans.tsv")

    result = {
        "t_end": t_end,
        "import_s": import_s,
        "init_s": init_s,
        "run_s": run_s,
        "ticks": ticks * len(run_s),
        "maxrss_kb": maxrss_kb,
        "cells": cells,
        "layers": layers,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


def main(argv):
    via = argv[1]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import fallsim
    if via in ("cli", "warmup"):
        import fallsim.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(fallsim.__file__)) != os.path.join(SRC, "fallsim"):
        sys.exit(f"imported fallsim from {fallsim.__file__}, not from {SRC}")
    if via != "warmup":
        import json

        run_pass(fallsim, json.loads(argv[2]), import_s)


if __name__ == "__main__":
    main(sys.argv)
