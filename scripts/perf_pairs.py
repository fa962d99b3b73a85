"""Compare two checkouts of fallsim with alternating benchmark runs.

    python scripts/perf_pairs.py PARENT CHANGE --workload walk_s1_x40 --pairs 10 --seconds 10 --seed 3

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other; even pairs run PARENT first and odd pairs CHANGE first, so a
drift in host speed falls on both sides alike. For every end-to-end metric in
BENCHMARK.json it prints each side's median with its quartiles and the number
of pairs the change won (ties count for neither side). Exits 1 if any run
reports ``correct`` false or gives no result line, 2 on a bad checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """One untraced benchmark run; its last output line, parsed."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--seed", str(args.seed),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of the values, inside their range."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py under {checkout}", file=sys.stderr)
            return 2
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    correct = True
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args)
            correct &= result["correct"] is True
            figures = {m["name"]: result["metrics"].get(m["name"], {}).get("value") for m in metrics}
            for name, value in figures.items():
                values[side].setdefault(name, []).append(value)
            shown = " ".join(f"{name} {value:.6g}" for name, value in figures.items() if value is not None)
            print(f"pair {k + 1}/{args.pairs} {side}: correct {result['correct']} {shown}", file=sys.stderr)

    print(f"{args.workload}, {args.pairs} pairs, --seconds {args.seconds:g} --seed {args.seed}")
    print(f"  {'metric':16s} {'parent median [Q1-Q3]':>30s} {'change median [Q1-Q3]':>30s} {'change':>8s}  wins")
    for m in metrics:
        name = m["name"]
        parent, change = values["parent"][name], values["change"][name]
        if None in parent or None in change:
            print(f"  {name:16s} missing from a run")
            continue
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        shift = f"{(c2 / p2 - 1) * 100:+.1f} %" if p2 else "-"
        print(
            f"  {name:16s} {f'{p2:.6g} [{p1:.6g}-{p3:.6g}]':>30s}"
            f" {f'{c2:.6g} [{c1:.6g}-{c3:.6g}]':>30s} {shift:>8s}  {wins}/{args.pairs}"
        )
    if not correct:
        print("error: a run reported correct false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
