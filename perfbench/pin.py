"""Regenerate ``pins.json``: output digests of the default base seed's cells.

    python3 perfbench/pin.py

Pins every cell of one cycle (CYCLE_PASSES passes of CELLS_PER_PASS cells)
of every workload, which is every cell a run with the default base seed
runs. Run it only after an intended change of fallsim's output, and say why
in CHANGES.md. Each pinned cell is run the way a benchmark pass runs it, and
must pass the invariant checks before its digests are written.
"""
from __future__ import annotations

import json
import sys

from run import run_pass
from workloads import (
    CELLS_PER_PASS,
    CYCLE_PASSES,
    DEFAULT_BASE_SEED,
    DEFAULT_TICKS,
    PINS,
    WORKLOADS,
    cell_seed,
    check_cell,
)


def main() -> int:
    pins = []
    for workload in WORKLOADS:
        for k in range(CYCLE_PASSES):
            seeds = [cell_seed(DEFAULT_BASE_SEED, workload, k, j) for j in range(CELLS_PER_PASS)]
            for cell in run_pass(workload, seeds, DEFAULT_TICKS, traced=False)["cells"]:
                problems = check_cell(workload, cell, {})
                if problems:
                    print(f"{workload} seed {cell['seed']}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                pins.append({
                    "workload": workload,
                    "seed": cell["seed"],
                    "ticks": DEFAULT_TICKS,
                    "row": cell["row_sha256"],
                    "trace": cell.get("trace_sha256"),
                })
        print(f"{workload}: pinned {CYCLE_PASSES * CELLS_PER_PASS} cells")
    lines = ",\n".join(" " + json.dumps(pin) for pin in pins)
    PINS.write_text(f'{{"base_seed": {DEFAULT_BASE_SEED}, "pins": [\n{lines}\n]}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
