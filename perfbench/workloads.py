"""Workload definitions, per-cell seeds, and the output checks of a cell.

A cell is one default 10 000-tick run. Its seed is a keyed hash of the
benchmark's base seed, the workload, the pass index modulo CYCLE_PASSES and
the cell's index in the pass, so the same base seed always gives the same
cells, and a run repeats one cycle of CYCLE_PASSES passes however many
passes fit in its time. ``pins.json`` pins every cell of that cycle for the
default base seed.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pins.json"
DEFAULT_BASE_SEED = 0
DEFAULT_TICKS = 10_000
CYCLE_PASSES = 8

#: World layouts of the cells run through the library API: cell j of every
#: pass is laid out by ``WorldConfig(placement_seed=LAYOUT_SEEDS[j])``, so
#: each pass covers the same towns and the figures of a run are about the
#: code rather than about which towns a seed drew (between random layouts
#: the enrollment work of s2 X=0 varies 4x). The fall, alarm and walk draws
#: still come from each cell's seed.
LAYOUT_SEEDS = (0, 1, 2)
CELLS_PER_PASS = len(LAYOUT_SEEDS)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    n_informal: int
    #: "api" runs ``fallsim.run_simulation``; "cli" runs ``fallsim.cli.main``
    #: with ``--trace`` and ``--out``. The CLI has no layout flag, so its
    #: cells take their layout from the cell seed, as every CLI run does.
    via: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("walk_s1_x40", "s1", 40, "api"),
        Workload("queue_s2_x0", "s2", 0, "api"),
        Workload("trace_s2_x10", "s2", 10, "cli"),
    )
}


def cell_seed(base_seed: int, workload: str, pass_index: int, cell_index: int) -> int:
    key = f"{base_seed}:{workload}:{pass_index % CYCLE_PASSES}:{cell_index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def row_digest(row: list[str]) -> str:
    return hashlib.sha256(json.dumps(row).encode()).hexdigest()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_pins(path: Path = PINS) -> dict:
    """Pinned digests as {(workload, seed, ticks): {"row": .., "trace": ..}}."""
    data = json.loads(path.read_text())
    return {
        (p["workload"], p["seed"], p["ticks"]): {"row": p["row"], "trace": p.get("trace")}
        for p in data["pins"]
    }


def check_cell(workload: str, cell: dict, pins: dict) -> list[str]:
    """Problems with one cell's output; an empty list means it is correct.

    ``cell`` holds the seed, ticks, the csv row, its counts and the digests
    the worker computed.
    """
    if cell.get("error"):
        return [cell["error"]]
    problems = []
    if cell["tp"] + cell["fp"] != cell["treated"]:
        problems.append(
            f"TP {cell['tp']} + FP {cell['fp']} != treated cases {cell['treated']}"
        )
    pin = pins.get((workload, cell["seed"], cell["ticks"]))
    if pin is not None:
        if pin["row"] != cell["row_sha256"]:
            problems.append("csv_row() digest differs from the pinned one")
        if pin["trace"] is not None and pin["trace"] != cell.get("trace_sha256"):
            problems.append("JSONL trace digest differs from the pinned one")
    return problems
