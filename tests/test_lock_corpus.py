"""Behaviour lock over a pinned random corpus of configs.

The golden cells of ``test_golden.py`` all use the default grid, dispatch
delay, return flag and speed. This corpus draws small worlds from a fixed
``Random(CORPUS_SEED)`` instead: grids 1x1 to 9x9, zero to six residents,
professionals, ambulances and carers, dispatch delays 0-6, both return
flags, speed 1 or 2, explicit or seed-derived placement, both scenarios,
fall and detector rates from {0, 1, 0.01, 0.3, 1/600}, and 1-400 ticks,
with every other cell audited every tick. A few full 10 000-tick cells with
a non-default delay, return flag or speed follow.

For each cell the test pins SHA-256 digests of ``to_dict()`` (JSON with
sorted keys), of ``csv_row()`` (as JSON) and of the JSONL trace, written
exactly as ``fallsim run --trace`` writes it. Only the first 16 hex digits
of each digest are stored, which keeps ``lock_corpus.json`` small and still
leaves a changed output no real chance of matching. A refactor must leave
every digest unchanged; regenerate them only for an intended change of
behaviour, and say why in CHANGES.md. ``python tests/test_lock_corpus.py``
prints the current values in the file's format.
"""
import hashlib
import json
from pathlib import Path
from random import Random

from fallsim.scenario import Scenario, ScenarioConfig, run_simulation
from fallsim.world import SensorModel, WorldConfig

CORPUS_SEED = 2015
N_RANDOM = 400
DIGEST_HEX = 16
DIGESTS = Path(__file__).with_name("lock_corpus.json")
RATES = (0.0, 1.0, 0.01, 0.3, 1 / 600)
S1, S2 = Scenario.SINGLE_DETECTOR, Scenario.DUAL_DETECTOR


def random_cells(n: int = N_RANDOM, seed: int = CORPUS_SEED) -> list[tuple[ScenarioConfig, int]]:
    """``n`` (config, audit_every) pairs drawn from one ``Random(seed)``."""
    rng = Random(seed)
    cells = []
    for _ in range(n):
        half_width, half_height = rng.randint(0, 4), rng.randint(0, 4)
        n_cells = (2 * half_width + 1) * (2 * half_height + 1)
        world = WorldConfig(
            half_width=half_width,
            half_height=half_height,
            n_elderly=min(rng.randint(0, 6), n_cells - 1),
            n_professional=rng.randint(0, 6),
            n_ambulances=rng.randint(0, 6),
            speed=rng.choice((1, 2)),
            placement_seed=rng.randrange(1000) if rng.random() < 0.5 else None,
        )
        config = ScenarioConfig(
            scenario=rng.choice((S1, S2)),
            n_informal=rng.randint(0, 6),
            ticks=rng.randint(1, 400),
            p_fall=rng.choice(RATES),
            sensor=SensorModel(
                p_false_negative=rng.choice(RATES), p_false_positive=rng.choice(RATES)
            ),
            world=world,
            seed=rng.randrange(2**31),
            dispatch_delay=rng.randint(0, 6),
            count_return_travel=rng.random() < 0.5,
        )
        cells.append((config, rng.choice((0, 1))))
    return cells


LONG_CELLS = [
    ScenarioConfig(scenario=S2, seed=31, dispatch_delay=0, count_return_travel=False),
    ScenarioConfig(
        scenario=S1, n_informal=10, seed=32, dispatch_delay=2,
        world=WorldConfig(placement_seed=3),
    ),
    ScenarioConfig(
        scenario=S2, n_informal=5, seed=33, count_return_travel=False,
        world=WorldConfig(speed=2),
    ),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]


def observe(config: ScenarioConfig, audit_every: int = 0) -> list[str]:
    """Digests of ``to_dict()``, ``csv_row()`` and the trace of one run."""
    trace = hashlib.sha256()
    report = run_simulation(
        config,
        audit_every=audit_every,
        trace_sink=lambda record: trace.update((json.dumps(record) + "\n").encode()),
    )
    return [
        _digest(json.dumps(report.to_dict(), sort_keys=True).encode()),
        _digest(json.dumps(report.csv_row()).encode()),
        trace.hexdigest()[:DIGEST_HEX],
    ]


def current() -> dict[str, list[list[str]]]:
    return {
        "random": [observe(config, audit) for config, audit in random_cells()],
        "long": [observe(config) for config in LONG_CELLS],
    }


def _mismatches(name: str, cells: list, got: list, pinned: list) -> list[str]:
    assert len(got) == len(pinned), f"{name}: {len(got)} cells, {len(pinned)} pinned"
    return [
        f"{name}[{i}] {cell!r}: got {g}, pinned {p}"
        for i, (cell, g, p) in enumerate(zip(cells, got, pinned))
        if g != p
    ]


def test_random_corpus_matches_digests():
    cells = random_cells()
    pinned = json.loads(DIGESTS.read_text())["random"]
    got = [observe(config, audit) for config, audit in cells]
    bad = _mismatches("random", cells, got, pinned)
    assert not bad, f"{len(bad)} of {len(cells)} cells changed; first: " + "\n".join(bad[:3])


def test_long_cells_match_digests():
    pinned = json.loads(DIGESTS.read_text())["long"]
    got = [observe(config) for config in LONG_CELLS]
    bad = _mismatches("long", LONG_CELLS, got, pinned)
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    values = current()
    print("{")
    for i, (name, rows) in enumerate(values.items()):
        print(f'  "{name}": [')
        print(",\n".join(f"    {json.dumps(row)}" for row in rows))
        print("  ]" + ("," if i < len(values) - 1 else ""))
    print("}")
