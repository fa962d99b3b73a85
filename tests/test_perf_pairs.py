"""scripts/perf_pairs.py against stub checkouts whose benchmark prints fixed figures."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

# A stand-in for perfbench/run.py: it logs which checkout ran, then prints
# the result line of a correct or an incorrect run.
STUB = """\
import json, pathlib, sys
here = pathlib.Path(__file__).resolve().parent.parent
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + "\\n")
print("table lines come first")
print(json.dumps(json.loads((here / "result.json").read_text())))
"""


def checkout(root, name, wall_s, ticks_per_s, correct=True):
    bench = root / name / "perfbench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(STUB)
    metrics = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "sim_ticks_per_s": {"value": ticks_per_s, "unit": "1/s"},
        "setup_s": {"value": 0.03, "unit": "s"},
        "peak_rss_mb": {"value": 20.0, "unit": "MB"},
    }
    result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1, "metrics": metrics}
    (root / name / "result.json").write_text(json.dumps(result))
    return root / name


def test_pairs_alternate_and_count_wins(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", wall_s=1.0, ticks_per_s=100.0)
    change = checkout(tmp_path, "change", wall_s=0.8, ticks_per_s=125.0)
    code = perf_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "3", "--seconds", "0"])
    assert code == 0
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[2:]}
    assert rows["wall_s"][-3:] == ["-20.0", "%", "3/3"]
    assert rows["sim_ticks_per_s"][-3:] == ["+25.0", "%", "3/3"]
    # Ties count for neither side.
    assert rows["setup_s"][-1] == "0/3"


def test_an_incorrect_run_fails_the_comparison(tmp_path):
    parent = checkout(tmp_path, "parent", wall_s=1.0, ticks_per_s=100.0)
    change = checkout(tmp_path, "change", wall_s=0.5, ticks_per_s=200.0, correct=False)
    code = perf_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1", "--seconds", "0"])
    assert code == 1


def test_a_checkout_without_the_benchmark_is_refused(tmp_path):
    parent = checkout(tmp_path, "parent", wall_s=1.0, ticks_per_s=100.0)
    code = perf_pairs.main([str(parent), str(tmp_path / "nowhere"), "--workload", "w"])
    assert code == 2


def test_quartiles_stay_inside_the_values():
    assert perf_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_must_be_positive(tmp_path, pairs):
    parent = checkout(tmp_path, "parent", wall_s=1.0, ticks_per_s=100.0)
    with pytest.raises(SystemExit) as exc:
        perf_pairs.main([str(parent), str(parent), "--workload", "w", "--pairs", pairs])
    assert exc.value.code == 2
