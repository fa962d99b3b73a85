"""Sweep harness, CSV/JSON emission, and the command-line front end."""
import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fallsim.cli import build_parser, main
from fallsim.fso import EventKind, Role, trace_line
from fallsim.metrics import CSV_COLUMNS
from fallsim.scenario import Scenario, ScenarioConfig, run_simulation
from fallsim.sweep import (
    AGGREGATE_STATS,
    AGGREGATED_FIELDS,
    DEFAULT_X_VALUES,
    SweepSpec,
    aggregate,
    derive_seed,
    emit_csv,
    run_sweep,
    write_outputs,
)
from fallsim.world import ConfigurationError

FAST = ScenarioConfig(ticks=300)

#: Flags a config file may set, plus an unknown key and a forbidden one. The
#: output paths are left out: a bad path is an I/O error, which exits 1.
CONFIG_KEYS = [
    "scenario", "ics", "ticks", "seed", "replications", "p_fall", "p_fn", "p_fp",
    "n_ea", "n_pc", "n_ma", "grid", "count_return_travel", "dispatch_delay", "jobs",
    "tickz", "config",
]


#: Good and bad values per flag of both commands. --ticks is always given,
#: so no drawn run is long; --jobs never exceeds 1, so no pool is started.
#: "{tmp}" stands for a fresh directory: a file in it, the directory itself
#: (an I/O error, exit 1) or a path under a missing directory.
COMMON_FLAG_VALUES = {
    "--scenario": ["s1", "s2", "s3"],
    "--seed": ["0", "7", "-1", "x"],
    "--p-fall": ["0", "1", "0.3", "1.5", "-0.1", "p"],
    "--p-fn": ["0", "1", "0.2", "2", "p"],
    "--p-fp": ["0", "1", "0.01", "-1", "p"],
    "--n-ea": ["0", "1", "5", "-1", "x"],
    "--n-pc": ["0", "2", "-1", "x"],
    "--n-ma": ["0", "2", "-1", "x"],
    "--grid": ["1x1", "3x3", "9x9", "5x3", "2x2", "0x3", "9", "ax3"],
    "--count-return-travel": ["true", "false", "maybe"],
    "--dispatch-delay": ["0", "3", "-1", "x"],
    "--out": ["{tmp}/out", "{tmp}", "{tmp}/missing/out"],
}
RUN_FLAG_VALUES = {
    "--ics": ["0", "3", "6", "-1", "0..6:2", "x"],
    "--trace": ["{tmp}/trace.jsonl", "{tmp}", "{tmp}/missing/trace.jsonl"],
}
SWEEP_FLAG_VALUES = {
    "--ics": ["0", "6", "0..6:3", "2..4", "5..1", "0..6:0", "x"],
    "--replications": ["1", "2", "0", "-1", "x"],
    "--jobs": ["-1", "0", "1"],
}


@st.composite
def argvs(draw):
    """A run or sweep command line with a subset of flags, good and bad."""
    command = draw(st.sampled_from(["run", "sweep"]))
    values = {
        **COMMON_FLAG_VALUES,
        **(RUN_FLAG_VALUES if command == "run" else SWEEP_FLAG_VALUES),
    }
    argv = [command, "--ticks", draw(st.sampled_from(["1", "5", "0", "-2", "x"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=6)):
        argv += [flag, draw(st.sampled_from(values[flag]))]
    if command == "sweep" and "--out" not in argv:
        # A sweep without --out writes into the working directory.
        argv += ["--out", "{tmp}/sweep"]
    return argv


def run_cli(argv):
    """Exit status of ``main(argv)``, whether it returns or exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def tiny_spec(**kw):
    defaults = dict(
        scenario=Scenario.SINGLE_DETECTOR,
        x_values=(0, 2),
        replications=2,
        base_seed=42,
        base_config=FAST,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(0, Scenario.SINGLE_DETECTOR, 0, 0) == derive_seed(
            0, Scenario.SINGLE_DETECTOR, 0, 0
        )

    def test_unique_across_grid(self):
        seeds = {
            derive_seed(base, scenario, x, rep)
            for base in (0, 1)
            for scenario in Scenario
            for x in range(9)
            for rep in range(10)
        }
        assert len(seeds) == 2 * 2 * 9 * 10

    def test_scenarios_do_not_share_streams(self):
        assert derive_seed(0, Scenario.SINGLE_DETECTOR, 3, 4) != derive_seed(
            0, Scenario.DUAL_DETECTOR, 3, 4
        )


class TestSweepSpec:
    def test_default_x_axis(self):
        assert DEFAULT_X_VALUES == (0, 5, 10, 15, 20, 25, 30, 35, 40)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(replications=0)
        with pytest.raises(ConfigurationError):
            tiny_spec(x_values=())
        with pytest.raises(ConfigurationError):
            tiny_spec(jobs=0)

    def test_cell_config_combines_axis_and_seed(self):
        spec = tiny_spec()
        config = spec.cell_config(1, 0)
        assert config.n_informal == 2
        assert config.ticks == 300
        assert config.seed == derive_seed(42, Scenario.SINGLE_DETECTOR, 1, 0)


class TestRunSweep:
    def test_shape_and_ordering(self):
        result = run_sweep(tiny_spec())
        assert len(result.reports) == 2
        assert all(len(level) == 2 for level in result.reports)
        assert [row.x for row in result.aggregates] == [0, 2]
        # Every cell really used its derived seed.
        for i, level in enumerate(result.reports):
            for r, report in enumerate(level):
                assert report.seed == derive_seed(42, Scenario.SINGLE_DETECTOR, i, r)

    def test_aggregate_mean_matches_manual_average(self):
        result = run_sweep(tiny_spec())
        level = result.reports[0]
        fps = [r.to_dict()["fp"] for r in level]
        assert result.aggregates[0].stats["fp"]["mean"] == pytest.approx(
            sum(fps) / len(fps)
        )
        assert result.aggregates[0].stats["fp"]["min"] == min(fps)
        assert result.aggregates[0].stats["fp"]["max"] == max(fps)

    def test_rerun_is_identical(self):
        spec = tiny_spec()
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert [
            [r.to_dict() for r in level] for level in first.reports
        ] == [[r.to_dict() for r in level] for level in second.reports]

    def test_process_pool_matches_serial_run(self):
        serial = run_sweep(tiny_spec(jobs=1))
        pooled = run_sweep(tiny_spec(jobs=2))
        assert [[r.csv_row() for r in level] for level in pooled.reports] == [
            [r.csv_row() for r in level] for level in serial.reports
        ]

    def test_pool_never_has_more_workers_than_cells(self, monkeypatch):
        # A fake pool records its size and maps in this process, so no
        # worker process is started.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        # run_sweep imports the pool class when it needs one.
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        two_cells = run_sweep(tiny_spec(replications=1, jobs=8))
        assert sizes == [2]
        assert len(two_cells.reports) == 2
        one_cell = run_sweep(tiny_spec(x_values=(0,), replications=1, jobs=8))
        assert sizes == [2]
        assert len(one_cell.reports) == 1

    def test_serial_use_never_imports_the_pool(self):
        # A fresh interpreter, because this one may have run a pool already.
        probe = (
            "import sys\n"
            "def pools():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] in ('concurrent', 'multiprocessing'))\n"
            "import fallsim\n"
            "print(pools())\n"
            "import fallsim.cli\n"
            "print(pools())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines() == ["[]", "[]"]


class TestEmission:
    def test_emit_csv_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "empty.csv")

    def test_write_outputs_files_and_shapes(self, tmp_path):
        result = run_sweep(tiny_spec())
        paths = write_outputs(result, tmp_path / "exp")
        assert sorted(p.name for p in paths.values()) == [
            "exp_aggregate.csv",
            "exp_raw.csv",
            "exp_summary.json",
        ]
        with paths["raw"].open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + 2 * 2  # header + x-values x replications
        summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
        assert summary["x_values"] == [0, 2]
        assert len(summary["runs"]) == 4
        assert summary["runs"][0]["x"] == 0

    # Without falls the sensitivity is undefined, so its cells are written empty.
    @pytest.mark.parametrize(
        "base_config", [FAST, ScenarioConfig(ticks=300, p_fall=0.0)], ids=["falls", "no_falls"]
    )
    def test_aggregate_cells_sit_under_their_headers(self, tmp_path, base_config):
        result = run_sweep(tiny_spec(base_config=base_config))
        paths = write_outputs(result, tmp_path / "exp")
        with paths["aggregate"].open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["x"] + [
            f"{name} {stat}" for name in AGGREGATED_FIELDS for stat in AGGREGATE_STATS
        ]
        assert [int(row["x"]) for row in rows] == [agg.x for agg in result.aggregates]
        for row, agg in zip(rows, result.aggregates):
            for name in AGGREGATED_FIELDS:
                cell = agg.stats.get(name)
                for stat in AGGREGATE_STATS:
                    assert row[f"{name} {stat}"] == ("" if cell is None else repr(cell[stat]))

    def test_rewrite_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        first = write_outputs(run_sweep(spec), tmp_path / "a")
        second = write_outputs(run_sweep(spec), tmp_path / "b")
        for key in ("raw", "aggregate", "summary"):
            assert first[key].read_bytes() == second[key].read_bytes()


class TestCli:
    def test_run_prints_report_and_exits_zero(self, capsys):
        code = main(["run", "--ticks", "300", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FP rate:" in out
        assert "ΣWT/♯:" in out

    def test_run_defaults_are_the_config_defaults(self, capsys):
        assert main(["run", "--ticks", "300", "--seed", "5"]) == 0
        report = run_simulation(ScenarioConfig(ticks=300, seed=5))
        expected = [f"{name}: {value}" for name, value in zip(CSV_COLUMNS, report.csv_row())]
        assert capsys.readouterr().out.splitlines() == expected

    def test_parser_defaults_are_the_dataclass_defaults(self):
        parser = build_parser()
        config, spec = ScenarioConfig(), SweepSpec()
        run = parser.parse_args(["run"])
        assert (run.scenario, run.seed, run.ics) == (
            config.scenario.value, config.seed, config.n_informal
        )
        sweep = parser.parse_args(["sweep"])
        assert (sweep.scenario, sweep.seed, sweep.ics, sweep.replications, sweep.jobs) == (
            spec.scenario.value, spec.base_seed, spec.x_values, spec.replications, spec.jobs
        )

    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(["run", "--ticks", "300", "--out", str(out)]) == 0
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 2

    def test_sweep_end_to_end(self, tmp_path, capsys):
        prefix = tmp_path / "sw"
        code = main(
            [
                "sweep", "--scenario", "s2", "--ticks", "200",
                "--ics", "0..4:2", "--replications", "2",
                "--out", str(prefix),
            ]
        )
        assert code == 0
        with (tmp_path / "sw_raw.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3 * 2  # x in {0, 2, 4}, two replications

    def test_trace_file_written(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--ticks", "300", "--trace", str(trace)]) == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines
        record = json.loads(lines[0])
        assert record["event"] == "fall_detected"

    @pytest.mark.parametrize(
        "scenario, ics, seed",
        [("s1", 0, 4), ("s2", 0, 5), ("s1", 8, 6), ("s2", 8, 7)],
    )
    def test_trace_lines_equal_json_dumps(self, tmp_path, scenario, ics, seed):
        # X=0 parks dispatches; X>0 adds visits, relays and cancels.
        records = []
        config = ScenarioConfig(
            scenario=Scenario(scenario), n_informal=ics, ticks=3_000, seed=seed
        )
        run_simulation(config, trace_sink=records.append)
        expected = [json.dumps(record) + "\n" for record in records]
        assert [trace_line(record) for record in records] == expected
        events = {record["event"] for record in records}
        assert any(len(record["missing"]) == 2 for record in records)
        if ics:
            assert {EventKind.DISPATCH_CANCELED.value, EventKind.FALL_CONFIRMED.value} <= events
            assert any(
                record["missing"] == [Role.NEED_TOP_COORDINATOR.value] for record in records
            )
        else:
            # Some dispatch found the hospital empty and parked.
            assert any(record["tick"] > 0 and record["missing"] for record in records)
        trace = tmp_path / "trace.jsonl"
        argv = ["run", "--scenario", scenario, "--ics", str(ics), "--ticks", "3000",
                "--seed", str(seed), "--trace", str(trace)]
        assert main(argv) == 0
        assert trace.read_bytes() == "".join(expected).encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--p-fall", "1.5"],
            ["run", "--ics", "-3"],
            ["run", "--ics", "5..1"],
            ["run", "--grid", "32x32"],
            ["bogus"],
            # --replications and --jobs belong to sweep only.
            ["run", "--jobs", "2"],
            ["run", "--replications", "3"],
            ["sweep", "--jobs", "0", "--ticks", "10"],
            # A run takes one carer count; only a run writes a trace.
            ["run", "--ics", "0..40:5"],
            ["sweep", "--trace", "t.jsonl", "--ticks", "10"],
        ],
    )
    def test_usage_errors_exit_two(self, argv, capsys):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["run", "--ticks", "200", "--out", str(missing)]) == 1

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ticks": 200, "seed": 9}), encoding="utf-8")
        direct = main(["run", "--ticks", "200", "--seed", "9"])
        assert direct == 0
        first = capsys.readouterr().out
        assert main(["run", "--config", str(config)]) == 0
        assert capsys.readouterr().out == first

    def test_explicit_flag_beats_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ticks": 200, "seed": 9}), encoding="utf-8")
        main(["run", "--config", str(config), "--seed", "123"])
        with_flag = capsys.readouterr().out
        main(["run", "--ticks", "200", "--seed", "123"])
        assert capsys.readouterr().out == with_flag

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tickz": 200}), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--config", str(config)])
        assert excinfo.value.code == 2

    def test_config_values_are_parsed_like_flags(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"ticks": "200", "p_fall": 0.01, "count_return_travel": False}),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config)]) == 0
        from_file = capsys.readouterr().out
        argv = ["run", "--ticks", "200", "--p-fall", "0.01", "--count-return-travel", "false"]
        assert main(argv) == 0
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize(
        "data",
        [{"seed": 1.5}, {"ticks": "ten"}, {"ticks": None}, {"ics": [1, 2]}, {"config": "x"}],
    )
    def test_bad_config_values_exit_two(self, data, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        assert run_cli(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_config_file_not_in_utf8_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        # UTF-16 with its byte-order mark, as some editors save JSON.
        config.write_bytes(json.dumps({"ticks": 200}).encode("utf-16"))
        assert run_cli(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("fallsim: error: cannot read config file")
        assert "Traceback" not in err

    @given(
        data=st.dictionaries(
            st.sampled_from(CONFIG_KEYS),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-5, max_value=40),
                st.floats(min_value=-1, max_value=2),
                st.text(alphabet="0123456789.-xs", max_size=6),
                st.lists(st.integers(min_value=0, max_value=3), max_size=2),
            ),
            max_size=4,
        )
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_config_file_values_never_raise_a_traceback(self, data, capsys):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(data), encoding="utf-8")
            # The explicit --ticks wins over the file's and keeps each run short.
            code = run_cli(["run", "--config", str(config), "--ticks", "20"])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @given(argv=argvs())
    @settings(
        max_examples=120, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_argv_never_raises_a_traceback(self, argv, capsys):
        with tempfile.TemporaryDirectory() as tmp:
            code = run_cli([arg.replace("{tmp}", tmp) for arg in argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert "error:" in err.splitlines()[-1]

    def test_sweep_zero_replications_exits_two(self, capsys):
        assert main(["sweep", "--replications", "0", "--ticks", "10"]) == 2
        err = capsys.readouterr().err
        assert err == "error: replications must be >= 1\n"
