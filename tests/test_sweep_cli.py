"""Sweep harness, CSV/JSON emission, and the command-line front end."""
import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fallsim.cli import main
from fallsim.metrics import CSV_COLUMNS
from fallsim.scenario import Scenario, ScenarioConfig
from fallsim.sweep import (
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

    def test_sweep_zero_replications_exits_two(self, capsys):
        assert main(["sweep", "--replications", "0", "--ticks", "10"]) == 2
        err = capsys.readouterr().err
        assert err == "error: replications must be >= 1\n"
