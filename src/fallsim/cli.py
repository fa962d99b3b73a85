"""Command-line entry point: single runs and full sweeps.

Exit status: 0 on success, 2 on usage/configuration errors, 1 on runtime
errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .fso import trace_line
from .metrics import CSV_COLUMNS, emit_csv
from .scenario import Scenario, ScenarioConfig, run_simulation
from .world import ConfigurationError, SensorModel, WorldConfig

def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _parse_probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"probability out of [0, 1]: {text}")
    return value


def _parse_count(text: str) -> int:
    """A single informal-carer count ("12")."""
    try:
        value = int(text)
        if value < 0:
            raise ValueError
        return value
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad carer count: {text!r}")


def _parse_ics(text: str) -> tuple[int, ...]:
    """Either a single count ("12") or a range ("0..40:5")."""
    if ".." not in text:
        return (_parse_count(text),)
    try:
        bounds, _, step_text = text.partition(":")
        lo_text, _, hi_text = bounds.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        step = int(step_text) if step_text else 1
        if lo < 0 or hi < lo or step < 1:
            raise ValueError
        return tuple(range(lo, hi + 1, step))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad carer range: {text!r}")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        w_text, _, h_text = text.lower().partition("x")
        width, height = int(w_text), int(h_text)
        if width < 1 or height < 1 or width % 2 == 0 or height % 2 == 0:
            raise ValueError
        return width, height
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like 33x33 with odd extents, got {text!r}"
        )


def _add_common_flags(parser: argparse.ArgumentParser, defaults: ScenarioConfig) -> None:
    sensor, world = defaults.sensor, defaults.world
    parser.add_argument("--scenario", choices=[s.value for s in Scenario],
                        default=defaults.scenario.value)
    parser.add_argument("--ticks", type=int, default=defaults.ticks)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--p-fall", type=_parse_probability, default=defaults.p_fall)
    parser.add_argument("--p-fn", type=_parse_probability, default=sensor.p_false_negative)
    parser.add_argument("--p-fp", type=_parse_probability, default=sensor.p_false_positive)
    parser.add_argument("--n-ea", type=int, default=world.n_elderly)
    parser.add_argument("--n-pc", type=int, default=world.n_professional)
    parser.add_argument("--n-ma", type=int, default=world.n_ambulances)
    parser.add_argument("--grid", type=_parse_grid, default=(world.width, world.height))
    parser.add_argument("--count-return-travel", type=_parse_bool,
                        default=defaults.count_return_travel)
    parser.add_argument("--dispatch-delay", type=int, default=defaults.dispatch_delay)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with defaults for the other flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fallsim",
        description="Seedable multi-agent telecare fall-response simulator",
    )
    config = ScenarioConfig()
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a single experiment cell")
    _add_common_flags(run_parser, config)
    run_parser.add_argument("--ics", type=_parse_count, default=config.n_informal,
                            help="informal carer count N")
    run_parser.add_argument("--trace", type=Path, default=None,
                            help="write every engine event as a JSON line")
    sweep_parser = sub.add_parser("sweep", help="run a carer-count sweep with replications")
    _add_common_flags(sweep_parser, config)
    # None stands for SweepSpec's own default, which _cmd_sweep fills in, so
    # that building the parser never loads the sweep module.
    sweep_parser.add_argument("--ics", type=_parse_ics, default=None,
                              help="informal carer count N, or a range A..B:STEP")
    sweep_parser.add_argument("--replications", type=int, default=None)
    sweep_parser.add_argument("--jobs", type=int, default=None)
    sweep_parser.set_defaults(scenario=None, seed=None)
    return parser


def _apply_config_file(
    parser: argparse.ArgumentParser, args: argparse.Namespace, argv: list[str]
) -> argparse.Namespace:
    """Parse again with the file's values as flags ahead of the explicit ones.

    Each file value goes through its flag's own type check, and an explicit
    flag wins because argparse keeps the last occurrence.
    """
    if args.config is None:
        return args
    # Imported here so a run without --config never loads json.
    import json

    try:
        data = json.loads(args.config.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    file_flags = []
    for key, value in data.items():
        if key == "config":
            parser.error("a config file cannot name another config file")
        if not isinstance(value, (str, int, float)):
            parser.error(f"config key {key!r} needs a string, number or boolean")
        file_flags.append(f"--{key.replace('_', '-')}={value}")
    # argv[0] is the subcommand, which owns every flag.
    return parser.parse_args(argv[:1] + file_flags + argv[1:])


def _scenario_config(args: argparse.Namespace, n_informal: int, seed: int) -> ScenarioConfig:
    width, height = args.grid
    return ScenarioConfig(
        scenario=Scenario(args.scenario),
        n_informal=n_informal,
        ticks=args.ticks,
        p_fall=args.p_fall,
        sensor=SensorModel(p_false_negative=args.p_fn, p_false_positive=args.p_fp),
        world=WorldConfig(
            half_width=width // 2,
            half_height=height // 2,
            n_elderly=args.n_ea,
            n_professional=args.n_pc,
            n_ambulances=args.n_ma,
        ),
        seed=seed,
        dispatch_delay=args.dispatch_delay,
        count_return_travel=args.count_return_travel,
    )


def _trace_sink(path: Optional[Path]):
    if path is None:
        return None, None
    fh = path.open("w", encoding="utf-8")

    def sink(record: dict) -> None:
        fh.write(trace_line(record))

    return sink, fh


def _cmd_run(args: argparse.Namespace) -> int:
    config = _scenario_config(args, n_informal=args.ics, seed=args.seed)
    sink, fh = _trace_sink(args.trace)
    try:
        report = run_simulation(config, trace_sink=sink)
    finally:
        if fh is not None:
            fh.close()
    row = report.csv_row()
    if args.out is not None:
        emit_csv([row], args.out)
    for name, value in zip(CSV_COLUMNS, row):
        print(f"{name}: {value}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Imported here so a single run never loads the sweep module.
    from .sweep import SweepSpec, run_sweep, write_outputs

    defaults = SweepSpec()
    if args.scenario is None:
        args.scenario = defaults.scenario.value
    if args.seed is None:
        args.seed = defaults.base_seed
    replications = defaults.replications if args.replications is None else args.replications
    spec = SweepSpec(
        scenario=Scenario(args.scenario),
        x_values=defaults.x_values if args.ics is None else args.ics,
        replications=replications,
        base_seed=args.seed,
        base_config=_scenario_config(args, n_informal=0, seed=args.seed),
        jobs=defaults.jobs if args.jobs is None else args.jobs,
    )
    result = run_sweep(spec)
    out_prefix = args.out if args.out is not None else Path(f"sweep_{args.scenario}")
    paths = write_outputs(result, out_prefix)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _apply_config_file(parser, parser.parse_args(argv), argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
