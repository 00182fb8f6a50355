"""Command-line surface: synth / baseline / chain / report.

Configuration is line-oriented ``key = value`` with ``#`` comments and dotted
section keys, the keys of ``experiment.CONFIG_KEYS``; every key is also
exposed as a CLI flag of the same name, and flags take precedence over the
file. Exit codes follow the type a fault is raised with: 0 success; 1 for a
ConfigError (a bad file, key or flag value, or a config no table can serve,
found before the out dir is made), printed ``error: invalid configuration:
<msg>``, or a TableParseError, printed ``error: <file>: ...``; 2 for
anything else, a runtime failure, printed ``error: <Type>: <msg>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataset import TableParseError, read_lines, write_table
from .experiment import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    aggregate_runs,
    build_config,
    emit_outputs,
    make_out_dir,
    prepare_dataset,
    run_baseline_sweep,
    run_chain_experiment,
)
from .reports import RunRow, TraceRow, best_baseline_mean, read_rows


def parse_config_file(path: Path | str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid flags are invalid config, exit 1
        raise ConfigError(message)


def _make_parser() -> _Parser:
    parser = _Parser(prog="distillchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    for key, (_, _, help_text) in CONFIG_KEYS.items():
        common.add_argument(f"--{key}", dest=key.replace(".", "__"), metavar="V", help=help_text)
    sub.add_parser("synth", parents=[common], help="generate dataset CSVs")
    sub.add_parser("baseline", parents=[common], help="teacher-only labelled-fraction sweep")
    chain_p = sub.add_parser("chain", parents=[common], help="teacher-student chain sweep")
    chain_p.add_argument("--baseline-summary", metavar="PATH", help="summary.csv for the reference line")
    report_p = sub.add_parser("report", parents=[common], help="re-aggregate from persisted rows")
    report_p.add_argument("--baseline-summary", metavar="PATH", help="summary.csv for the reference line")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """The defaults, overridden by the config file, overridden by the flags;
    every invalid value is a ConfigError, and an unreadable or non-UTF-8 file a TableParseError."""
    values = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        value = getattr(args, key.replace(".", "__"))
        if value is not None:
            values[key] = value
    try:
        return build_config(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_synth(cfg: ExperimentConfig) -> None:
    train, val, test = prepare_dataset(cfg)
    out = Path(cfg.out_dir)
    make_out_dir(out)
    for name, table in (("train", train), ("validation", val), ("test", test)):
        write_table(out / f"{name}.csv", table)
    print(f"wrote {len(train)}/{len(val)}/{len(test)} samples under {out}")


def _cmd_report(cfg: ExperimentConfig, baseline_summary: str | None) -> None:
    """Re-aggregate a sweep's runs.csv and rewrite its files through the
    sweep's own writer; a missing traces.csv counts as no traces, and the
    resolved config is left as the sweep wrote it."""
    out = Path(cfg.out_dir)
    runs_path, traces_path = out / "runs.csv", out / "traces.csv"
    baseline = best_baseline_mean(baseline_summary) if baseline_summary else None
    traces = read_rows(traces_path, TraceRow) if traces_path.exists() else []
    rows = read_rows(runs_path, RunRow)
    try:
        summary = aggregate_runs(rows)
    except ValueError as exc:
        raise TableParseError(f"{runs_path}: {exc}") from None
    written = emit_outputs(summary, traces, out, baseline)
    print(f"re-aggregated {written[0]}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        cfg = _resolve_config(args)
        baseline_summary = getattr(args, "baseline_summary", None)
        if args.command == "synth":
            _cmd_synth(cfg)
        elif args.command == "report":
            _cmd_report(cfg, baseline_summary)
        else:  # baseline or chain
            chain = args.command == "chain"
            summary = run_chain_experiment(cfg, baseline_summary) if chain else run_baseline_sweep(cfg)
            cells = len({(row.fraction, row.run) for row in summary.details})  # a chain cell has two rows
            print(f"{args.command} sweep done: {cells} cells -> {cfg.out_dir}")
    except (ConfigError, TableParseError) as exc:
        label = "invalid configuration: " if isinstance(exc, ConfigError) else ""
        print(f"error: {label}{exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
