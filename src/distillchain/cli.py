"""Command-line surface: synth / baseline / chain / report.

Configuration is line-oriented ``key = value`` with ``#`` comments and dotted
section keys; every key is also exposed as a CLI flag of the same name, and
flags take precedence over the file. Exit codes: 0 success, 1 invalid
config, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .chain import ChainConfig
from .dataset import write_table
from .distill import DistillConfig
from .experiment import (
    ExperimentConfig,
    DataFiles,
    SyntheticSpec,
    _chart_reference,
    config_to_lines,
    prepare_dataset,
    run_baseline_sweep,
    run_chain_experiment,
    aggregate_runs,
)
from .learner import TrainConfig
from .reports import read_runs_csv, read_traces_csv, render_chain_svg, write_summary_csv


class ConfigError(ValueError):
    """Bad configuration file, key, or flag value."""


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int_or_none(text: str):
    return None if text.lower() == "none" else int(text)


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    if text.lower() in ("", "none"):
        return ()
    return tuple(int(v) for v in text.split(","))


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# key -> (parser, help); this registry is the single source of truth for the
# config file schema and the generated CLI flags.
_KEYS: dict[str, tuple] = {
    "source": (str, "dataset source: synthetic or files"),
    "synthetic.classes": (int, "number of synthetic classes"),
    "synthetic.per_class": (int, "samples per class before the 8:1:1 split"),
    "synthetic.dim": (int, "feature dimension"),
    "synthetic.spread": (float, "per-class Gaussian standard deviation"),
    "data.train": (str, "training table CSV (with .classes sidecar)"),
    "data.validation": (str, "validation table CSV"),
    "data.test": (str, "test table CSV"),
    "fractions": (_parse_float_tuple, "labelled fractions to sweep"),
    "runs": (int, "repeat runs per fraction"),
    "early_stop_fraction": (float, "held-out reserve for early stopping"),
    "balance_labelled": (_parse_bool, "class-balance the labelled draw"),
    "arch.hidden": (_parse_int_tuple, "hidden layer widths; none = softmax regression"),
    "seed": (int, "master seed"),
    "out": (str, "output directory"),
    "jobs": (int, "parallel (fraction, run) cells"),
    "dump_pseudo_labels": (_parse_bool, "write per-iteration pseudo-label CSVs"),
    "save_models": (_parse_bool, "write per-iteration model checkpoints"),
    "chain.iterations": (int, "students per chain"),
    "chain.fresh_init": (_parse_bool, "fresh seeded init per student"),
    "chain.per_class_cap": (_parse_int_or_none, "keep at most this many pseudo-labels per predicted class"),
    "chain.top_probs": (_parse_int_or_none, "keep only this many probabilities per pseudo-label"),
}
for _prefix in ("train", "chain.pretrain", "chain.finetune"):
    _KEYS[f"{_prefix}.learning_rate"] = (float, "Adam learning rate")
    _KEYS[f"{_prefix}.batch_size"] = (int, "minibatch size")
    _KEYS[f"{_prefix}.steps_per_epoch"] = (int, "minibatches per epoch (constant epoch size)")
    _KEYS[f"{_prefix}.max_epochs"] = (int, "epoch budget")
    _KEYS[f"{_prefix}.patience"] = (int, "non-improving epochs tolerated")


def parse_config_file(path: Path | str) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _defaults() -> dict[str, str]:
    flat = {}
    for line in config_to_lines(ExperimentConfig()):
        key, _, value = line.partition("=")
        flat[key.strip()] = value.strip()
    # data.* have no defaults; require them only when source = files.
    for key in ("data.train", "data.validation", "data.test"):
        flat.setdefault(key, "")
    return flat


def build_config(flat: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from merged defaults/file/flag strings."""
    parsed = {}
    for key, text in flat.items():
        parser = _KEYS[key][0]
        try:
            parsed[key] = parser(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from None

    if parsed["source"] == "synthetic":
        source = SyntheticSpec(
            classes=parsed["synthetic.classes"],
            per_class=parsed["synthetic.per_class"],
            dim=parsed["synthetic.dim"],
            spread=parsed["synthetic.spread"],
        )
    elif parsed["source"] == "files":
        missing = [k for k in ("data.train", "data.validation", "data.test") if not parsed[k]]
        if missing:
            raise ConfigError(f"source = files requires {', '.join(missing)}")
        source = DataFiles(
            train=parsed["data.train"],
            validation=parsed["data.validation"],
            test=parsed["data.test"],
        )
    else:
        raise ConfigError(f"source must be synthetic or files, got {parsed['source']!r}")

    def train_config(prefix: str) -> TrainConfig:
        return TrainConfig(
            learning_rate=parsed[f"{prefix}.learning_rate"],
            batch_size=parsed[f"{prefix}.batch_size"],
            steps_per_epoch=parsed[f"{prefix}.steps_per_epoch"],
            max_epochs=parsed[f"{prefix}.max_epochs"],
            patience=parsed[f"{prefix}.patience"],
        )

    try:
        chain = ChainConfig(
            iterations=parsed["chain.iterations"],
            distill=DistillConfig(
                per_class_cap=parsed["chain.per_class_cap"],
                top_probs=parsed["chain.top_probs"],
            ),
            pretrain=train_config("chain.pretrain"),
            finetune=train_config("chain.finetune"),
            fresh_init_per_student=parsed["chain.fresh_init"],
        )
        return ExperimentConfig(
            source=source,
            fractions=parsed["fractions"],
            runs=parsed["runs"],
            early_stop_fraction=parsed["early_stop_fraction"],
            balance_labelled=parsed["balance_labelled"],
            arch_hidden=parsed["arch.hidden"],
            train=train_config("train"),
            chain=chain,
            seed=parsed["seed"],
            out_dir=parsed["out"],
            jobs=parsed["jobs"],
            dump_pseudo_labels=parsed["dump_pseudo_labels"],
            save_models=parsed["save_models"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid flags are invalid config, exit 1
        raise ConfigError(message)


def _make_parser() -> _Parser:
    parser = _Parser(prog="distillchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    for key, (_, help_text) in _KEYS.items():
        common.add_argument(f"--{key}", dest=key.replace(".", "__"), metavar="V", help=help_text)
    sub.add_parser("synth", parents=[common], help="generate dataset CSVs")
    sub.add_parser("baseline", parents=[common], help="teacher-only labelled-fraction sweep")
    chain_p = sub.add_parser("chain", parents=[common], help="teacher-student chain sweep")
    chain_p.add_argument("--baseline-summary", metavar="PATH", help="summary.csv for the reference line")
    report_p = sub.add_parser("report", parents=[common], help="re-aggregate from persisted rows")
    report_p.add_argument("--baseline-summary", metavar="PATH", help="summary.csv for the reference line")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    flat = _defaults()
    if args.config:
        flat.update(parse_config_file(args.config))
    for key in _KEYS:
        value = getattr(args, key.replace(".", "__"), None)
        if value is not None:
            flat[key] = value
    return build_config(flat)


def _cmd_synth(cfg: ExperimentConfig) -> None:
    train, val, test = prepare_dataset(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in (("train", train), ("validation", val), ("test", test)):
        write_table(out / f"{name}.csv", table)
    print(f"wrote {len(train)}/{len(val)}/{len(test)} samples under {out}")


def _cmd_report(cfg: ExperimentConfig, baseline_summary: str | None) -> None:
    out = Path(cfg.out_dir)
    runs_path = out / "runs.csv"
    if not runs_path.exists():
        raise ConfigError(f"no runs.csv under {out}; run a sweep first")
    summary = aggregate_runs(read_runs_csv(runs_path))
    write_summary_csv(out / "summary.csv", summary)
    traces_path = out / "traces.csv"
    if traces_path.exists():
        traces = read_traces_csv(traces_path)
        if traces:
            reference = _chart_reference(traces, baseline_summary)
            (out / "chain_curves.svg").write_text(
                render_chain_svg(traces, baseline_reference=reference), encoding="utf-8"
            )
    print(f"re-aggregated {out / 'summary.csv'}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "synth":
            _cmd_synth(cfg)
        elif args.command == "baseline":
            summary = run_baseline_sweep(cfg)
            print(f"baseline sweep done: {len(summary.details)} cells -> {cfg.out_dir}")
        elif args.command == "chain":
            summary = run_chain_experiment(cfg, baseline_summary=args.baseline_summary)
            print(f"chain sweep done: {len(summary.details)} cells -> {cfg.out_dir}")
        elif args.command == "report":
            _cmd_report(cfg, args.baseline_summary)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
