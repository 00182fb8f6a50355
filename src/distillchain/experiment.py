"""Configuration-driven experiment runner.

Runs labelled-fraction sweeps for the supervised baseline and for the
teacher-student chain across seeded repeat runs, aggregates to mean/std, and
persists CSV/SVG reports. The whole experiment is a pure function of
(config, master seed): every per-cell seed derives from the master seed via
numpy SeedSequence spawn keys, and (fraction, run) cells are independent, so
``jobs`` never changes any output byte.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import ClassVar

import numpy as np

from .chain import ChainAborted, ChainConfig, run_chains
from .dataset import (
    DataTable,
    SplitSpec,
    TableParseError,
    generate_synthetic,
    make_splits,
    normalize_splits,
    read_table,
)
from .learner import ArchSpec, TrainConfig, save_model
from .reports import (
    RunRow,
    RunSummary,
    SummaryCell,
    TraceRow,
    best_baseline_mean,
    fraction_tag,
    render_chain_svg,
    write_confusion_csv,
    write_rows,
    write_summary_csv,
)

DEFAULT_FRACTIONS = (0.0025, 0.005, 0.01, 0.05, 0.20, 1.0)

# Seed-derivation roles; a cell seed is derive_seed(master, role, fraction_idx, run).
_ROLE_DATASET = 0
_ROLE_SPLIT = 1
_ROLE_TRAIN = 2
_ROLE_CHAIN = 3


@dataclass(frozen=True)
class SyntheticSpec:
    kind: ClassVar[str] = "synthetic"  # the value of the ``source`` key

    classes: int = 9
    per_class: int = 900
    dim: int = 16
    spread: float = 0.9


def _check_echoable(key: str, text: str) -> None:
    """What the config_resolved.cfg echo can carry: the config file reader
    splits lines, cuts each at its first ``#`` and strips the value."""
    if "#" in text or len(text.splitlines()) > 1 or text.strip() != text:
        raise ValueError(f"{key} must hold no '#' or line break, nor edge whitespace: {text!r}")


@dataclass(frozen=True)
class DataFiles:
    kind: ClassVar[str] = "files"

    train: str
    validation: str
    test: str

    def __post_init__(self) -> None:
        for name in ("train", "validation", "test"):
            _check_echoable(f"data.{name}", getattr(self, name))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; defaults reproduce the synthetic benchmark.

    The chain fine-tune default runs gentler and shorter than pretraining so
    the small labelled set refines rather than overwrites what the student
    learned from the pool.
    """

    source: SyntheticSpec | DataFiles = field(default_factory=SyntheticSpec)
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    runs: int = 5
    early_stop_fraction: float = 0.01
    balance_labelled: bool = False
    arch_hidden: tuple[int, ...] = ()
    train: TrainConfig = field(default_factory=TrainConfig)
    chain: ChainConfig = field(
        default_factory=lambda: ChainConfig(
            finetune=TrainConfig(learning_rate=3e-4, max_epochs=60, patience=10)
        )
    )
    seed: int = 0
    out_dir: str = "results"
    jobs: int = 1
    dump_pseudo_labels: bool = False
    save_models: bool = False

    def __post_init__(self) -> None:
        if not self.fractions:
            raise ValueError("fractions must be non-empty")
        if any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise ValueError("fractions must lie in (0, 1]")
        if any(b <= a for a, b in zip(self.fractions, self.fractions[1:])):
            raise ValueError("fractions must be strictly increasing")
        # a cell's files are named by its fraction's tag
        if len({fraction_tag(f) for f in self.fractions}) != len(self.fractions):
            raise ValueError("fractions must differ in their output tags (6 significant digits)")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.chain.iterations < 1:
            raise ValueError("chain.iterations must be >= 1")
        if any(width < 1 for width in self.arch_hidden):
            raise ValueError("arch.hidden widths must be positive")
        for fraction in self.fractions:  # SplitSpec's rules, before any cell runs
            SplitSpec(fraction, self.early_stop_fraction)
        _check_echoable("out", self.out_dir)


_SOURCES = {source.kind: source for source in (SyntheticSpec, DataFiles)}


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_or_none(text: str) -> int | None:
    return None if text.lower() == "none" else int(text)


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    if text.lower() in ("", "none"):
        return ()
    return tuple(int(v) for v in text.split(","))


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# The configuration schema, the one source of the config file's keys, the
# CLI flags, build_config and the config_resolved.cfg echo, in echo order:
# key -> (parser of its text, dotted attribute path into ExperimentConfig,
# help). A ``source.*`` path is a field of the source class that ``source``
# selects, and is read and echoed only under that source.
CONFIG_KEYS: dict[str, tuple] = {
    "source": (str, "source.kind", "dataset source: synthetic or files"),
    "synthetic.classes": (int, "source.classes", "number of synthetic classes"),
    "synthetic.per_class": (int, "source.per_class", "samples per class before the 8:1:1 split"),
    "synthetic.dim": (int, "source.dim", "feature dimension"),
    "synthetic.spread": (float, "source.spread", "per-class Gaussian standard deviation"),
    "data.train": (str, "source.train", "training table CSV (with .classes sidecar)"),
    "data.validation": (str, "source.validation", "validation table CSV"),
    "data.test": (str, "source.test", "test table CSV"),
    "fractions": (_parse_float_tuple, "fractions", "labelled fractions to sweep"),
    "runs": (int, "runs", "repeat runs per fraction"),
    "early_stop_fraction": (float, "early_stop_fraction", "held-out reserve for early stopping"),
    "balance_labelled": (_parse_bool, "balance_labelled", "class-balance the labelled draw"),
    "arch.hidden": (_parse_int_tuple, "arch_hidden", "hidden layer widths; none = softmax regression"),
    "seed": (int, "seed", "master seed"),
    "out": (str, "out_dir", "output directory"),
    "jobs": (int, "jobs", "parallel (fraction, run) cells"),
    "dump_pseudo_labels": (_parse_bool, "dump_pseudo_labels", "write per-iteration pseudo-label CSVs"),
    "save_models": (_parse_bool, "save_models", "write per-iteration model checkpoints"),
    "chain.iterations": (int, "chain.iterations", "students per chain"),
    "chain.fresh_init": (_parse_bool, "chain.fresh_init_per_student", "fresh seeded init per student"),
    "chain.per_class_cap": (
        _parse_int_or_none, "chain.distill.per_class_cap",
        "keep at most this many pseudo-labels per predicted class",
    ),
    "chain.top_probs": (
        _parse_int_or_none, "chain.distill.top_probs", "keep only this many probabilities per pseudo-label"
    ),
}
# the TrainConfig keys, whose key prefix is their attribute path
CONFIG_KEYS.update(
    (f"{prefix}.{name}", (parse, f"{prefix}.{name}", help_text))
    for prefix in ("train", "chain.pretrain", "chain.finetune")
    for name, parse, help_text in (
        ("learning_rate", float, "Adam learning rate"),
        ("batch_size", int, "minibatch size"),
        ("steps_per_epoch", int, "minibatches per epoch (constant epoch size)"),
        ("max_epochs", int, "epoch budget"),
        ("patience", int, "non-improving epochs tolerated"),
    )
)


def build_config(values: dict[str, str]) -> ExperimentConfig:
    """The ExperimentConfig of ``values`` (CONFIG_KEYS key -> text): the
    dataclass defaults, overridden by each given value. Every text is
    parsed, a field of the source not selected too. Raises ValueError."""
    parsed = {}
    for key, text in values.items():
        parse, path, _ = CONFIG_KEYS[key]
        try:
            parsed[path] = parse(text)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad value for {key}: {text!r} ({exc})") from None
    kind = parsed.pop("source.kind", SyntheticSpec.kind)
    if kind not in _SOURCES:
        raise ValueError(f"source must be synthetic or files, got {kind!r}")
    source_type = _SOURCES[kind]
    required = {f"source.{f.name}" for f in fields(source_type) if f.default is MISSING}
    missing = [key for key, (_, path, _) in CONFIG_KEYS.items() if path in required and not parsed.get(path)]
    if missing:
        raise ValueError(f"source = {kind} requires {', '.join(missing)}")
    names = {f"source.{f.name}": f.name for f in fields(source_type)}
    source = source_type(**{names[path]: value for path, value in parsed.items() if path in names})
    rest = {path: value for path, value in parsed.items() if not path.startswith("source.")}
    return _replaced(ExperimentConfig(source=source), rest)


def _replaced(obj, values: dict[str, object]):
    """``obj`` with the attribute at each dotted path of ``values`` set; each
    dataclass on a path is rebuilt, and so validated, once."""
    changes, nested = {}, {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            changes[head] = value
    for head, sub in nested.items():
        changes[head] = _replaced(getattr(obj, head), sub)
    return replace(obj, **changes)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt_value(v) for v in value) if value else "none"
    if value is None:
        return "none"
    return str(value)


def config_to_lines(cfg: ExperimentConfig) -> list[str]:
    """Flat ``key = value`` echo of every setting, written next to results so
    each run records exactly what produced it; build_config reads it back
    to an equal config."""
    return [
        f"{key} = {_fmt_value(attrgetter(path)(cfg))}"
        for key, (_, path, _) in CONFIG_KEYS.items()
        if not path.startswith("source.") or hasattr(cfg.source, path.removeprefix("source."))
    ]


def derive_seed(master: int, *key: int) -> int:
    """Deterministic per-cell seed: SeedSequence(master) spawned at ``key``."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def prepare_dataset(cfg: ExperimentConfig) -> tuple[DataTable, DataTable, DataTable]:
    """Generate the synthetic tables (seeded from the master seed) or load
    the configured CSV files, every row labelled (read_table rejects an
    empty label). Their ``.classes`` sidecars must agree, else a
    TableParseError: labels are encoded by catalog index, so a reordered
    catalog would silently score validation or test labels as other
    classes."""
    if isinstance(cfg.source, SyntheticSpec):
        s = cfg.source
        return generate_synthetic(
            classes=s.classes,
            per_class=s.per_class,
            dim=s.dim,
            spread=s.spread,
            seed=derive_seed(cfg.seed, _ROLE_DATASET),
        )
    files = cfg.source
    tables = (read_table(files.train), read_table(files.validation), read_table(files.test))
    for path, table in zip((files.train, files.validation, files.test), tables):
        if table.catalog != tables[0].catalog:
            raise TableParseError(
                f"class catalog of {path} ({','.join(table.catalog.names)}) differs from "
                f"that of {files.train} ({','.join(tables[0].catalog.names)})"
            )
    return tables


@dataclass(frozen=True)
class _CellOutput:
    rows: tuple[RunRow, ...]
    traces: tuple[TraceRow, ...] = ()
    confusions: tuple[tuple[float, int, np.ndarray], ...] = ()


# All that tells the two sweeps apart: a cell's seed role and row modes, the
# chain it runs (the baseline's has no students), and its output function.
_Sweep = tuple[int, tuple[str, ...], ChainConfig, Callable[..., _CellOutput]]


def _skipped(bases: tuple[RunRow, ...], exc: Exception) -> _CellOutput:
    status = "skipped: " + str(exc).replace(",", ";").replace("\n", " ")
    return _CellOutput(rows=tuple(replace(b, status=status) for b in bases))


def _prepare_cells(dataset, cfg, sweep, cells):
    """Each (f_idx, run) cell's base rows, one per mode of ``sweep`` and
    seeded by its role, with its normalized splits and its pool's truth; a
    cell whose split fails, or whose pool is empty while the chain has
    students, gets skip rows instead, keyed by its position in ``cells``.
    The pool, validation and test are not copied: they are normalized where
    read."""
    role, modes, chain_cfg, _ = sweep
    train = dataset[0]
    prepared, skipped = [], {}
    for slot, (f_idx, run) in enumerate(cells):
        fraction = cfg.fractions[f_idx]
        seed = derive_seed(cfg.seed, role, f_idx, run)
        bases = tuple(RunRow(mode=mode, fraction=fraction, run=run, seed=seed) for mode in modes)
        try:
            spec = SplitSpec(
                labelled_fraction=fraction,
                early_stop_fraction=cfg.early_stop_fraction,
                seed=derive_seed(cfg.seed, _ROLE_SPLIT, f_idx, run),
                balance_labelled=cfg.balance_labelled,
            )
            splits, truth = make_splits(train, spec)
            if chain_cfg.iterations > 0 and len(splits.pool) == 0:
                raise ValueError("empty pool")
            splits = normalize_splits(splits)
        except ValueError as exc:
            skipped[slot] = _skipped(bases, exc)
            continue
        prepared.append((slot, bases, splits, truth))
    return prepared, skipped


def _run_cells(
    dataset: tuple[DataTable, DataTable, DataTable],
    cfg: ExperimentConfig,
    sweep: _Sweep,
    cells: list[tuple[int, int]],
) -> list[_CellOutput]:
    """(f_idx, run) cells of ``sweep``: every trainable cell's chain advanced
    together by ``run_chains``, and each outcome turned into the cell's
    output by the sweep's output function. A cell that ``_prepare_cells``
    skips becomes its skip rows."""
    _, _, chain_cfg, output = sweep
    train, val, test = dataset
    arch = ArchSpec(input_dim=train.dim, hidden=cfg.arch_hidden, output_dim=train.catalog.size)
    prepared, outputs = _prepare_cells(dataset, cfg, sweep, cells)
    results = run_chains(
        [(splits, truth, val, test, bases[0].seed) for _, bases, splits, truth in prepared],
        arch,
        chain_cfg,
        keep_pseudo_labels=cfg.dump_pseudo_labels,
    )
    for (slot, bases, splits, _), result in zip(prepared, results):
        outputs[slot] = output(cfg, bases, splits, result)
    return [outputs[slot] for slot in range(len(cells))]


def _baseline_output(cfg, bases, splits, result) -> _CellOutput:
    """The row and confusion of one teacher trained alone, plus its optional
    checkpoint; a failed teacher's skip row names its training error."""
    if isinstance(result, ChainAborted):
        return _skipped(bases, result.__cause__)
    (teacher,) = result.records
    row = replace(bases[0], val_accuracy=teacher.val_accuracy, test_accuracy=teacher.test_accuracy)
    _write_cell_artifacts(cfg, row.fraction, row.run, splits, result)
    return _CellOutput(rows=(row,), confusions=((row.fraction, row.run, teacher.confusion),))


def _chain_output(cfg, bases, splits, result) -> _CellOutput:
    """Rows, traces and the best member's confusion of one finished chain,
    plus its optional files; an aborted chain's skip rows name the abort."""
    if isinstance(result, ChainAborted):
        return _skipped(bases, result)
    fraction, run = bases[0].fraction, bases[0].run
    best = result.records[result.best_iteration]
    rows = tuple(
        replace(
            base,
            iteration=rec.iteration,
            val_accuracy=rec.val_accuracy,
            test_accuracy=rec.test_accuracy,
        )
        for base, rec in zip(bases, (best, result.records[-1]))
    )
    traces = tuple(
        TraceRow(
            run=run,
            fraction=fraction,
            iteration=rec.iteration,
            val_accuracy=rec.val_accuracy,
            test_accuracy=rec.test_accuracy,
            pseudo_count=rec.pseudo_count,
            pseudo_agreement=rec.pseudo_agreement,
        )
        for rec in result.records
    )
    _write_cell_artifacts(cfg, fraction, run, splits, result)
    return _CellOutput(
        rows=rows, traces=traces, confusions=((fraction, run, best.confusion),)
    )


def _write_cell_artifacts(cfg, fraction, run, splits, result) -> None:
    """Optional per-cell files: model checkpoints and pseudo-label dumps."""
    out = Path(cfg.out_dir)
    tag = f"{fraction_tag(fraction)}_{run}"
    if cfg.save_models:
        for rec in result.records:
            save_model(out / f"model_{tag}_iter{rec.iteration}.json", rec.model, seed=result.seeds[rec.iteration])
    if cfg.dump_pseudo_labels:
        c = splits.pool.catalog.size
        for rec in result.records[1:]:
            labels = rec.pseudo_labels
            lines = ["sample_id,top_class,confidence," + ",".join(f"p{j}" for j in range(c))]
            lines += [
                f"{sid},{top},{conf!r}," + ",".join(map(repr, soft))
                for sid, top, conf, soft in zip(
                    splits.pool.ids[labels.positions].tolist(), labels.top.tolist(),
                    labels.confidence.tolist(), labels.soft.tolist(),
                )
            ]
            (out / f"pseudo_{tag}_iter{rec.iteration}.csv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )


# Cells trained in one lockstep group at most. Memory grows with every cell
# in flight, while past about eight members a stacked training step gets
# little cheaper per model: on a 2-core x86 host, per model and step, about
# 40 us alone, 18 at eight members and 16 at sixteen for softmax regression,
# and 99, 42 and 41 us for hidden layers (32, 16) (medians, BENCH_7.json).
_GROUP_CELLS = 8


def _cell_groups(cells: list, jobs: int) -> list[list]:
    """Contiguous groups of at most ``_GROUP_CELLS`` cells, as even as
    possible, and at least one per worker while there are cells to share."""
    count = min(len(cells), max(jobs, -(-len(cells) // _GROUP_CELLS)))
    bounds = [len(cells) * g // count for g in range(count + 1)]
    return [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _execute_cells(
    cfg: ExperimentConfig, sweep: _Sweep, dataset: tuple[DataTable, DataTable, DataTable]
) -> list[_CellOutput]:
    """Run every (fraction, run) cell of ``sweep`` in lockstep groups from
    ``_cell_groups``, each by one ``_run_cells`` on ``dataset``: one group
    after another at jobs = 1, otherwise shared out to worker processes,
    which receive the tables by pickle and read no input."""
    cells = [(f_idx, run) for f_idx in range(len(cfg.fractions)) for run in range(cfg.runs)]
    groups = _cell_groups(cells, cfg.jobs)
    run = partial(_run_cells, dataset, cfg, sweep)
    if cfg.jobs == 1:
        return [out for outputs in map(run, groups) for out in outputs]
    with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(groups))) as pool:
        return [out for outputs in pool.map(run, groups) for out in outputs]


def aggregate_runs(rows: list[RunRow] | tuple[RunRow, ...]) -> RunSummary:
    """Mean, sample (n-1) std, min, max of validation and test accuracy per
    (mode, fraction) over the non-skipped runs. Cells with a single value
    report std 0 flagged ``n=1``; cells with no usable runs stay visible as
    ``no data`` warning rows."""
    groups: dict[tuple[float, str], list[RunRow]] = {}
    for row in rows:
        groups.setdefault((row.fraction, row.mode), []).append(row)

    cells: list[SummaryCell] = []
    for fraction, mode in sorted(groups):
        ok = [r for r in groups[(fraction, mode)] if r.ok]
        for metric in ("val_accuracy", "test_accuracy"):
            if not ok:
                cells.append(
                    SummaryCell(mode, fraction, metric, None, None, None, None, 0, "no data")
                )
                continue
            values = np.array([getattr(r, metric) for r in ok], dtype=np.float64)
            note = "n=1" if values.size == 1 else ""
            std = 0.0 if values.size == 1 else float(values.std(ddof=1))
            mean, lo, hi = float(values.mean()), float(values.min()), float(values.max())
            cells.append(SummaryCell(mode, fraction, metric, mean, std, lo, hi, values.size, note))
    ordered = tuple(sorted(rows, key=lambda r: (r.fraction, r.mode, r.run)))
    return RunSummary(cells=tuple(cells), details=ordered)


def emit_outputs(
    summary: RunSummary,
    traces: list[TraceRow] | tuple[TraceRow, ...],
    out_dir: Path | str,
    confusions: list[tuple[float, int, np.ndarray]] | None = None,
    catalog=None,
    baseline_reference: float | None = None,
    config_lines: list[str] | None = None,
) -> list[Path]:
    """Write summary.csv, runs.csv, traces.csv, per-cell confusion matrices,
    and (when there are traces) chain_curves.svg. Rerunning with identical
    inputs rewrites identical bytes."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = [out / "summary.csv", out / "runs.csv", out / "traces.csv"]
        write_summary_csv(written[0], summary)
        write_rows(written[1], RunRow, sorted(summary.details, key=attrgetter("fraction", "mode", "run")))
        write_rows(written[2], TraceRow, sorted(traces, key=attrgetter("fraction", "run", "iteration")))
        for fraction, run, confusion in sorted(
            confusions or [], key=lambda c: (c[0], c[1])
        ):
            path = out / f"confusion_{fraction_tag(fraction)}_{run}.csv"
            write_confusion_csv(path, catalog, confusion)
            written.append(path)
        if traces:
            svg = render_chain_svg(traces, baseline_reference=baseline_reference)
            (out / "chain_curves.svg").write_text(svg, encoding="utf-8")
            written.append(out / "chain_curves.svg")
        if config_lines is not None:
            (out / "config_resolved.cfg").write_text(
                "\n".join(config_lines) + "\n", encoding="utf-8"
            )
            written.append(out / "config_resolved.cfg")
        return written
    except OSError as exc:
        raise OSError(f"cannot write outputs under {out}: {exc}") from exc


def _sweep(cfg: ExperimentConfig, sweep: _Sweep):
    """Every cell of ``cfg`` run as ``sweep``: the summary of their rows,
    their traces and confusions, and the dataset's catalog."""
    dataset = prepare_dataset(cfg)
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    outputs = _execute_cells(cfg, sweep, dataset)
    summary = aggregate_runs([r for cell in outputs for r in cell.rows])
    traces = [t for cell in outputs for t in cell.traces]
    confusions = [c for cell in outputs for c in cell.confusions]
    return summary, traces, confusions, dataset[0].catalog


def run_baseline_sweep(cfg: ExperimentConfig) -> RunSummary:
    """Teacher-only sweep: per (fraction, run), a chain without students on a
    fresh seeded split, so its teacher trains with ``cfg.train`` on the
    labelled subset alone and is evaluated on validation and test."""
    teacher = ChainConfig(iterations=0, finetune=cfg.train)
    summary, _, confusions, catalog = _sweep(cfg, (_ROLE_TRAIN, ("baseline",), teacher, _baseline_output))
    emit_outputs(summary, [], cfg.out_dir, confusions, catalog, config_lines=config_to_lines(cfg))
    return summary


def run_chain_experiment(
    cfg: ExperimentConfig, baseline_summary: Path | str | None = None
) -> RunSummary:
    """Chain sweep: per (fraction, run), a full teacher-student chain on a
    fresh seeded split; summary covers best-selected and final iterations.

    Fractions without a pool (labelled_fraction 1.0) become skip rows. When a
    baseline summary.csv path is given, its best mean test accuracy becomes
    the reference line of the chain chart; otherwise the chart falls back to
    the best mean teacher accuracy from this experiment's own traces. The
    summary is read before the sweep, so a file that is missing, is not a
    summary.csv or has no baseline row fails it before any cell runs.
    """
    baseline = best_baseline_mean(baseline_summary) if baseline_summary else None
    sweep = (_ROLE_CHAIN, ("chain_best", "chain_final"), cfg.chain, _chain_output)
    summary, traces, confusions, catalog = _sweep(cfg, sweep)
    reference = _chart_reference(traces, baseline)
    emit_outputs(summary, traces, cfg.out_dir, confusions, catalog, reference, config_to_lines(cfg))
    return summary


def _chart_reference(traces: list[TraceRow], baseline: float | None) -> float | None:
    """The chain chart's reference line: ``baseline``, the best mean
    baseline test accuracy of a summary, when there is one, else the best
    mean teacher test accuracy of ``traces``."""
    if baseline is not None:
        return baseline
    by_fraction: dict[float, list[float]] = {}
    for t in traces:
        if t.iteration == 0:
            by_fraction.setdefault(t.fraction, []).append(t.test_accuracy)
    means = [float(np.mean(v)) for v in by_fraction.values()]
    return max(means) if means else None

