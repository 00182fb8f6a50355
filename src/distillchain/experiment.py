"""Configuration-driven experiment runner.

Runs labelled-fraction sweeps for the supervised baseline and for the
teacher-student chain across seeded repeat runs, aggregates to mean/std, and
persists CSV/SVG reports. The whole experiment is a pure function of
(config, master seed): every per-cell seed derives from the master seed via
numpy SeedSequence spawn keys, and (fraction, run) cells are independent, so
``jobs`` never changes any output byte.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import ClassVar

import numpy as np

from .chain import ChainAborted, ChainConfig, ChainResult, run_chains
from .dataset import (
    DataTable,
    SplitSpec,
    TableParseError,
    early_stop_size,
    generate_synthetic,
    make_splits,
    missing_classes,
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
    write_csv,
    write_rows,
)

DEFAULT_FRACTIONS = (0.0025, 0.005, 0.01, 0.05, 0.20, 1.0)

# Seed-derivation roles; a cell seed is derive_seed(master, role, fraction_idx, run).
_ROLE_DATASET = 0
_ROLE_SPLIT = 1
_ROLE_TRAIN = 2
_ROLE_CHAIN = 3


class ConfigError(ValueError):
    """Bad configuration file, key or flag value, or a config no table can
    serve, found before a sweep makes its out dir."""


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
    """Generate the synthetic tables (seeded from the master seed; a spec
    no table can be generated from is a ConfigError) or load the
    configured CSV files, every row labelled (read_table rejects an empty
    label). Validation and test must have rows, the train table's catalog
    and its feature count, and the train table a row of every class, else a
    TableParseError naming the file: every cell would score or split on
    them, and labels are encoded by catalog index, so a reordered catalog
    would silently score validation or test labels as other classes."""
    if isinstance(cfg.source, SyntheticSpec):
        try:  # the spec's fields are the generator's parameters
            return generate_synthetic(**asdict(cfg.source), seed=derive_seed(cfg.seed, _ROLE_DATASET))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    files = cfg.source
    tables = (read_table(files.train), read_table(files.validation), read_table(files.test))
    for path, table in zip((files.validation, files.test), tables[1:]):
        if (table.catalog, table.dim) != (tables[0].catalog, tables[0].dim) or not len(table):
            raise TableParseError(
                f"{path} has {len(table)} rows of {table.dim} features in classes {','.join(table.catalog.names)}; "
                f"{files.train} has {tables[0].dim} features in classes {','.join(tables[0].catalog.names)}"
            )
    if missing := missing_classes(tables[0]):
        raise TableParseError(f"{files.train} has no samples for classes {missing}")
    return tables


def _cell_seed(cfg: ExperimentConfig, chain_cfg: ChainConfig, f_idx: int, run: int) -> int:
    """A cell's seed, derived under its role: a chain without students is
    the baseline."""
    return derive_seed(cfg.seed, _ROLE_CHAIN if chain_cfg.iterations else _ROLE_TRAIN, f_idx, run)


def _cell_splits(train: DataTable, cfg: ExperimentConfig, chain_cfg: ChainConfig, f_idx: int, run: int):
    """A cell's normalized splits and its pool's truth. Raises the
    ValueError of a failed split, or ``empty pool`` when the chain has
    students. The pool is not copied: it is normalized where read."""
    spec = SplitSpec(
        labelled_fraction=cfg.fractions[f_idx],
        early_stop_fraction=cfg.early_stop_fraction,
        seed=derive_seed(cfg.seed, _ROLE_SPLIT, f_idx, run),
        balance_labelled=cfg.balance_labelled,
    )
    splits, truth = make_splits(train, spec)
    if chain_cfg.iterations and len(splits.pool) == 0:
        raise ValueError("empty pool")
    return normalize_splits(splits), truth


def _run_cells(
    dataset: tuple[DataTable, DataTable, DataTable],
    cfg: ExperimentConfig,
    chain_cfg: ChainConfig,
    cells: list[tuple[int, int]],
) -> list[tuple[tuple[int, int], np.ndarray | None, ChainResult | ChainAborted | ValueError]]:
    """Per (f_idx, run) cell, in order, the cell, its pool's sample ids and
    its outcome: the ValueError its split raised, or the ChainResult or
    ChainAborted of its chain of ``chain_cfg``, every trainable cell's chain
    advanced together by ``run_chains``. It runs in a worker at jobs > 1,
    so it opens no file and builds no row."""
    train, val, test = dataset
    arch = ArchSpec(input_dim=train.dim, hidden=cfg.arch_hidden, output_dim=train.catalog.size)
    outputs, chains = [], []
    for cell in cells:
        try:
            splits, truth = _cell_splits(train, cfg, chain_cfg, *cell)
        except ValueError as exc:  # its traceback's frames would keep the cell's tables alive
            outputs.append((cell, None, exc.with_traceback(None)))
            continue
        outputs.append((cell, splits.pool.ids, None))
        chains.append((splits, truth, val, test, _cell_seed(cfg, chain_cfg, *cell)))
    results = iter(run_chains(chains, arch, chain_cfg, keep_pseudo_labels=cfg.dump_pseudo_labels))
    return [(cell, ids, next(results) if outcome is None else outcome) for cell, ids, outcome in outputs]


def _finish_cell(cfg, chain_cfg, catalog, cell, pool_ids, outcome) -> tuple[list[RunRow], list[TraceRow]]:
    """A cell's rows and trace rows from its ``_run_cells`` output, with its
    files written. A chain's cell has rows from its best member and its
    final member, and a trace row per member; a baseline cell (a chain
    without students) has one row, from its teacher with ``iteration``
    left empty, and no traces. A cell that did not train gets skip rows
    naming its error: its split's, its chain's abort or, for the baseline,
    the teacher's own. A trained cell writes its best member's confusion
    and, as configured, every member's checkpoint and every student's
    pseudo-labels."""
    f_idx, run = cell
    fraction, seed = cfg.fractions[f_idx], _cell_seed(cfg, chain_cfg, f_idx, run)
    students = chain_cfg.iterations > 0
    modes = ("chain_best", "chain_final") if students else ("baseline",)
    if isinstance(outcome, Exception):
        error = outcome.__cause__ if isinstance(outcome, ChainAborted) and not students else outcome
        status = "skipped: " + str(error).replace(",", ";").replace("\n", " ")
        return [RunRow(mode, fraction, run, seed, status) for mode in modes], []
    records, best, seeds = outcome.records, outcome.records[outcome.best_iteration], outcome.seeds
    rows = [
        RunRow(
            mode, fraction, run, seed,
            iteration=rec.iteration if students else None,
            val_accuracy=rec.val_accuracy,
            test_accuracy=rec.test_accuracy,
        )
        for mode, rec in zip(modes, (best, records[-1]))
    ]
    traces = [
        TraceRow(
            run, fraction, rec.iteration, rec.val_accuracy, rec.test_accuracy,
            rec.pseudo_count, rec.pseudo_agreement,
        )
        for rec in (records if students else ())
    ]
    out = Path(cfg.out_dir)
    tag = f"{fraction_tag(fraction)}_{run}"
    write_confusion_csv(out / f"confusion_{tag}.csv", catalog, best.confusion)
    if cfg.save_models:
        for rec in records:
            save_model(out / f"model_{tag}_iter{rec.iteration}.json", rec.model, seed=seeds[rec.iteration])
    if cfg.dump_pseudo_labels:
        header = ["sample_id", "top_class", "confidence", *(f"p{j}" for j in range(catalog.size))]
        for rec in records[1:]:
            labels = rec.pseudo_labels
            cols = (pool_ids[labels.positions], labels.top, labels.confidence, *labels.soft.T)
            write_csv(out / f"pseudo_{tag}_iter{rec.iteration}.csv", header, zip(*(c.tolist() for c in cols)))
    return rows, traces


# Cells trained in one lockstep group at most, a bound on memory: each cell in
# flight holds its chain's tables, while larger groups run fewer stacked steps
# and so train faster. The default chain sweep at jobs = 1 (BENCH_29.json), by
# cap, stacked steps / traced heap peak: 8: 125,100 / 11.5 MiB; 12: 99,000 /
# 14.0 MiB; 16: 68,800 / 20.2 MiB; one group of 30: 38,200 / 32.7 MiB. Budget 24 MiB.
_GROUP_CELLS = 16


def _cell_groups(cells: list, jobs: int) -> list[list]:
    """Contiguous groups of at most ``_GROUP_CELLS`` cells, as even as
    possible, and at least one per worker while there are cells to share."""
    count = min(len(cells), max(jobs, -(-len(cells) // _GROUP_CELLS)))
    bounds = [len(cells) * g // count for g in range(count + 1)]
    return [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _execute_cells(
    cfg: ExperimentConfig, chain_cfg: ChainConfig, dataset: tuple[DataTable, DataTable, DataTable]
) -> Iterator[tuple]:
    """Every (fraction, run) cell's ``_run_cells`` output, a chain of
    ``chain_cfg`` on ``dataset``, in order, as each lockstep group of
    ``_cell_groups`` finishes: one after another at jobs = 1, otherwise in
    worker processes, which receive the tables by pickle and read no input.
    A group is dropped once its last cell is taken, before the next group
    is waited for."""
    cells = [(f_idx, run) for f_idx in range(len(cfg.fractions)) for run in range(cfg.runs)]
    groups = _cell_groups(cells, cfg.jobs)
    run = partial(_run_cells, dataset, cfg, chain_cfg)
    if cfg.jobs == 1:
        yield from itertools.chain.from_iterable(map(run, groups))
        return
    from concurrent.futures import ProcessPoolExecutor  # a jobs = 1 sweep needs no multiprocessing

    with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(groups))) as pool:
        yield from itertools.chain.from_iterable(pool.map(run, groups))


def aggregate_runs(rows: list[RunRow] | tuple[RunRow, ...]) -> RunSummary:
    """Mean, sample (n-1) std, min, max of validation and test accuracy per
    (mode, fraction) over the non-skipped runs. Cells with a single value
    report std 0 flagged ``n=1``; cells with no usable runs stay visible as
    ``no data`` warning rows. A repeated (mode, fraction, run) is a ValueError."""
    keys = [(r.mode, r.fraction, r.run) for r in rows]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated (mode, fraction, run) {max(keys, key=keys.count)}")
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
    return RunSummary(cells=tuple(cells), details=tuple(sorted(rows, key=attrgetter("fraction", "mode", "run"))))


def emit_outputs(
    summary: RunSummary,
    traces: list[TraceRow] | tuple[TraceRow, ...],
    out_dir: Path | str,
    baseline_reference: float | None = None,
    config_lines: list[str] | None = None,
) -> list[Path]:
    """Write the sweep-level files into the existing dir ``out_dir``:
    summary.csv, runs.csv, traces.csv and (when there are traces)
    chain_curves.svg. Rerunning with identical inputs rewrites identical bytes."""
    out = Path(out_dir)
    try:
        written = [out / "summary.csv", out / "runs.csv", out / "traces.csv"]
        write_rows(written[0], SummaryCell, summary.cells)
        write_rows(written[1], RunRow, summary.details)
        write_rows(written[2], TraceRow, sorted(traces, key=attrgetter("fraction", "run", "iteration")))
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


def make_out_dir(out: Path | str) -> None:
    """Make dir ``out``; one that cannot be made is a ConfigError naming it."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot make {out}: {exc.strerror}") from None


def _sweep(cfg: ExperimentConfig, chain_cfg: ChainConfig, baseline: float | None = None) -> RunSummary:
    """Every cell of ``cfg`` run as a chain of ``chain_cfg``, its rows,
    traces and files made by ``_finish_cell`` as its group finishes, then
    the sweep-level files with ``baseline``, if given, as the chart's
    reference. Faults every cell would hit fail first, before the out dir
    is made: a train file without a sample of some class (in
    ``prepare_dataset``), and the ConfigErrors of a chain keeping more
    probabilities than there are classes or an early-stop set too small to
    cover them. Anything raised later is a runtime failure."""
    dataset = prepare_dataset(cfg)
    catalog = dataset[0].catalog
    if chain_cfg.iterations and (chain_cfg.distill.top_probs or 0) > catalog.size:
        raise ConfigError(f"chain.top_probs ({chain_cfg.distill.top_probs}) exceeds the {catalog.size} classes")
    try:
        early_stop_size(dataset[0], cfg.early_stop_fraction)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    make_out_dir(cfg.out_dir)
    # starmap holds no cell's output past its call, so none outlives its group
    finish = partial(_finish_cell, cfg, chain_cfg, catalog)
    finished = list(itertools.starmap(finish, _execute_cells(cfg, chain_cfg, dataset)))
    summary = aggregate_runs([row for rows, _ in finished for row in rows])
    traces = [trace for _, cell_traces in finished for trace in cell_traces]
    emit_outputs(summary, traces, cfg.out_dir, baseline, config_to_lines(cfg))
    return summary


def run_baseline_sweep(cfg: ExperimentConfig) -> RunSummary:
    """Teacher-only sweep: per (fraction, run), a chain without students on a
    fresh seeded split, so its teacher trains with ``cfg.train`` on the
    labelled subset alone and is evaluated on validation and test."""
    return _sweep(cfg, ChainConfig(iterations=0, finetune=cfg.train))


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
    return _sweep(cfg, cfg.chain, best_baseline_mean(baseline_summary) if baseline_summary else None)
