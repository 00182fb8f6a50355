"""Configuration-driven experiment runner.

Runs labelled-fraction sweeps for the supervised baseline and for the
teacher-student chain across seeded repeat runs, aggregates to mean/std, and
persists CSV/SVG reports. The whole experiment is a pure function of
(config, master seed): every per-cell seed derives from the master seed via
numpy SeedSequence spawn keys, and (fraction, run) cells are independent, so
``jobs`` never changes any output byte.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .chain import ChainAborted, ChainConfig, run_chains
from .dataset import (
    DataTable,
    SplitResult,
    SplitSpec,
    generate_synthetic,
    make_splits,
    normalize,
    read_table,
)
from .learner import ArchSpec, TrainConfig, TrainJob, evaluate, one_hot, save_model, train_lockstep
from .reports import (
    RunRow,
    RunSummary,
    SummaryCell,
    TraceRow,
    best_baseline_mean,
    fraction_tag,
    render_chain_svg,
    write_confusion_csv,
    write_runs_csv,
    write_summary_csv,
    write_traces_csv,
)

DEFAULT_FRACTIONS = (0.0025, 0.005, 0.01, 0.05, 0.20, 1.0)

# Seed-derivation roles; a cell seed is derive_seed(master, role, fraction_idx, run).
_ROLE_DATASET = 0
_ROLE_SPLIT = 1
_ROLE_TRAIN = 2
_ROLE_CHAIN = 3


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 9
    per_class: int = 900
    dim: int = 16
    spread: float = 0.9


@dataclass(frozen=True)
class DataFiles:
    train: str
    validation: str
    test: str


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
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not 0.0 <= self.early_stop_fraction < 1.0:
            raise ValueError("early_stop_fraction must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def derive_seed(master: int, *key: int) -> int:
    """Deterministic per-cell seed: SeedSequence(master) spawned at ``key``."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def prepare_dataset(cfg: ExperimentConfig) -> tuple[DataTable, DataTable, DataTable]:
    """Generate the synthetic tables (seeded from the master seed) or load
    the configured CSV files, whose ``.classes`` sidecars must agree: labels
    are encoded by catalog index, so a reordered catalog would silently
    score validation or test labels as other classes."""
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
    for path, table in zip((files.validation, files.test), tables[1:]):
        if table.catalog != tables[0].catalog:
            raise ValueError(
                f"class catalog of {path} ({','.join(table.catalog.names)}) differs from "
                f"that of {files.train} ({','.join(tables[0].catalog.names)})"
            )
    return tables


def _normalized_splits(
    train: DataTable,
    val: DataTable,
    test: DataTable,
    cfg: ExperimentConfig,
    fraction: float,
    split_seed: int,
) -> tuple[SplitResult, DataTable, DataTable]:
    splits = make_splits(
        train,
        SplitSpec(
            labelled_fraction=fraction,
            early_stop_fraction=cfg.early_stop_fraction,
            seed=split_seed,
            balance_labelled=cfg.balance_labelled,
        ),
    )
    _, [lab, es, pool, nval, ntest] = normalize(
        splits.labelled, [splits.labelled, splits.early_stop, splits.pool, val, test]
    )
    return SplitResult(labelled=lab, early_stop=es, pool=pool, audit=splits.audit), nval, ntest


@dataclass(frozen=True)
class _CellOutput:
    rows: tuple[RunRow, ...]
    traces: tuple[TraceRow, ...] = ()
    confusions: tuple[tuple[float, int, np.ndarray], ...] = ()


def _skip_reason(exc: Exception) -> str:
    return str(exc).replace(",", ";").replace("\n", " ")


def _skipped(bases: tuple[RunRow, ...], exc: Exception) -> _CellOutput:
    status = f"skipped: {_skip_reason(exc)}"
    return _CellOutput(rows=tuple(replace(b, status=status) for b in bases))


def _prepare_cells(dataset, cfg, cells, role, modes):
    """Each (f_idx, run) cell's base rows, one per mode, seeded by ``role``,
    with its normalized splits; a cell whose split fails gets its skip rows
    instead, keyed by its position in ``cells``."""
    train, val, test = dataset
    prepared, skipped = [], {}
    for slot, (f_idx, run) in enumerate(cells):
        fraction = cfg.fractions[f_idx]
        seed = derive_seed(cfg.seed, role, f_idx, run)
        bases = tuple(RunRow(mode=mode, fraction=fraction, run=run, seed=seed) for mode in modes)
        try:
            splits, nval, ntest = _normalized_splits(
                train, val, test, cfg, fraction, derive_seed(cfg.seed, _ROLE_SPLIT, f_idx, run)
            )
        except ValueError as exc:
            skipped[slot] = _skipped(bases, exc)
            continue
        prepared.append((slot, bases, splits, nval, ntest))
    return prepared, skipped


def _baseline_cells(
    dataset: tuple[DataTable, DataTable, DataTable],
    cfg: ExperimentConfig,
    cells: list[tuple[int, int]],
) -> list[_CellOutput]:
    """Baseline (f_idx, run) cells, every trainable one in one lockstep
    group; a cell whose split or training fails becomes a skip row."""
    train = dataset[0]
    arch = ArchSpec(input_dim=train.dim, hidden=cfg.arch_hidden, output_dim=train.catalog.size)
    prepared, outputs = _prepare_cells(dataset, cfg, cells, _ROLE_TRAIN, ("baseline",))
    jobs = [
        TrainJob(
            splits.labelled.features,
            one_hot(splits.labelled.labels, arch.output_dim),
            splits.early_stop,
            replace(cfg.train, seed=bases[0].seed),
        )
        for _, bases, splits, _, _ in prepared
    ]
    for (slot, bases, _, nval, ntest), outcome in zip(prepared, train_lockstep(arch, jobs)):
        if isinstance(outcome, Exception):
            outputs[slot] = _skipped(bases, outcome)
            continue
        params, _ = outcome
        val_acc, _ = evaluate(params, nval)
        test_acc, confusion = evaluate(params, ntest)
        row = replace(bases[0], val_accuracy=val_acc, test_accuracy=test_acc)
        outputs[slot] = _CellOutput(rows=(row,), confusions=((row.fraction, row.run, confusion),))
    return [outputs[slot] for slot in range(len(cells))]


def _chain_cells(
    dataset: tuple[DataTable, DataTable, DataTable],
    cfg: ExperimentConfig,
    cells: list[tuple[int, int]],
) -> list[_CellOutput]:
    """Chain (f_idx, run) cells, every one with a pool advanced together by
    ``run_chains``; a cell whose split or chain fails becomes skip rows."""
    train = dataset[0]
    arch = ArchSpec(input_dim=train.dim, hidden=cfg.arch_hidden, output_dim=train.catalog.size)
    prepared, outputs = _prepare_cells(
        dataset, cfg, cells, _ROLE_CHAIN, ("chain_best", "chain_final")
    )
    for slot, bases, splits, _, _ in prepared:
        if len(splits.pool) == 0:
            outputs[slot] = _skipped(bases, ValueError("empty pool"))
    prepared = [cell for cell in prepared if cell[0] not in outputs]
    results = run_chains(
        [(splits, nval, ntest) for _, _, splits, nval, ntest in prepared],
        arch,
        [replace(cfg.chain, seed=bases[0].seed) for _, bases, _, _, _ in prepared],
        keep_pseudo_labels=cfg.dump_pseudo_labels,
    )
    for (slot, bases, splits, _, _), result in zip(prepared, results):
        if isinstance(result, ChainAborted):
            outputs[slot] = _skipped(bases, result)
            continue
        if isinstance(result, Exception):
            raise result
        outputs[slot] = _chain_output(cfg, bases, splits, result)
    return [outputs[slot] for slot in range(len(cells))]


def _chain_output(cfg, bases, splits, result) -> _CellOutput:
    """Rows, traces and the best member's confusion of one finished chain,
    plus its optional files."""
    fraction, run = bases[0].fraction, bases[0].run
    best = result.records[result.best_iteration]
    final = result.records[-1]
    rows = (
        replace(
            bases[0],
            iteration=best.iteration,
            val_accuracy=best.val_accuracy,
            test_accuracy=best.test_accuracy,
        ),
        replace(
            bases[1],
            iteration=final.iteration,
            val_accuracy=final.val_accuracy,
            test_accuracy=final.test_accuracy,
        ),
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
                    labels.ids.tolist(), labels.top.tolist(),
                    labels.confidence.tolist(), labels.soft.tolist(),
                )
            ]
            (out / f"pseudo_{tag}_iter{rec.iteration}.csv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )


_WORKER_DATASET: tuple[DataTable, DataTable, DataTable] | None = None
_WORKER_CFG: ExperimentConfig | None = None


def _init_worker(cfg: ExperimentConfig) -> None:
    global _WORKER_DATASET, _WORKER_CFG
    _WORKER_CFG = cfg
    _WORKER_DATASET = prepare_dataset(cfg)


def _run_worker_group(task) -> list[_CellOutput]:
    run_group, cells = task
    assert _WORKER_CFG is not None and _WORKER_DATASET is not None
    return run_group(_WORKER_DATASET, _WORKER_CFG, cells)


# Cells trained in one lockstep group at most. Memory grows with every cell
# in flight, while past about eight members a stacked training step gets
# little cheaper per model: on a 2-core x86 host, per model and step, about
# 80 us alone, 30 at eight members and 24 at sixteen for softmax regression,
# and 145, 57 and 55 us for hidden layers (32, 16).
_GROUP_CELLS = 8


def _cell_groups(cells: list, jobs: int) -> list[list]:
    """Contiguous groups of at most ``_GROUP_CELLS`` cells, as even as
    possible, and at least one per worker while there are cells to share."""
    count = min(len(cells), max(jobs, -(-len(cells) // _GROUP_CELLS)))
    bounds = [len(cells) * g // count for g in range(count + 1)]
    return [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _execute_cells(
    cfg: ExperimentConfig, run_group, dataset: tuple[DataTable, DataTable, DataTable]
) -> list[_CellOutput]:
    """Run every (fraction, run) cell through ``run_group`` in lockstep
    groups from ``_cell_groups``: one after another at jobs = 1, otherwise
    shared out to the workers, each of which loads its own copy of the
    dataset instead of receiving ``dataset``."""
    cells = [(f_idx, run) for f_idx in range(len(cfg.fractions)) for run in range(cfg.runs)]
    groups = _cell_groups(cells, cfg.jobs)
    if cfg.jobs == 1:
        return [out for group in groups for out in run_group(dataset, cfg, group)]
    with ProcessPoolExecutor(
        max_workers=min(cfg.jobs, len(groups)), initializer=_init_worker, initargs=(cfg,)
    ) as pool:
        tasks = [(run_group, group) for group in groups]
        return [out for outputs in pool.map(_run_worker_group, tasks) for out in outputs]


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
            cells.append(
                SummaryCell(
                    mode,
                    fraction,
                    metric,
                    float(values.mean()),
                    std,
                    float(values.min()),
                    float(values.max()),
                    int(values.size),
                    note,
                )
            )
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
        written = []
        write_summary_csv(out / "summary.csv", summary)
        written.append(out / "summary.csv")
        write_runs_csv(out / "runs.csv", summary.details)
        written.append(out / "runs.csv")
        write_traces_csv(out / "traces.csv", traces)
        written.append(out / "traces.csv")
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


def run_baseline_sweep(cfg: ExperimentConfig) -> RunSummary:
    """Teacher-only sweep: fresh seeded split per (fraction, run), training on
    the labelled subset alone, evaluated on validation and test."""
    dataset = prepare_dataset(cfg)
    outputs = _execute_cells(cfg, _baseline_cells, dataset)
    rows = [r for cell in outputs for r in cell.rows]
    confusions = [c for cell in outputs for c in cell.confusions]
    summary = aggregate_runs(rows)
    emit_outputs(
        summary,
        [],
        cfg.out_dir,
        confusions=confusions,
        catalog=dataset[0].catalog,
        config_lines=config_to_lines(cfg),
    )
    return summary


def run_chain_experiment(
    cfg: ExperimentConfig, baseline_summary: Path | str | None = None
) -> RunSummary:
    """Chain sweep: per (fraction, run), a full teacher-student chain on a
    fresh seeded split; summary covers best-selected and final iterations.

    Fractions without a pool (labelled_fraction 1.0) become skip rows. When a
    baseline summary.csv path is given, its best mean test accuracy becomes
    the reference line of the chain chart; otherwise the chart falls back to
    the best mean teacher accuracy from this experiment's own traces.
    """
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    dataset = prepare_dataset(cfg)
    outputs = _execute_cells(cfg, _chain_cells, dataset)
    rows = [r for cell in outputs for r in cell.rows]
    traces = [t for cell in outputs for t in cell.traces]
    confusions = [c for cell in outputs for c in cell.confusions]
    summary = aggregate_runs(rows)

    reference = best_baseline_mean(baseline_summary) if baseline_summary else None
    if reference is None:
        reference = _best_teacher_mean(traces)
    emit_outputs(
        summary,
        traces,
        cfg.out_dir,
        confusions=confusions,
        catalog=dataset[0].catalog,
        baseline_reference=reference,
        config_lines=config_to_lines(cfg),
    )
    return summary


def _best_teacher_mean(traces: list[TraceRow]) -> float | None:
    by_fraction: dict[float, list[float]] = {}
    for t in traces:
        if t.iteration == 0:
            by_fraction.setdefault(t.fraction, []).append(t.test_accuracy)
    means = [float(np.mean(v)) for v in by_fraction.values()]
    return max(means) if means else None


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
    each run records exactly what produced it."""
    lines = []
    if isinstance(cfg.source, SyntheticSpec):
        lines += [
            "source = synthetic",
            f"synthetic.classes = {cfg.source.classes}",
            f"synthetic.per_class = {cfg.source.per_class}",
            f"synthetic.dim = {cfg.source.dim}",
            f"synthetic.spread = {_fmt_value(cfg.source.spread)}",
        ]
    else:
        lines += [
            "source = files",
            f"data.train = {cfg.source.train}",
            f"data.validation = {cfg.source.validation}",
            f"data.test = {cfg.source.test}",
        ]
    lines += [
        f"fractions = {_fmt_value(cfg.fractions)}",
        f"runs = {cfg.runs}",
        f"early_stop_fraction = {_fmt_value(cfg.early_stop_fraction)}",
        f"balance_labelled = {_fmt_value(cfg.balance_labelled)}",
        f"arch.hidden = {_fmt_value(cfg.arch_hidden)}",
        f"seed = {cfg.seed}",
        f"out = {cfg.out_dir}",
        f"jobs = {cfg.jobs}",
        f"dump_pseudo_labels = {_fmt_value(cfg.dump_pseudo_labels)}",
        f"save_models = {_fmt_value(cfg.save_models)}",
        f"chain.iterations = {cfg.chain.iterations}",
        f"chain.fresh_init = {_fmt_value(cfg.chain.fresh_init_per_student)}",
        f"chain.per_class_cap = {_fmt_value(cfg.chain.distill.per_class_cap)}",
        f"chain.top_probs = {_fmt_value(cfg.chain.distill.top_probs)}",
    ]
    for prefix, tc in (
        ("train", cfg.train),
        ("chain.pretrain", cfg.chain.pretrain),
        ("chain.finetune", cfg.chain.finetune),
    ):
        lines += [
            f"{prefix}.learning_rate = {_fmt_value(tc.learning_rate)}",
            f"{prefix}.batch_size = {tc.batch_size}",
            f"{prefix}.steps_per_epoch = {tc.steps_per_epoch}",
            f"{prefix}.max_epochs = {tc.max_epochs}",
            f"{prefix}.patience = {tc.patience}",
        ]
    return lines
