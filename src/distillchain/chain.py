"""Teacher-student chain orchestration.

The teacher is trained on the small labelled set; each student is pretrained
on filtered soft pseudo-labels for the pool and then fine-tuned on the
original labelled set, after which it pseudo-labels the pool for the next
student. Iteration 0 is the teacher; the returned best iteration maximizes
validation accuracy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import DataTable, SplitResult
from .distill import (
    DistillConfig,
    PseudoLabels,
    filter_pseudo_labels,
    pseudo_label_pool,
    pseudo_label_quality,
)
from .learner import (
    ArchSpec,
    ModelParams,
    TrainConfig,
    TrainJob,
    evaluate,
    init_params,
    one_hot,
    train_lockstep,
    train_with_early_stopping,
)


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 5
    distill: DistillConfig = field(default_factory=DistillConfig)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    finetune: TrainConfig = field(default_factory=TrainConfig)
    fresh_init_per_student: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class IterationRecord:
    """Metrics for one chain member; iteration 0 is the teacher, so it has
    no pseudo-labels. A student keeps the filtered pseudo-labels it was
    pretrained on."""

    iteration: int
    val_accuracy: float
    test_accuracy: float
    pseudo_count: int
    pseudo_agreement: float | None
    confusion: np.ndarray
    model: ModelParams | None = None
    checkpoint_ref: str | None = None
    pseudo_labels: PseudoLabels | None = None


@dataclass(frozen=True)
class ChainResult:
    records: tuple[IterationRecord, ...]
    best_iteration: int
    config: ChainConfig
    seeds: tuple[int, ...]


class ChainAborted(RuntimeError):
    """A chain member failed to train; completed iteration records survive
    on the exception."""

    def __init__(self, message: str, records: tuple[IterationRecord, ...]):
        super().__init__(message)
        self.records = records


def select_best(records: list[IterationRecord] | tuple[IterationRecord, ...]) -> int:
    """Index of the record with maximum validation accuracy, earliest on
    ties. Test accuracy never participates in the choice."""
    if not records:
        raise ValueError("select_best needs at least one record")
    best = 0
    for i, rec in enumerate(records):
        if rec.val_accuracy > records[best].val_accuracy:
            best = i
    return best


def _student_start(
    arch: ArchSpec, cfg: ChainConfig, student_seed: int, warm_start: ModelParams | None
) -> ModelParams:
    if cfg.fresh_init_per_student or warm_start is None:
        return init_params(arch, student_seed)
    return warm_start


def _check_student_inputs(teacher_labels: PseudoLabels, splits: SplitResult) -> None:
    if not teacher_labels:
        raise ValueError("train_student needs a non-empty pseudo-label set")
    if len(splits.labelled) == 0:
        raise ValueError("train_student needs a non-empty labelled set")


def _pretrain_job(
    teacher_labels: PseudoLabels,
    splits: SplitResult,
    cfg: ChainConfig,
    student_seed: int,
    start: ModelParams,
) -> TrainJob:
    """Phase 1 of a student: the pool rows the pseudo-labels name, in their
    order, against their soft targets."""
    pool = splits.pool
    return TrainJob(
        pool.features[pool.rows_of(teacher_labels.ids)],
        teacher_labels.soft,
        splits.early_stop,
        replace(cfg.pretrain, seed=student_seed),
        init=start,
    )


def _finetune_job(
    arch: ArchSpec, splits: SplitResult, cfg: ChainConfig, seed: int, init: ModelParams | None
) -> TrainJob:
    """The labelled set with one-hot targets: a student's phase 2 from
    ``init``, or the teacher when ``init`` is None."""
    lab = splits.labelled
    return TrainJob(
        lab.features,
        one_hot(lab.labels, arch.output_dim),
        splits.early_stop,
        replace(cfg.finetune, seed=seed),
        init=init,
    )


def train_student(
    arch: ArchSpec,
    teacher_labels: PseudoLabels,
    splits: SplitResult,
    cfg: ChainConfig,
    student_seed: int,
    warm_start: ModelParams | None = None,
) -> ModelParams:
    """Two-phase student: pretrain on soft pseudo-labels for the pool, then
    fine-tune on the one-hot labelled set from the phase-1 best weights.

    The optimizer state is reset between phases; both phases early-stop on
    the same held-out accuracy set. With ``fresh_init_per_student`` the
    student starts from a fresh seeded init, otherwise from ``warm_start``.
    """
    _check_student_inputs(teacher_labels, splits)
    start = _student_start(arch, cfg, student_seed, warm_start)
    job = _pretrain_job(teacher_labels, splits, cfg, student_seed, start)
    pretrained, _ = train_with_early_stopping(
        arch, job.features, job.targets, job.early_stop, job.config, init=job.init
    )
    job = _finetune_job(arch, splits, cfg, student_seed, pretrained)
    tuned, _ = train_with_early_stopping(
        arch, job.features, job.targets, job.early_stop, job.config, init=job.init
    )
    return tuned


ChainCell = tuple[SplitResult, DataTable, DataTable]


class _Chain:
    """One cell's chain in flight: its tables, seeds, records so far, and the
    latest member with the pseudo-labels it gave the pool."""

    def __init__(self, slot: int, cell: ChainCell, cfg: ChainConfig):
        self.slot = slot
        self.splits, self.validation, self.test = cell
        self.cfg = cfg
        self.seeds = tuple(cfg.seed + i for i in range(cfg.iterations + 1))
        self.records: list[IterationRecord] = []
        self.model: ModelParams | None = None
        self.labels: PseudoLabels | None = None
        self.agreement: float | None = None

    def student_job(self, arch: ArchSpec) -> TrainJob:
        """Pseudo-label the pool with the latest member, filter the labels
        and return the next student's pretraining job."""
        pool = self.splits.pool
        raw = pseudo_label_pool(self.model, pool)
        self.labels = filter_pseudo_labels(raw, self.cfg.distill, pool.catalog)
        self.agreement = pseudo_label_quality(self.labels, pool)[0] if self.labels else None
        _check_student_inputs(self.labels, self.splits)
        seed = self.seeds[len(self.records)]
        start = _student_start(arch, self.cfg, seed, self.model)
        return _pretrain_job(self.labels, self.splits, self.cfg, seed, start)

    def finetune_job(self, arch: ArchSpec) -> TrainJob:
        """The teacher's job, or the latest student's second phase."""
        seed = self.seeds[len(self.records)]
        return _finetune_job(arch, self.splits, self.cfg, seed, self.model)

    def record(self, keep_pseudo_labels: bool) -> None:
        """Score the latest member and append its record; a student's
        pseudo-labels stay on it only with ``keep_pseudo_labels``."""
        val_acc, _ = evaluate(self.model, self.validation)
        test_acc, confusion = evaluate(self.model, self.test)
        labels = self.labels
        self.records.append(
            IterationRecord(
                iteration=len(self.records),
                val_accuracy=val_acc,
                test_accuracy=test_acc,
                pseudo_count=0 if labels is None else len(labels),
                pseudo_agreement=self.agreement,
                confusion=confusion,
                model=self.model,
                pseudo_labels=labels if keep_pseudo_labels else None,
            )
        )
        self.labels = None


def run_chains(
    cells: Sequence[ChainCell],
    arch: ArchSpec,
    cfgs: Sequence[ChainConfig],
    keep_pseudo_labels: bool = False,
) -> list[ChainResult | ChainAborted | ValueError]:
    """Run one teacher-student chain per (splits, validation, test) cell,
    advancing all of them phase by phase: every teacher trains in one
    lockstep group, then per iteration each cell pseudo-labels and filters
    its pool, every student pretrains in one group and every student
    fine-tunes in one group. Each cell comes out exactly as its chain run
    alone would.

    ``cfgs`` holds one ChainConfig per cell; they must agree except in
    ``seed``. The outcome per cell is its ChainResult, or the ChainAborted
    (carrying the completed records) that ended that cell alone, or a
    ValueError for a cell whose validation or test table is unlabelled.
    Students' pseudo-labels stay on their records only with
    ``keep_pseudo_labels``.
    """
    if len(cells) != len(cfgs):
        raise ValueError("run_chains needs one ChainConfig per cell")
    if any(replace(c, seed=cfgs[0].seed) != cfgs[0] for c in cfgs[1:]):
        raise ValueError("chain cells must share their ChainConfig except seed")
    outcomes: list[ChainResult | ChainAborted | ValueError | None] = [None] * len(cells)
    live: list[_Chain] = []
    for slot, (cell, cfg) in enumerate(zip(cells, cfgs)):
        _, validation, test = cell
        if not validation.fully_labelled or not test.fully_labelled:
            outcomes[slot] = ValueError("validation and test tables must be labelled")
        else:
            live.append(_Chain(slot, cell, cfg))

    def abort(chain: _Chain, exc: Exception) -> None:
        aborted = ChainAborted(
            f"chain aborted at iteration {len(chain.records)}: {exc}", tuple(chain.records)
        )
        aborted.__cause__ = exc
        outcomes[chain.slot] = aborted

    def each(chains: list[_Chain], action) -> tuple[list[_Chain], list]:
        """``action`` per chain: the chains it succeeded for with its
        results; the chains it raised for abort."""
        survivors, results = [], []
        for chain in chains:
            try:
                results.append(action(chain))
            except (ValueError, ArithmeticError) as exc:
                abort(chain, exc)
            else:
                survivors.append(chain)
        return survivors, results

    def train(chains: list[_Chain], jobs: list[TrainJob]) -> list[_Chain]:
        """One lockstep phase: each chain's job trains its latest member;
        the chains whose job failed abort."""
        survivors = []
        for chain, outcome in zip(chains, train_lockstep(arch, jobs)):
            if isinstance(outcome, Exception):
                abort(chain, outcome)
            else:
                chain.model = outcome[0]
                survivors.append(chain)
        return survivors

    def finetune_and_record(chains: list[_Chain]) -> list[_Chain]:
        chains = train(chains, [c.finetune_job(arch) for c in chains])
        return each(chains, lambda c: c.record(keep_pseudo_labels))[0]

    live = finetune_and_record(live)
    for _ in range(cfgs[0].iterations if cfgs else 0):
        # the pretraining jobs die with their phase
        live = train(*each(live, lambda c: c.student_job(arch)))
        live = finetune_and_record(live)
    for chain in live:
        outcomes[chain.slot] = ChainResult(
            records=tuple(chain.records),
            best_iteration=select_best(chain.records),
            config=chain.cfg,
            seeds=chain.seeds,
        )
    return outcomes


def run_chain(
    splits: SplitResult,
    validation: DataTable,
    test: DataTable,
    arch: ArchSpec,
    cfg: ChainConfig,
) -> ChainResult:
    """Run the full teacher-student loop and pick the best iteration by
    validation accuracy: the one-cell case of :func:`run_chains`, raising
    its error instead of returning it. Students keep their pseudo-labels on
    their records.

    Per-iteration seeds are cfg.seed + iteration index. Test accuracy is
    recorded for reporting but never consulted by the selection. A training
    failure raises ChainAborted carrying the completed records.
    """
    (outcome,) = run_chains([(splits, validation, test)], arch, [cfg], keep_pseudo_labels=True)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
