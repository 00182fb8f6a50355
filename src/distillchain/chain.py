"""Teacher-student chain orchestration.

The teacher is trained on the small labelled set; each student is pretrained
on filtered soft pseudo-labels for the pool and then fine-tuned on the
original labelled set, after which it pseudo-labels the pool for the next
student. Iteration 0 is the teacher, so a chain of zero iterations is the
supervised baseline; the returned best iteration maximizes validation
accuracy.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .dataset import DataTable, PoolTruth, SplitResult
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
    one_hot,
    train_job,
    train_lockstep,
)


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 5
    distill: DistillConfig = field(default_factory=DistillConfig)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    finetune: TrainConfig = field(default_factory=TrainConfig)
    fresh_init_per_student: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


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
    pseudo_labels: PseudoLabels | None = None


@dataclass(frozen=True)
class ChainResult:
    records: tuple[IterationRecord, ...]
    best_iteration: int
    seeds: tuple[int, ...]


class ChainAborted(RuntimeError):
    """A chain member failed to train; completed iteration records survive
    on the exception, and the error that ended the chain is its cause."""

    def __init__(self, cause: Exception, records: tuple[IterationRecord, ...]):
        super().__init__(f"chain aborted at iteration {len(records)}: {cause}")
        self.records = records
        self.__cause__ = cause

    def __reduce__(self):  # a worker's abort reaches the parent whole, its cause too
        return type(self), (self.__cause__, self.records)


def select_best(records: list[IterationRecord] | tuple[IterationRecord, ...]) -> int:
    """Index of the record with maximum validation accuracy, earliest on
    ties. Test accuracy never participates in the choice."""
    if not records:
        raise ValueError("select_best needs at least one record")
    return max(range(len(records)), key=lambda i: records[i].val_accuracy)


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
        cfg.finetune,
        init=init,
        seed=seed,
    )


def _pretrain_job(
    arch: ArchSpec,
    labels: PseudoLabels,
    splits: SplitResult,
    cfg: ChainConfig,
    seed: int,
    warm_start: ModelParams | None,
) -> TrainJob:
    """A student's phase 1: the pool rows the pseudo-labels name, in their
    order, read in place against their soft targets, from a fresh init of
    ``seed`` or, without ``fresh_init_per_student``, from ``warm_start``."""
    if not labels:
        raise ValueError("train_student needs a non-empty pseudo-label set")
    pool = splits.pool
    return TrainJob(
        pool.source,
        labels.soft,
        splits.early_stop,
        cfg.pretrain,
        init=None if cfg.fresh_init_per_student else warm_start,
        rows=pool.rows[labels.positions],
        normalizer=pool.normalizer,
        seed=seed,
    )


def train_student(
    arch: ArchSpec,
    teacher_labels: PseudoLabels,
    splits: SplitResult,
    cfg: ChainConfig,
    seed: int = 0,
    warm_start: ModelParams | None = None,
) -> ModelParams:
    """Two-phase student: pretrain on soft pseudo-labels for the pool, then
    fine-tune on the one-hot labelled set from the phase-1 best weights.

    The optimizer state is reset between phases; both phases early-stop on
    the same held-out accuracy set. With ``fresh_init_per_student`` or no
    ``warm_start`` the student starts from a fresh init of ``seed``,
    otherwise from ``warm_start``.
    """
    pretrained, _ = train_job(arch, _pretrain_job(arch, teacher_labels, splits, cfg, seed, warm_start))
    return train_job(arch, _finetune_job(arch, splits, cfg, seed, pretrained))[0]


# (splits, the pool's truth, validation and test as stored, the chain's seed)
ChainCell = tuple[SplitResult, PoolTruth, DataTable, DataTable, int]


def _chain(
    arch: ArchSpec,
    cell: ChainCell,
    cfg: ChainConfig,
    records: list[IterationRecord],
    keep_pseudo_labels: bool,
) -> Generator[TrainJob, ModelParams, ChainResult]:
    """One cell's chain as a generator of training jobs, each sent back its
    trained params: the teacher's job, then per iteration the latest member
    pseudo-labels the pool and the student's two jobs follow on the filtered
    labels. Each member is scored on validation and test, normalized for the
    scoring alone, and its record appended to ``records``; a student keeps
    its pseudo-labels only with ``keep_pseudo_labels``. The pool's truth
    goes to the diagnostics alone."""
    splits, truth, validation, test, seed = cell
    pool = splits.pool
    seeds = tuple(range(seed, seed + cfg.iterations + 1))
    labels, agreement = None, None
    model = yield _finetune_job(arch, splits, cfg, seeds[0], None)
    for i, seed in enumerate(seeds):
        if i:
            # the unfiltered labels are not bound, so they die with the filter
            labels = filter_pseudo_labels(pseudo_label_pool(model, pool), cfg.distill, pool.catalog)
            agreement = pseudo_label_quality(labels, truth)[0] if labels else None
            model = yield _pretrain_job(arch, labels, splits, cfg, seed, model)
            model = yield _finetune_job(arch, splits, cfg, seed, model)
        val_acc, _ = evaluate(model, splits.normalized(validation))
        test_acc, confusion = evaluate(model, splits.normalized(test))
        records.append(
            IterationRecord(
                iteration=i,
                val_accuracy=val_acc,
                test_accuracy=test_acc,
                pseudo_count=0 if labels is None else len(labels),
                pseudo_agreement=agreement,
                confusion=confusion,
                model=model,
                pseudo_labels=labels if keep_pseudo_labels else None,
            )
        )
        labels = None
    return ChainResult(tuple(records), select_best(records), seeds)


def run_chains(
    cells: Sequence[ChainCell],
    arch: ArchSpec,
    cfg: ChainConfig,
    keep_pseudo_labels: bool = False,
) -> list[ChainResult | ChainAborted]:
    """Run one teacher-student chain of ``cfg`` per (splits, truth,
    validation, test, seed) cell: each round trains every live chain's next
    job in one lockstep group and sends each chain its trained params. The
    chains share their phase order, so a round holds one phase: every
    teacher, then per iteration every student's pretraining and every
    student's fine-tuning. Each cell comes out exactly as its chain run
    alone would.

    The outcome per cell is its ChainResult, or the ChainAborted (carrying
    the completed records) that ended that cell alone, from a ValueError or
    ArithmeticError its chain raised or its training returned (a negative
    seed fails its first job). Students' pseudo-labels stay on their
    records only with ``keep_pseudo_labels``.
    """
    records: list[list[IterationRecord]] = [[] for _ in cells]
    chains = [_chain(arch, cell, cfg, rec, keep_pseudo_labels) for cell, rec in zip(cells, records)]
    outcomes: list[ChainResult | ChainAborted | None] = [None] * len(cells)
    # what each live chain is sent next: None to start it, then its last
    # job's params, or the error that ended that job, thrown into it
    pending: dict[int, ModelParams | Exception | None] = dict.fromkeys(range(len(cells)))
    while True:
        # the last round's jobs die here, before the chains make the next
        slots, jobs = [], []
        for slot, sent in pending.items():
            chain = chains[slot]
            step = chain.throw if isinstance(sent, Exception) else chain.send
            try:
                jobs.append(step(sent))
            except StopIteration as done:
                outcomes[slot] = done.value
            except (ValueError, ArithmeticError) as exc:
                outcomes[slot] = ChainAborted(exc, tuple(records[slot]))
            else:
                slots.append(slot)
        if not jobs:
            return outcomes
        trained = train_lockstep(arch, jobs)
        pending = {s: o if isinstance(o, Exception) else o[0] for s, o in zip(slots, trained)}


def run_chain(
    splits: SplitResult,
    truth: PoolTruth,
    validation: DataTable,
    test: DataTable,
    arch: ArchSpec,
    cfg: ChainConfig,
    seed: int = 0,
) -> ChainResult:
    """Run the full teacher-student loop and pick the best iteration by
    validation accuracy: the one-cell case of :func:`run_chains`, raising
    its error instead of returning it. Students keep their pseudo-labels on
    their records.

    Per-iteration seeds are ``seed`` + iteration index. Test accuracy is
    recorded for reporting but never consulted by the selection. A training
    failure raises ChainAborted carrying the completed records.
    """
    (outcome,) = run_chains(
        [(splits, truth, validation, test, seed)], arch, cfg, keep_pseudo_labels=True
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
