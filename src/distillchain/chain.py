"""Teacher-student chain orchestration.

The teacher is trained on the small labelled set; each student is pretrained
on filtered soft pseudo-labels for the pool and then fine-tuned on the
original labelled set, after which it pseudo-labels the pool for the next
student. Iteration 0 is the teacher; the returned best iteration maximizes
validation accuracy.
"""

from __future__ import annotations

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
    evaluate,
    init_params,
    one_hot,
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
    if not teacher_labels:
        raise ValueError("train_student needs a non-empty pseudo-label set")
    if len(splits.labelled) == 0:
        raise ValueError("train_student needs a non-empty labelled set")

    if cfg.fresh_init_per_student or warm_start is None:
        start = init_params(arch, student_seed)
    else:
        start = warm_start

    pool_x = splits.pool.features[splits.pool.rows_of(teacher_labels.ids)]
    pretrain_cfg = replace(cfg.pretrain, seed=student_seed)
    if pretrain_cfg.max_epochs > 0:
        pretrained, _ = train_with_early_stopping(
            arch, pool_x, teacher_labels.soft, splits.early_stop, pretrain_cfg, init=start
        )
    else:
        pretrained = start

    lab = splits.labelled
    lab_targets = one_hot(lab.labels, arch.output_dim)
    finetune_cfg = replace(cfg.finetune, seed=student_seed)
    tuned, _ = train_with_early_stopping(
        arch, lab.features, lab_targets, splits.early_stop, finetune_cfg, init=pretrained
    )
    return tuned


def run_chain(
    splits: SplitResult,
    validation: DataTable,
    test: DataTable,
    arch: ArchSpec,
    cfg: ChainConfig,
) -> ChainResult:
    """Run the full teacher-student loop and pick the best iteration by
    validation accuracy.

    Per-iteration seeds are cfg.seed + iteration index. Test accuracy is
    recorded for reporting but never consulted by the selection. A training
    failure raises ChainAborted carrying the completed records.
    """
    if not validation.fully_labelled or not test.fully_labelled:
        raise ValueError("validation and test tables must be labelled")

    seeds = tuple(cfg.seed + i for i in range(cfg.iterations + 1))
    records: list[IterationRecord] = []

    def record_model(
        i: int, model: ModelParams, labels: PseudoLabels | None, agreement: float | None
    ):
        val_acc, _ = evaluate(model, validation)
        test_acc, confusion = evaluate(model, test)
        records.append(
            IterationRecord(
                iteration=i,
                val_accuracy=val_acc,
                test_accuracy=test_acc,
                pseudo_count=0 if labels is None else len(labels),
                pseudo_agreement=agreement,
                confusion=confusion,
                model=model,
                pseudo_labels=labels,
            )
        )

    try:
        lab = splits.labelled
        teacher, _ = train_with_early_stopping(
            arch,
            lab.features,
            one_hot(lab.labels, arch.output_dim),
            splits.early_stop,
            replace(cfg.finetune, seed=seeds[0]),
        )
        record_model(0, teacher, labels=None, agreement=None)

        current = teacher
        for i in range(1, cfg.iterations + 1):
            raw = pseudo_label_pool(current, splits.pool)
            filtered = filter_pseudo_labels(raw, cfg.distill, splits.pool.catalog)
            if filtered:
                agreement, _ = pseudo_label_quality(filtered, splits.pool)
            else:
                agreement = None
            current = train_student(
                arch, filtered, splits, cfg, student_seed=seeds[i], warm_start=current
            )
            record_model(i, current, labels=filtered, agreement=agreement)
    except (ValueError, ArithmeticError) as exc:
        raise ChainAborted(f"chain aborted at iteration {len(records)}: {exc}", tuple(records)) from exc

    return ChainResult(
        records=tuple(records),
        best_iteration=select_best(records),
        config=cfg,
        seeds=seeds,
    )

