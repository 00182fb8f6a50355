"""Pseudo-label generation over an unlabelled pool, plus the two filters that
shape what the next student trains on: per-sample truncation to the highest
class probabilities, and per-class retention of the most confident samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import ClassCatalog, PoolTruth, PoolView, _frozen_view
from .learner import ModelParams, forward


@dataclass(frozen=True)
class PseudoLabels:
    """Soft class-probability targets for pool samples, one row per sample.

    ``positions`` (n,), each sample's position in its pool (non-negative),
    and ``soft`` (n, C) are given; ``top`` (n,) is the predicted class
    (lowest index on ties) and ``confidence`` (n,) its probability. All
    four arrays are read-only views; the caller's own arrays stay writable.
    """

    positions: np.ndarray
    soft: np.ndarray
    top: np.ndarray = field(init=False)
    confidence: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        positions = np.ascontiguousarray(self.positions, dtype=np.int64)
        soft = np.ascontiguousarray(self.soft, dtype=np.float64)
        if soft.ndim != 2 or positions.shape != (soft.shape[0],):
            raise ValueError("soft must be (n, C) with one position per row")
        if positions.size and positions.min() < 0:
            raise ValueError(f"pool position {positions.min()} is negative")
        top = soft.argmax(axis=1)
        confidence = soft[np.arange(soft.shape[0]), top]
        for name, arr in (("positions", positions), ("soft", soft), ("top", top), ("confidence", confidence)):
            object.__setattr__(self, name, _frozen_view(arr))

    def __len__(self) -> int:
        return int(self.positions.shape[0])


@dataclass(frozen=True)
class DistillConfig:
    """Pseudo-label filter settings.

    ``per_class_cap`` keeps at most that many samples per predicted class
    (None = no cap); ``top_probs`` keeps only that many probabilities non-zero
    per sample (None = all classes).
    """

    per_class_cap: int | None = 4000
    top_probs: int | None = None

    def __post_init__(self) -> None:
        if self.per_class_cap is not None and self.per_class_cap < 1:
            raise ValueError("per_class_cap must be positive or None")
        if self.top_probs is not None and self.top_probs < 1:
            raise ValueError("top_probs must be positive or None")


def pseudo_label_pool(model: ModelParams, pool: PoolView) -> PseudoLabels:
    """Pseudo-labels for every pool sample, in pool order.

    The whole pool is gathered and normalized into one scratch matrix and
    labelled by one forward pass: a pass over row blocks would give other
    bits, since a matmul's rounding depends on the rows it is given.
    """
    if pool.source.shape[1] != model.arch.input_dim:
        raise ValueError(
            f"pool dim {pool.source.shape[1]} does not match model input {model.arch.input_dim}"
        )
    return PseudoLabels(np.arange(len(pool)), forward(model, pool.features()))


def keep_top_probabilities(labels: PseudoLabels, keep: int) -> PseudoLabels:
    """Zero all but the ``keep`` largest probabilities of each row and
    renormalize.

    Ties on the cut boundary keep the lower class index. The relative order
    of surviving probabilities, and hence the top class, is unchanged.
    """
    c = labels.soft.shape[1]
    if not 1 <= keep <= c:
        raise ValueError(f"keep must be in [1, {c}]")
    if keep == c:
        return labels
    # Stable sort on the negated rows ranks equal values by ascending index.
    survivors = np.argsort(-labels.soft, axis=1, kind="stable")[:, :keep]
    rows = np.arange(len(labels))[:, None]
    truncated = np.zeros_like(labels.soft)
    truncated[rows, survivors] = labels.soft[rows, survivors]
    truncated /= truncated.sum(axis=1, keepdims=True)
    return PseudoLabels(labels.positions, truncated)


def keep_most_confident_per_class(
    labels: PseudoLabels, cap: int | None, catalog: ClassCatalog
) -> PseudoLabels:
    """Retain at most ``cap`` samples per predicted class, most confident
    first; ties break by ascending pool position, which is ascending sample
    id because a PoolView's ids are strictly ascending. Output is grouped in
    catalog class order."""
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive or None")
    if labels.soft.shape[1] != catalog.size:
        raise ValueError(
            f"pseudo-labels have {labels.soft.shape[1]} classes, catalog has {catalog.size}"
        )
    order = np.lexsort((labels.positions, -labels.confidence, labels.top))
    if cap is not None:
        grouped = labels.top[order]
        rank_in_class = np.arange(order.size) - np.searchsorted(grouped, grouped)
        order = order[rank_in_class < cap]
    return PseudoLabels(labels.positions[order], labels.soft[order])


def filter_pseudo_labels(
    labels: PseudoLabels, config: DistillConfig, catalog: ClassCatalog
) -> PseudoLabels:
    """Per-sample probability truncation first, then the per-class cap on the
    recomputed confidences."""
    if config.top_probs is not None:
        labels = keep_top_probabilities(labels, config.top_probs)
    return keep_most_confident_per_class(labels, config.per_class_cap, catalog)


def pseudo_label_quality(
    labels: PseudoLabels, truth: PoolTruth
) -> tuple[float, np.ndarray]:
    """Agreement of predicted top classes with the pool's withheld truth.

    Diagnostics only: the one function given the truth, and nothing here
    feeds back into training. Returns the overall agreement and the
    per-true-class agreement vector (0 for classes absent from the scored
    labels).
    """
    true_class = truth.labels[labels.positions]
    c = truth.catalog.size
    totals = np.bincount(true_class, minlength=c)
    hits = np.bincount(true_class[labels.top == true_class], minlength=c)
    if totals.sum() == 0:
        raise ValueError("no labels to score")
    per_class = np.where(totals > 0, hits / np.maximum(totals, 1), 0.0)
    return float(hits.sum() / totals.sum()), per_class
