from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillchain import (
    ArchSpec,
    ChainConfig,
    ClassCatalog,
    DistillConfig,
    Normalizer,
    PoolView,
    PseudoLabels,
    SplitSpec,
    filter_pseudo_labels,
    generate_synthetic,
    init_params,
    keep_most_confident_per_class,
    keep_top_probabilities,
    make_splits,
    pseudo_label_pool,
    pseudo_label_quality,
    train_student,
)
from distillchain.learner import ModelParams, forward

from conftest import outcome_of, pool_from, truth_from


def labels_at(positions, rows):
    return PseudoLabels(np.asarray(positions), np.asarray(rows, dtype=np.float64))


def random_labels(rng, n, c):
    raw = rng.exponential(1.0, (n, c))
    soft = raw / raw.sum(axis=1, keepdims=True)
    return PseudoLabels(np.arange(n), soft)


def as_pairs(labels):
    return list(zip(labels.positions.tolist(), labels.top.tolist()))


# ---------------------------------------------------------------------------
# Independent brute-force filter implementations (full sort / exhaustive
# zeroing); the fast path must match these exactly.


def brute_force_truncate(soft, keep):
    c = soft.shape[0]
    ranked = sorted(range(c), key=lambda i: (-soft[i], i))
    out = np.zeros(c)
    for i in ranked[:keep]:
        out[i] = soft[i]
    return out / out.sum()


def brute_force_cap(labels, cap, num_classes):
    """(position, top class) pairs kept, in output order."""
    kept = []
    for cls in range(num_classes):
        members = [i for i in range(len(labels)) if labels.top[i] == cls]
        members.sort(key=lambda i: (-labels.confidence[i], labels.positions[i]))
        kept.extend(members if cap is None else members[:cap])
    return [(int(labels.positions[i]), int(labels.top[i])) for i in kept]


# ---------------------------------------------------------------------------
# The per-sample implementation the array filters replaced: one object per
# pool sample, per-row truncation, and a sort-key cap loop. The array path
# must reproduce it bit for bit.


@dataclass(frozen=True)
class ReferenceLabel:
    position: int
    soft: np.ndarray
    top_class: int
    confidence: float

    @staticmethod
    def from_probs(position, probs):
        soft = np.asarray(probs, dtype=np.float64)
        top = int(soft.argmax())
        return ReferenceLabel(int(position), soft, top, float(soft[top]))


def reference_keep_top(label, keep):
    c = label.soft.shape[0]
    if keep == c:
        return label
    survivors = np.argsort(-label.soft, kind="stable")[:keep]
    truncated = np.zeros(c, dtype=np.float64)
    truncated[survivors] = label.soft[survivors]
    truncated /= truncated.sum()
    return ReferenceLabel.from_probs(label.position, truncated)


def reference_cap(labels, cap, num_classes):
    by_class = [[] for _ in range(num_classes)]
    for label in labels:
        by_class[label.top_class].append(label)
    kept = []
    for members in by_class:
        members.sort(key=lambda p: (-p.confidence, p.position))
        kept.extend(members if cap is None else members[:cap])
    return kept


def reference_filter(positions, soft, config, num_classes):
    labels = [ReferenceLabel.from_probs(i, row) for i, row in zip(positions, soft)]
    if config.top_probs is not None:
        labels = [reference_keep_top(p, config.top_probs) for p in labels]
    return reference_cap(labels, config.per_class_cap, num_classes)


def tied_matrix(seed, n, c):
    """Row-stochastic matrix with ties inside rows (coarse values) and
    between rows (duplicated rows), under shuffled, sparse pool positions."""
    rng = np.random.default_rng(seed)
    raw = np.round(rng.exponential(1.0, (n, c)) * 3.0) + 1.0
    raw[: n // 2] = rng.exponential(1.0, (n // 2, c))
    dup = rng.integers(0, n, n // 4)
    raw[rng.integers(0, n, n // 4)] = raw[dup]
    positions = rng.permutation(3 * n)[:n]
    return positions, raw / raw.sum(axis=1, keepdims=True)


class TestMatchesPerSampleReference:
    @pytest.mark.parametrize("per_class_cap", [None, 1, 7])
    @pytest.mark.parametrize("seed,c", [(0, 2), (1, 3), (2, 5), (3, 9), (4, 12)])
    def test_bit_identical(self, seed, c, per_class_cap):
        positions, soft = tied_matrix(seed, 120, c)
        for top_probs in (None, 1, min(3, c), c - 1, c):
            config = DistillConfig(per_class_cap=per_class_cap, top_probs=top_probs)
            expected = reference_filter(positions, soft, config, c)
            got = filter_pseudo_labels(PseudoLabels(positions, soft), config, ClassCatalog.generic(c))
            assert got.positions.tolist() == [p.position for p in expected]
            assert got.top.tolist() == [p.top_class for p in expected]
            assert got.confidence.tolist() == [p.confidence for p in expected]
            assert np.array_equal(got.soft, np.array([p.soft for p in expected]).reshape(-1, c))


class TestPseudoLabelPool:
    def test_empty_pool(self, two_class_catalog):
        pool = pool_from(two_class_catalog, np.zeros((0, 2)))
        params = init_params(ArchSpec(input_dim=2, hidden=(), output_dim=2), 0)
        labels = pseudo_label_pool(params, pool)
        assert len(labels) == 0
        assert labels.soft.shape == (0, 2)

    def test_zero_params_give_uniform_soft_labels(self):
        catalog = ClassCatalog(tuple("abcdefghi"))
        pool = pool_from(catalog, np.ones((4, 3)))
        params = ModelParams(
            arch=ArchSpec(input_dim=3, hidden=(), output_dim=9),
            weights=(np.zeros((9, 3)),),
            biases=(np.zeros(9),),
        )
        labels = pseudo_label_pool(params, pool)
        assert len(labels) == 4
        assert np.allclose(labels.soft, 1.0 / 9.0, atol=1e-12)
        assert labels.top.tolist() == [0, 0, 0, 0]  # tie broken by lowest class index
        assert labels.confidence.tolist() == pytest.approx([1.0 / 9.0] * 4)

    def test_positions_are_the_pool_in_ascending_id_order(self, two_class_catalog):
        rng = np.random.default_rng(0)
        pool = pool_from(two_class_catalog, rng.normal(size=(5, 2)), ids=[9, 2, 5, 7, 0])
        params = init_params(ArchSpec(input_dim=2, hidden=(), output_dim=2), 1)
        labels = pseudo_label_pool(params, pool)
        assert labels.positions.tolist() == [0, 1, 2, 3, 4]
        assert pool.ids[labels.positions].tolist() == [0, 2, 5, 7, 9]

    def test_ascending_pool_gives_the_same_bytes_as_a_shuffled_one(self, two_class_catalog):
        # the same rows read from a source matrix in id order and from a
        # shuffled one
        rng = np.random.default_rng(1)
        ids = np.array([0, 2, 5, 7, 9])
        features = rng.normal(size=(5, 2))
        params = init_params(ArchSpec(input_dim=2, hidden=(4,), output_dim=2), 1)
        shuffle = rng.permutation(5)
        labels = [
            pseudo_label_pool(
                params, pool_from(two_class_catalog, features[rows], ids=ids[rows])
            )
            for rows in (np.arange(5), shuffle)
        ]
        assert labels[0].positions.tobytes() == labels[1].positions.tobytes() == np.arange(5).tobytes()
        assert labels[0].soft.tobytes() == labels[1].soft.tobytes()

    def test_reads_its_rows_of_the_source_through_the_normalizer(self, two_class_catalog):
        # one forward over the whole gathered, normalized pool: the bytes of
        # a forward over a normalized copy of those rows
        rng = np.random.default_rng(2)
        source = rng.normal(3.0, 2.5, size=(40, 3))
        norm = Normalizer(mean=source.mean(axis=0), std=source.std(axis=0))
        rows = np.array([31, 4, 17, 0, 22, 9])
        pool = PoolView(two_class_catalog, source, rows, np.array([1, 3, 4, 8, 10, 11]), norm)
        params = init_params(ArchSpec(input_dim=3, hidden=(4,), output_dim=2), 3)
        labels = pseudo_label_pool(params, pool)
        copied = (source[rows] - norm.mean) / norm.std
        assert pool.ids[labels.positions].tolist() == [1, 3, 4, 8, 10, 11]
        assert labels.soft.tobytes() == forward(params, copied).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no warning: the fault is reported
    def test_pool_rows_that_overflow_when_normalized_are_rejected(self, two_class_catalog):
        # a finite source row and a finite normalizer can still give an
        # infinite feature, which forward's finiteness scan catches
        source = np.array([[0.5, 1.0], [1e300, 0.0]])
        norm = Normalizer(mean=np.zeros(2), std=np.full(2, 1e-10))
        pool = PoolView(two_class_catalog, source, np.arange(2), np.arange(2), norm)
        params = init_params(ArchSpec(input_dim=2, hidden=(), output_dim=2), 0)
        with pytest.raises(ValueError, match="^features must be finite$"):
            pseudo_label_pool(params, pool)

    def test_dimension_mismatch(self, two_class_catalog):
        pool = pool_from(two_class_catalog, np.ones((2, 3)))
        params = init_params(ArchSpec(input_dim=2, hidden=(), output_dim=2), 0)
        with pytest.raises(ValueError, match="dim"):
            pseudo_label_pool(params, pool)


class TestKeepTopProbabilities:
    def test_keep_all_is_identity(self):
        labels = labels_at([1], [[0.5, 0.3, 0.2]])
        assert keep_top_probabilities(labels, 3) is labels

    def test_documented_example(self):
        out = keep_top_probabilities(labels_at([0], [[0.5, 0.3, 0.15, 0.05]]), 2)
        assert out.soft[0].tolist() == pytest.approx([0.625, 0.375, 0.0, 0.0], abs=1e-12)
        assert out.top[0] == 0
        assert out.confidence[0] == pytest.approx(0.625)

    def test_keep_one_is_one_hot(self):
        out = keep_top_probabilities(labels_at([0], [[0.2, 0.5, 0.3]]), 1)
        assert out.soft[0].tolist() == [0.0, 1.0, 0.0]

    def test_boundary_tie_keeps_lower_class_index(self):
        out = keep_top_probabilities(labels_at([0], [[0.4, 0.3, 0.3]]), 2)
        # classes 1 and 2 tie at 0.3; class 1 survives
        assert out.soft[0, 1] > 0.0
        assert out.soft[0, 2] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), keep=st.integers(1, 6))
    def test_matches_brute_force_and_preserves_order(self, seed, keep):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 7))
        label = random_labels(rng, 1, c)
        keep = min(keep, c)
        fast = keep_top_probabilities(label, keep)
        brute = brute_force_truncate(label.soft[0], keep)
        assert np.abs(fast.soft[0] - brute).max() < 1e-12
        assert fast.top[0] == label.top[0]
        assert fast.soft[0].sum() == pytest.approx(1.0, abs=1e-9)
        # surviving probabilities keep their relative order
        survivors = np.flatnonzero(fast.soft[0])
        original_order = np.argsort(-label.soft[0, survivors], kind="stable")
        new_order = np.argsort(-fast.soft[0, survivors], kind="stable")
        assert np.array_equal(original_order, new_order)


class TestKeepMostConfidentPerClass:
    def test_no_truncation_reorders_only(self, two_class_catalog):
        rng = np.random.default_rng(4)
        labels = random_labels(rng, 10, 2)
        out = keep_most_confident_per_class(labels, 100, two_class_catalog)
        assert sorted(out.positions.tolist()) == sorted(labels.positions.tolist())
        assert as_pairs(out) == brute_force_cap(labels, 100, 2)

    def test_documented_five_sample_case(self, two_class_catalog):
        confidences = {1: (0.9, 0.1), 2: (0.6, 0.4), 3: (0.2, 0.8), 4: (0.45, 0.55), 5: (0.7, 0.3)}
        labels = labels_at(list(confidences), list(confidences.values()))
        out = keep_most_confident_per_class(labels, 1, two_class_catalog)
        assert as_pairs(out) == [(1, 0), (3, 1)]

    def test_eighty_percent_heuristic(self):
        # 9 predicted classes x 5000 members each; a 4000 cap keeps 80%
        catalog = ClassCatalog(tuple(f"t{i}" for i in range(9)))
        rng = np.random.default_rng(0)
        soft = np.full((45000, 9), 0.01)
        soft[np.arange(45000), np.arange(45000) // 5000] = 1.0 - 0.08
        soft += rng.uniform(0, 1e-4, (45000, 9))  # break confidence ties
        soft /= soft.sum(axis=1, keepdims=True)
        labels = PseudoLabels(np.arange(45000), soft)
        out = keep_most_confident_per_class(labels, 4000, catalog)
        assert len(labels) == 45000
        assert len(out) == 36000
        assert len(out) / len(labels) == 0.8

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cap_and_confidence_dominance_properties(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 5))
        cap = int(rng.integers(1, 6))
        catalog = ClassCatalog(tuple(f"x{i}" for i in range(c)))
        labels = random_labels(rng, int(rng.integers(0, 40)), c)
        out = keep_most_confident_per_class(labels, cap, catalog)
        dropped_mask = ~np.isin(labels.positions, out.positions)
        assert np.isin(out.positions, labels.positions).all()
        for cls in range(c):
            kept = out.confidence[out.top == cls]
            dropped = labels.confidence[(labels.top == cls) & dropped_mask]
            assert kept.size <= cap
            if kept.size and dropped.size:
                assert kept.min() >= dropped.max()

    def test_deterministic(self, two_class_catalog):
        rng = np.random.default_rng(8)
        labels = random_labels(rng, 30, 2)
        a = keep_most_confident_per_class(labels, 5, two_class_catalog)
        b = keep_most_confident_per_class(PseudoLabels(labels.positions, labels.soft), 5, two_class_catalog)
        assert a.positions.tolist() == b.positions.tolist()
        assert a.confidence.tolist() == b.confidence.tolist()


class TestFilterComposition:
    def test_unbounded_filters_are_identity_up_to_order(self, two_class_catalog):
        rng = np.random.default_rng(3)
        labels = random_labels(rng, 12, 2)
        out = filter_pseudo_labels(
            labels, DistillConfig(per_class_cap=None, top_probs=2), two_class_catalog
        )
        assert sorted(out.positions.tolist()) == sorted(labels.positions.tolist())
        by_position = np.argsort(out.positions)  # labels.positions is 0..n-1
        assert np.abs(out.soft[by_position] - labels.soft).max() < 1e-12


class TestPseudoLabelQuality:
    def test_perfect_agreement(self, two_class_catalog):
        truth = truth_from(two_class_catalog, [0, 1, 1])
        labels = labels_at([0, 1, 2], [[0.9, 0.1], [0.2, 0.8], [0.3, 0.7]])
        agreement, per_class = pseudo_label_quality(labels, truth)
        assert agreement == 1.0
        assert per_class.tolist() == [1.0, 1.0]

    def test_two_of_three_agree(self, two_class_catalog):
        truth = truth_from(two_class_catalog, [0, 1, 1])
        labels = labels_at([0, 1, 2], [[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        agreement, _ = pseudo_label_quality(labels, truth)
        assert agreement == pytest.approx(2.0 / 3.0, abs=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_per_class_agreement_recombines(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        true_labels = rng.integers(0, 2, n)
        truth = truth_from(ClassCatalog(("neg", "pos")), true_labels)
        labels = random_labels(rng, n, 2)
        agreement, per_class = pseudo_label_quality(labels, truth)
        counts = np.bincount(true_labels, minlength=2)
        recombined = float((per_class * counts).sum() / counts.sum())
        assert agreement == pytest.approx(recombined, abs=1e-12)

    def test_positions_outside_the_pool_raise(self):
        # a negative position would wrap as an index, so it fails when the
        # labels are built; one past the end fails where it indexes the pool
        with pytest.raises(ValueError, match="pool position -1 is negative"):
            labels_at([0, -1], [[1.0, 0.0], [0.0, 1.0]])
        train, _, _ = generate_synthetic(classes=2, per_class=20, dim=2, spread=0.4, seed=0)
        splits, truth = make_splits(train, SplitSpec(labelled_fraction=0.5, early_stop_fraction=0.1))
        past_end = labels_at([len(splits.pool)], [[1.0, 0.0]])
        with pytest.raises(IndexError):
            pseudo_label_quality(past_end, truth)
        with pytest.raises(IndexError):
            train_student(ArchSpec(2, (), 2), past_end, splits, ChainConfig(), seed=0)

    def test_reads_the_truth_of_the_labelled_positions_in_any_order(self, two_class_catalog):
        truth = truth_from(two_class_catalog, [0, 1, 1, 1])
        labels = labels_at([3, 0], [[0.2, 0.8], [0.1, 0.9]])
        agreement, per_class = pseudo_label_quality(labels, truth)
        assert agreement == 0.5
        assert per_class.tolist() == [0.0, 1.0]


class TestPseudoLabels:
    def test_leaves_the_callers_arrays_writable(self):
        positions = np.arange(3)
        soft = np.full((3, 2), 0.5)
        labels = PseudoLabels(positions, soft)
        assert positions.flags.writeable and soft.flags.writeable
        for arr in (labels.positions, labels.soft, labels.top, labels.confidence):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        positions[0] = 7  # the caller's arrays are still theirs


AB = ClassCatalog(("a", "b"))
THREE = labels_at([0, 1, 2], [[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: PseudoLabels(np.arange(2), np.full((3, 2), 0.5)), "soft must be (n, C) with one position per row"),
        (lambda: keep_top_probabilities(THREE, 0), "keep must be in [1, 2]"),
        (lambda: keep_top_probabilities(THREE, 3), "keep must be in [1, 2]"),
        (lambda: keep_most_confident_per_class(THREE, 0, AB), "cap must be positive or None"),
        (
            lambda: keep_most_confident_per_class(THREE, None, ClassCatalog(("a", "b", "c"))),
            "pseudo-labels have 2 classes, catalog has 3",
        ),
        (
            lambda: pseudo_label_quality(PseudoLabels(np.zeros(0, np.int64), np.zeros((0, 2))), truth_from(AB, [0, 1])),
            "no labels to score",
        ),
    ],
    ids=["positions and soft", "keep 0", "keep above C", "cap 0", "catalog size", "no labels"],
)
def test_each_input_check_names_its_fault(call, want):
    got = outcome_of(call)
    assert (type(got), str(got)) == (ValueError, want)
