import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillchain import (
    ClassCatalog,
    DataTable,
    HiddenLabelError,
    SplitSpec,
    TableParseError,
    generate_synthetic,
    make_splits,
    normalize,
    read_table,
    write_table,
)
from distillchain.dataset import DEFAULT_CLASS_NAMES, _fisher_yates, synthetic_class_means

from conftest import table_from


class TestClassCatalog:
    def test_default_is_the_nine_tissue_classes(self):
        catalog = ClassCatalog.default()
        assert catalog.names == DEFAULT_CLASS_NAMES
        assert catalog.size == 9
        assert catalog.index("TUM") == 8

    def test_rejects_duplicates_and_singletons(self):
        with pytest.raises(ValueError):
            ClassCatalog(("a", "a"))
        with pytest.raises(ValueError):
            ClassCatalog(("only",))


class TestDataTable:
    def test_rejects_duplicate_ids(self, two_class_catalog):
        with pytest.raises(ValueError, match="unique"):
            table_from(two_class_catalog, [[0.0], [1.0]], labels=[0, 1], ids=[3, 3])

    @pytest.mark.parametrize("ids", [[1, 2, 2, 3], [3, 1, 3], [5, 5], [4, 0, 9, 0]])
    def test_rejects_duplicates_sorted_or_not(self, two_class_catalog, ids):
        with pytest.raises(ValueError, match="unique"):
            table_from(two_class_catalog, np.zeros((len(ids), 1)), ids=ids)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_rows_of_matches_argsort_lookup(self, two_class_catalog, ascending):
        # reference: the argsort + searchsorted lookup every table used to do
        def reference_rows_of(table_ids, ids):
            order = np.argsort(table_ids)
            pos = np.searchsorted(table_ids, ids, sorter=order)
            found = pos < order.size
            found[found] = table_ids[order[pos[found]]] == ids[found]
            return order[pos], found

        rng = np.random.default_rng(0)
        for n in (0, 1, 2, 50):
            ids = np.sort(rng.choice(200, size=n, replace=False))
            if not ascending:
                ids = rng.permutation(ids)
            table = table_from(two_class_catalog, np.zeros((n, 1)), ids=ids)
            queries = rng.permutation(table.ids.copy())[: n // 2]
            want, found = reference_rows_of(table.ids, queries)
            assert found.all()
            assert np.array_equal(table.rows_of(queries), want)
            assert np.array_equal(table.ids[table.rows_of(queries)], queries)
            for unknown in (-1, 200, *np.setdiff1d(np.arange(200), ids)[:3]):
                with pytest.raises(ValueError, match=f"sample id {unknown} not present"):
                    table.rows_of(np.append(queries, unknown))

    def test_rejects_out_of_range_labels(self, two_class_catalog):
        with pytest.raises(ValueError):
            table_from(two_class_catalog, [[0.0]], labels=[2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, two_class_catalog, bad):
        with pytest.raises(ValueError, match="finite"):
            table_from(two_class_catalog, [[0.0, 1.0], [bad, 2.0]], labels=[0, 1])

    def test_hidden_labels_unreachable_directly(self, two_class_catalog):
        pool = table_from(two_class_catalog, [[0.0], [1.0]], labels=[0, 1], hidden=True)
        assert pool.labels is None
        assert pool.hidden
        with pytest.raises(HiddenLabelError, match="diagnostics"):
            pool.reveal_hidden_labels()


class TestGenerateSynthetic:
    def test_split_ratio_and_balance(self):
        train, val, test = generate_synthetic(classes=9, per_class=100, dim=3, spread=0.5, seed=0)
        assert (len(train), len(val), len(test)) == (720, 90, 90)
        counts = np.bincount(train.labels, minlength=9)
        assert (counts == 80).all()
        # ids are globally distinct across the three tables
        all_ids = np.concatenate([train.ids, val.ids, test.ids])
        assert np.unique(all_ids).size == all_ids.size

    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic(classes=3, per_class=30, dim=4, spread=1.0, seed=99)
        b = generate_synthetic(classes=3, per_class=30, dim=4, spread=1.0, seed=99)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.features, tb.features)
            assert np.array_equal(ta.ids, tb.ids)
            assert np.array_equal(ta.labels, tb.labels)

    def test_means_at_unit_pairwise_distance_scale(self):
        # closest pair of means at distance 2: the nearest decision boundary
        # is at unit distance from each mean
        for classes, dim, seed in [(2, 1, 3), (9, 16, 42), (4, 2, 7)]:
            means = synthetic_class_means(classes, dim, seed)
            dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
            min_dist = dists[~np.eye(classes, dtype=bool)].min()
            assert min_dist == pytest.approx(2.0, abs=1e-9)

    def test_nearest_mean_accuracy_matches_gaussian_oracle(self):
        # 1-D two-class case: means land exactly on +-1, so a nearest-mean
        # classifier is right when the spread-0.5 noise stays on the mean's
        # side of the midpoint: expected accuracy Phi(1/0.5) ~= 0.9772.
        seed = 11
        means = synthetic_class_means(2, 1, seed)
        assert sorted(means.ravel().tolist()) == pytest.approx([-1.0, 1.0], abs=1e-12)
        rng = np.random.default_rng(0)
        n = 1_000_000
        labels = rng.integers(0, 2, n)
        draws = means[labels, 0] + 0.5 * rng.standard_normal(n)
        predictions = np.abs(draws - means[0, 0]) > np.abs(draws - means[1, 0])
        accuracy = (predictions == labels).mean()
        assert accuracy == pytest.approx(0.977250, abs=2e-3)

    def test_generated_draws_match_the_oracle_too(self):
        train, _, _ = generate_synthetic(classes=2, per_class=20000, dim=1, spread=0.5, seed=11)
        means = synthetic_class_means(2, 1, 11)
        d0 = np.abs(train.features[:, 0] - means[0, 0])
        d1 = np.abs(train.features[:, 0] - means[1, 0])
        accuracy = ((d1 < d0).astype(int) == train.labels).mean()
        assert accuracy == pytest.approx(0.977250, abs=5e-3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_synthetic(classes=1, per_class=100, dim=2, spread=1.0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(classes=2, per_class=100, dim=0, spread=1.0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(classes=2, per_class=100, dim=2, spread=0.0, seed=0)
        with pytest.raises(ValueError, match="distinct class means"):
            generate_synthetic(classes=3, per_class=100, dim=1, spread=1.0, seed=0)


class TestTableIO:
    def test_round_trip_identity(self, tmp_path, two_class_catalog):
        table = table_from(
            two_class_catalog,
            [[0.125, -3.5], [1e-7, 2.0], [9.25, 0.0]],
            labels=[0, 1, 1],
            ids=[5, 2, 9],
        )
        path = tmp_path / "t.csv"
        write_table(path, table)
        back = read_table(path)
        assert back.catalog.names == table.catalog.names
        assert np.array_equal(back.ids, table.ids)
        assert np.array_equal(back.features, table.features)
        assert np.array_equal(back.labels, table.labels)

    def test_unlabelled_rows_round_trip_empty(self, tmp_path, two_class_catalog):
        table = table_from(two_class_catalog, [[1.0], [2.0]], labels=[0, -1])
        path = tmp_path / "u.csv"
        write_table(path, table)
        text = path.read_text()
        assert text.splitlines()[2].startswith("1,,")
        back = read_table(path)
        assert back.labels.tolist() == [0, -1]

    def test_tum_row_maps_to_last_class_index(self, tmp_path):
        path = tmp_path / "nine.csv"
        path.write_text("id,label,f0,f1\n7,TUM,0.1,0.2\n")
        path.with_suffix(".classes").write_text(",".join(DEFAULT_CLASS_NAMES) + "\n")
        table = read_table(path)
        sample = table.sample(0)
        assert sample.id == 7
        assert sample.label == 8
        assert sample.features.tolist() == [0.1, 0.2]

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f0\n0,XYZ,1.0\n")
        path.with_suffix(".classes").write_text("a,b\n")
        with pytest.raises(TableParseError, match="line 2"):
            read_table(path)

    def test_wrong_arity_and_bad_float_name_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.with_suffix(".classes").write_text("a,b\n")
        path.write_text("id,label,f0,f1\n0,a,1.0\n")
        with pytest.raises(TableParseError, match="line 2"):
            read_table(path)
        path.write_text("id,label,f0,f1\n0,a,1.0,2.0\n1,b,x,2.0\n")
        with pytest.raises(TableParseError, match="line 3"):
            read_table(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.with_suffix(".classes").write_text("a,b\n")
        path.write_text(f"id,label,f0,f1\n0,a,1.0,2.0\n\n1,b,3.0,{bad}\n2,a,0.0,0.0\n")
        with pytest.raises(TableParseError, match=rf"bad\.csv: line 4: non-finite"):
            read_table(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "orphan.csv"
        path.write_text("id,label,f0\n")
        with pytest.raises(TableParseError, match="sidecar"):
            read_table(path)


def _labelled_table(n, catalog_size=9, seed=0):
    rng = np.random.default_rng(seed)
    catalog = ClassCatalog(tuple(f"k{i}" for i in range(catalog_size)))
    labels = np.concatenate([np.arange(catalog_size), rng.integers(0, catalog_size, n - catalog_size)])
    return DataTable(
        catalog=catalog,
        ids=np.arange(n),
        features=rng.standard_normal((n, 3)),
        labels=labels,
    )


def scalar_fisher_yates(ids, rng):
    """The per-element shuffle the vectorised draw replaced: one
    integers(0, i + 1) call per position, swapping in place."""
    out = np.sort(ids)
    for i in range(out.size - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        out[i], out[j] = out[j], out[i]
    return out


class TestFisherYates:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 6480])
    def test_matches_scalar_draws_and_generator_state(self, n):
        for seed in range(4):
            ids = np.random.default_rng(seed + 50).permutation(3 * n)[:n].astype(np.int64)
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _fisher_yates(ids, ours)
            want = scalar_fisher_yates(ids, theirs)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert ours.bit_generator.state == theirs.bit_generator.state


class TestMakeSplits:
    def test_floor_arithmetic_sizes(self):
        train = _labelled_table(1000)
        result = make_splits(train, SplitSpec(labelled_fraction=0.01, early_stop_fraction=0.01, seed=4))
        assert result.audit.n_early_stop == 10
        assert result.audit.n_labelled == 10
        assert result.audit.n_pool == 980

    def test_full_fraction_empties_the_pool(self):
        train = _labelled_table(1000)
        result = make_splits(train, SplitSpec(labelled_fraction=1.0, early_stop_fraction=0.01, seed=4))
        assert result.audit.n_pool == 0
        assert result.audit.n_labelled == 990

    def test_zero_early_stop_fraction_is_infeasible(self):
        train = _labelled_table(1000)
        with pytest.raises(ValueError, match="early-stop"):
            make_splits(train, SplitSpec(labelled_fraction=1.0, early_stop_fraction=0.0, seed=4))

    def test_fraction_sum_above_one_rejected(self):
        with pytest.raises(ValueError, match="exceed 1"):
            SplitSpec(labelled_fraction=0.7, early_stop_fraction=0.5)

    def test_seeds_change_the_draw(self):
        train = _labelled_table(1000)
        spec = SplitSpec(labelled_fraction=0.05, early_stop_fraction=0.01, seed=1)
        a = make_splits(train, spec)
        b = make_splits(train, SplitSpec(labelled_fraction=0.05, early_stop_fraction=0.01, seed=2))
        c = make_splits(train, spec)
        assert not np.array_equal(a.labelled.ids, b.labelled.ids)
        assert np.array_equal(a.labelled.ids, c.labelled.ids)
        assert np.array_equal(a.early_stop.ids, c.early_stop.ids)
        assert np.array_equal(a.pool.ids, c.pool.ids)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 400))
    def test_disjoint_cover_property(self, seed, n):
        train = _labelled_table(n, catalog_size=4, seed=seed % 17)
        result = make_splits(
            train, SplitSpec(labelled_fraction=0.1, early_stop_fraction=0.05, seed=seed)
        )
        pieces = [result.labelled.ids, result.early_stop.ids, result.pool.ids]
        union = np.concatenate(pieces)
        assert np.unique(union).size == union.size == n
        assert set(union.tolist()) == set(train.ids.tolist())

    def test_early_stop_covers_every_class(self):
        for seed in range(30):
            train = _labelled_table(300, catalog_size=9, seed=3)
            result = make_splits(
                train, SplitSpec(labelled_fraction=0.1, early_stop_fraction=0.04, seed=seed)
            )
            present = np.unique(result.early_stop.labels)
            assert present.size == 9

    def test_balanced_draw_quotas(self):
        train = _labelled_table(400, catalog_size=4, seed=5)
        result = make_splits(
            train,
            SplitSpec(labelled_fraction=0.1, early_stop_fraction=0.02, seed=8, balance_labelled=True),
        )
        counts = np.bincount(result.labelled.labels, minlength=4)
        assert counts.tolist() == [10, 10, 10, 10]

    def test_pool_labels_are_hidden(self):
        train = _labelled_table(500)
        result = make_splits(train, SplitSpec(labelled_fraction=0.1, early_stop_fraction=0.02, seed=0))
        assert result.pool.labels is None
        with pytest.raises(HiddenLabelError):
            result.pool.reveal_hidden_labels()

    def test_missing_class_in_train_rejected(self):
        catalog = ClassCatalog(("a", "b", "c"))
        table = DataTable(
            catalog=catalog,
            ids=np.arange(50),
            features=np.zeros((50, 2)),
            labels=np.zeros(50, dtype=np.int64),  # only class "a"
        )
        with pytest.raises(ValueError, match="no samples"):
            make_splits(table, SplitSpec(labelled_fraction=0.2, early_stop_fraction=0.1, seed=0))


class TestNormalize:
    def test_degenerate_variance_clamps_to_one(self, two_class_catalog):
        ref = table_from(two_class_catalog, [[5.0], [5.0], [5.0]], labels=[0, 1, 0])
        norm, [out] = normalize(ref, [ref])
        assert norm.mean.tolist() == [5.0]
        assert norm.std.tolist() == [1.0]
        assert out.features.tolist() == [[0.0], [0.0], [0.0]]

    def test_two_point_population_statistics(self, two_class_catalog):
        ref = table_from(two_class_catalog, [[0.0], [2.0]], labels=[0, 1])
        norm, [out] = normalize(ref, [ref])
        assert norm.mean.tolist() == [1.0]
        assert norm.std.tolist() == [1.0]
        assert out.features.ravel().tolist() == [-1.0, 1.0]

    def test_transformed_reference_is_standardized(self, two_class_catalog):
        rng = np.random.default_rng(3)
        ref = table_from(two_class_catalog, rng.normal(3.0, 2.5, (200, 4)), labels=rng.integers(0, 2, 200))
        _, [out] = normalize(ref, [ref])
        assert np.abs(out.features.mean(axis=0)).max() < 1e-9
        assert np.abs(out.features.std(axis=0) - 1.0).max() < 1e-9

    def test_dimension_mismatch_rejected(self, two_class_catalog):
        ref = table_from(two_class_catalog, [[0.0], [2.0]], labels=[0, 1])
        other = table_from(two_class_catalog, [[0.0, 1.0]], labels=[0])
        with pytest.raises(ValueError, match="dim"):
            normalize(ref, [other])

    def test_empty_reference_rejected(self, two_class_catalog):
        ref = table_from(two_class_catalog, np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            normalize(ref, [])
