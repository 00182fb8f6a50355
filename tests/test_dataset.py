import ast
import itertools
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillchain import (
    ClassCatalog,
    DataTable,
    Normalizer,
    PoolTruth,
    PoolView,
    SplitResult,
    SplitSpec,
    TableParseError,
    generate_synthetic,
    make_splits,
    normalize,
    normalize_splits,
    read_table,
    write_table,
)
from distillchain import dataset
from distillchain.dataset import _fisher_yates, synthetic_class_means

from conftest import outcome_of, rare_class_tables, reaches_labels, table_from


TISSUE_CLASSES = ("ADI", "BACK", "DEB", "LYM", "MUC", "MUS", "NORM", "STR", "TUM")


class TestClassCatalog:
    def test_nine_tissue_classes_index_in_order(self):
        catalog = ClassCatalog(TISSUE_CLASSES)
        assert catalog.names == TISSUE_CLASSES
        assert catalog.size == 9
        assert catalog.names.index("TUM") == 8

    def test_rejects_duplicates_and_singletons(self):
        with pytest.raises(ValueError):
            ClassCatalog(("a", "a"))
        with pytest.raises(ValueError):
            ClassCatalog(("only",))
        with pytest.raises(ValueError, match="non-empty"):
            ClassCatalog(("a", ""))
        # names a table file cannot carry
        for names in (("a,b", "c"), (" a", "b"), ("a", "b\t"), ("a\nb", "c"), ("a\x85b", "c"), ("a\u2028", "b")):
            with pytest.raises(ValueError, match="no comma or line break"):
                ClassCatalog(names)

    def test_rejects_a_leading_byte_order_mark(self):
        # a sidecar drops its byte-order mark, so a first name cannot keep one
        for names in (("\ufeffa", "b"), ("a", "\ufeffb")):
            with pytest.raises(ValueError, match="leading byte-order mark"):
                ClassCatalog(names)


class TestDataTable:
    def test_rejects_duplicate_ids(self, two_class_catalog):
        with pytest.raises(ValueError, match="unique"):
            table_from(two_class_catalog, [[0.0], [1.0]], labels=[0, 1], ids=[3, 3])

    @pytest.mark.parametrize("ids", [[1, 2, 2, 3], [3, 1, 3], [5, 5], [4, 0, 9, 0]])
    def test_rejects_duplicates_sorted_or_not(self, two_class_catalog, ids):
        with pytest.raises(ValueError, match="unique"):
            table_from(two_class_catalog, np.zeros((len(ids), 1)), np.zeros(len(ids)), ids=ids)

    @pytest.mark.parametrize("labels, why", [([2], "outside"), ([-1], "outside"), (None, "required")])
    def test_rejects_missing_and_out_of_range_labels(self, two_class_catalog, labels, why):
        with pytest.raises(ValueError, match=why):
            table_from(two_class_catalog, [[0.0]], labels=labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, two_class_catalog, bad):
        with pytest.raises(ValueError, match="finite"):
            table_from(two_class_catalog, [[0.0, 1.0], [bad, 2.0]], labels=[0, 1])

    @pytest.mark.parametrize("kind", ["table", "pool"])
    def test_leaves_the_callers_arrays_writable(self, two_class_catalog, kind):
        ids = np.arange(3, dtype=np.int64)
        features = np.zeros((3, 2))
        labels = np.array([0, 1, 0], dtype=np.int64)
        if kind == "table":
            table = table_from(two_class_catalog, features, labels=labels, ids=ids)
            frozen = (table.ids, table.features, table.labels)
        else:
            pool = PoolView(two_class_catalog, features, labels, ids)  # labels as the rows
            frozen = (pool.ids, pool.source, pool.rows)
        assert ids.flags.writeable and features.flags.writeable and labels.flags.writeable
        for arr in frozen:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        np.random.default_rng(0).shuffle(ids)  # the caller's array is still theirs

    def test_an_unpickled_table_is_equal_and_read_only(self, two_class_catalog):
        # a sweep's worker processes receive their tables by pickle
        table = table_from(two_class_catalog, [[0.5, 1.0], [2.0, -1.0], [0.0, 3.0]], labels=[1, 0, 1], ids=[4, 2, 9])
        copy = pickle.loads(pickle.dumps(table))
        assert copy.catalog == table.catalog
        for name in ("ids", "features", "labels"):
            arr = getattr(copy, name)
            assert np.array_equal(arr, getattr(table, name)) and arr.dtype == getattr(table, name).dtype
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    @pytest.mark.parametrize(
        "rows,ids,why",
        [
            ([0, 2], [5, 5], "ascending"),
            ([0, 2], [6, 5], "ascending"),
            ([0, 2], [5], "ascending"),
            ([0, 3], [5, 6], "index the source"),
            ([-1, 1], [5, 6], "index the source"),
        ],
    )
    def test_pool_view_rejects_bad_rows_and_ids(self, two_class_catalog, rows, ids, why):
        with pytest.raises(ValueError, match=why):
            PoolView(two_class_catalog, np.zeros((3, 2)), rows, ids)


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

    @pytest.mark.parametrize("marked", [["t.csv"], ["t.classes"], ["t.csv", "t.classes"]])
    def test_a_byte_order_mark_is_read_past(self, tmp_path, two_class_catalog, marked):
        # as spreadsheet programs and editors write one at the start of a file
        table = table_from(two_class_catalog, [[0.5, -1.0], [2.0, 3.25]], labels=[1, 0], ids=[4, 7])
        path = tmp_path / "t.csv"
        write_table(path, table)
        for name in marked:
            file = tmp_path / name
            file.write_bytes(b"\xef\xbb\xbf" + file.read_bytes())
        back = read_table(path)
        assert back.catalog == two_class_catalog
        assert np.array_equal(back.ids, table.ids) and np.array_equal(back.labels, table.labels)
        assert np.array_equal(back.features, table.features)

    @settings(max_examples=200, deadline=None)
    @given(
        names=st.lists(
            st.text(
                st.one_of(st.sampled_from("a ,\n\r\t\x85\x1c\u2028"), st.characters(codec="utf-8")),
                min_size=1,
                max_size=3,
            ),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    def test_every_catalog_round_trips(self, tmp_path_factory, names):
        # a catalog refuses its names, or a table of it reads back as written
        try:
            catalog = ClassCatalog(tuple(names))
        except ValueError:
            return
        table = table_from(catalog, np.arange(len(names), dtype=np.float64)[:, None], np.arange(len(names)))
        path = tmp_path_factory.mktemp("catalog") / "t.csv"
        write_table(path, table)
        back = read_table(path)
        assert back.catalog == catalog
        assert np.array_equal(back.labels, table.labels)

    def test_tum_row_maps_to_last_class_index(self, tmp_path):
        path = tmp_path / "nine.csv"
        path.write_text("id,label,f0,f1\n7,TUM,0.1,0.2\n")
        path.with_suffix(".classes").write_text(",".join(TISSUE_CLASSES) + "\n")
        table = read_table(path)
        assert table.ids.tolist() == [7]
        assert table.labels.tolist() == [8]
        assert table.features[0].tolist() == [0.1, 0.2]

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
        with pytest.raises(TableParseError, match=r"orphan\.classes: cannot read: "):
            read_table(path)

    @pytest.mark.parametrize(
        "sidecar, why",
        [
            ("", "empty catalog sidecar"),
            ("\n", "line 1: catalog needs at least 2 classes"),
            ("only\n", "line 1: catalog needs at least 2 classes"),
            ("a, b,a\nc,d\n", "line 1: class names must be unique"),
            # an empty name would read a row with no label as that class
            ("a,,b\n", "line 1: class names must be non-empty"),
        ],
    )
    def test_bad_sidecar_names_the_sidecar(self, tmp_path, sidecar, why):
        path = tmp_path / "t.csv"
        path.write_text("id,label,f0\n0,a,1.0\n")
        path.with_suffix(".classes").write_text(sidecar)
        with pytest.raises(TableParseError, match=rf"t\.classes: {why}$"):
            read_table(path)

    @pytest.mark.parametrize(
        "rows, why",
        [
            ("3,a,0\n-1,b,0\n-2,a,0\n", "line 3: sample id -1; sample ids must be non-negative"),
            (
                "3,a,0\n\n1,b,0\n7,a,0\n1,a,0\n7,a,0\n",
                "line 6: sample id 1 repeats line 4; sample ids must be unique within a table",
            ),
            ("5,a,0\n5,b,0\n", "line 3: sample id 5 repeats line 2; sample ids"),
            ("5,a,0\n4,b,0\n5,a,nan\n", "line 4: non-finite feature"),
        ],
    )
    def test_negative_and_repeated_ids_name_their_line(self, tmp_path, rows, why):
        path = tmp_path / "ids.csv"
        path.with_suffix(".classes").write_text("a,b\n")
        path.write_text("id,label,f0\n" + rows)
        with pytest.raises(TableParseError, match=rf"ids\.csv: {why}"):
            read_table(path)

    def test_id_outside_int64_is_a_bad_id(self, tmp_path):
        path = tmp_path / "big.csv"
        path.with_suffix(".classes").write_text("a,b\n")
        path.write_text(f"id,label,f0\n0,a,1.0\n{2**63},a,1.0\n{2**63 - 1},b,x\n")
        with pytest.raises(TableParseError, match=rf"line 3: bad id '{2**63}'"):
            read_table(path)
        path.write_text(f"id,label,f0\n{-(2**63) - 1},a,1.0\n")
        with pytest.raises(TableParseError, match="line 2: bad id"):
            read_table(path)


def reference_write_table(path, table):
    """write_table as it was when it formatted one row at a time."""
    d = table.dim
    lines = ["id,label," + ",".join(f"f{j}" for j in range(d))]
    for i in range(len(table)):
        name = table.catalog.names[int(table.labels[i])]
        lines.append(f"{int(table.ids[i])},{name}," + ",".join(repr(float(v)) for v in table.features[i]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    path.with_suffix(".classes").write_text(",".join(table.catalog.names) + "\n", encoding="utf-8")


class TestWriteTable:
    @pytest.mark.parametrize("block_lines", [3, dataset._BLOCK_LINES])
    @pytest.mark.parametrize("kind", ["labelled", "empty"])
    def test_same_bytes_as_the_per_sample_writer(self, tmp_path, block_lines, kind):
        catalog = ClassCatalog(("a", "b", "TUM"))
        specials = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1, 1 / 3]
        rng = np.random.default_rng(4)
        features = np.concatenate([np.array(specials).reshape(4, 2), rng.normal(size=(4, 2)) * 1e5])
        ids = np.array([0, 2**63 - 1, 2**62, 17, 10**15, 1, 3, 5])
        labels = np.array([0, 1, 2, 2, 1, 0, 1, 2])
        if kind == "empty":
            features, ids, labels = features[:0], ids[:0], labels[:0]
        table = table_from(catalog, features, labels=labels, ids=ids)
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        reference_write_table(want, table)
        with mock.patch.object(dataset, "_BLOCK_LINES", block_lines):
            write_table(got, table)
        assert got.read_bytes() == want.read_bytes()
        assert got.with_suffix(".classes").read_bytes() == want.with_suffix(".classes").read_bytes()
        back = read_table(got)
        assert back.features.tobytes() == table.features.tobytes()


def reference_read_table(path, catalog):
    """read_table as it was when it parsed the whole file line by line."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise TableParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise TableParseError(f"{path}: line 1: header must be id,label,f0,...")
    d = len(header) - 2

    ids, labels, feats = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 2:
            raise TableParseError(
                f"{path}: line {lineno}: expected {d + 2} fields, got {len(parts)}"
            )
        try:
            sid = int(parts[0])
        except ValueError:
            raise TableParseError(f"{path}: line {lineno}: bad id {parts[0]!r}") from None
        name = parts[1]
        if name == "":
            raise TableParseError(f"{path}: line {lineno}: no label; every row must be labelled")
        try:
            label = catalog.names.index(name)
        except ValueError:
            raise TableParseError(
                f"{path}: line {lineno}: label {name!r} not in catalog"
            ) from None
        try:
            row = [float(v) for v in parts[2:]]
        except ValueError:
            raise TableParseError(f"{path}: line {lineno}: non-numeric feature") from None
        ids.append(sid)
        labels.append(label)
        feats.append(row)

    features = np.array(feats, dtype=np.float64).reshape(len(ids), d)
    data_linenos = [n for n, line in enumerate(lines[1:], start=2) if line]
    finite_rows = np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        lineno = data_linenos[int(np.argmin(finite_rows))]
        raise TableParseError(f"{path}: line {lineno}: non-finite feature")
    try:
        return DataTable(
            catalog=catalog,
            ids=np.array(ids, dtype=np.int64),
            features=features,
            labels=np.array(labels, dtype=np.int64),
        )
    except ValueError as exc:
        message = f"{path}: {exc}"
        # the one intended difference: read_table now names the first
        # offending line, worked out here from the parsed rows
        seen = {}
        for row, (sid, lineno) in enumerate(zip(ids, data_linenos)):
            if sid < 0 and "non-negative" in message:
                message = f"{path}: line {lineno}: sample id {sid}; {exc}"
                break
            if sid in seen and "unique" in message:
                message = f"{path}: line {lineno}: sample id {sid} repeats line {seen[sid]}; {exc}"
                break
            seen.setdefault(sid, lineno)
        raise TableParseError(message) from exc


def outcome(read, path):
    try:
        table = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return table.features.shape, table.ids.tobytes(), table.features.tobytes(), table.labels.tobytes()


def assert_reads_like_the_reference(path, text, block_lines):
    path.write_bytes(text.encode("utf-8"))
    catalog = ClassCatalog(("a", "b", "TUM"))
    path.with_suffix(".classes").write_text(",".join(catalog.names) + "\n", encoding="utf-8")
    want = outcome(lambda p: reference_read_table(p, catalog), path)
    with mock.patch.object(dataset, "_BLOCK_LINES", block_lines):
        got = outcome(read_table, path)
    assert got == want


ID_TOKENS = ["0", "1", "2", "3", "7", "12", "-1", " 4", "5 ", "1_0", "+6", "\u0668", "x", "", "1.0"]
LABEL_TOKENS = ["a", "b", "TUM", "", "c", " a", "A"]  # the first 3 are well formed
GOOD_FEATURES = ["1.0", "-0.0", "2.5e-3", "5e-324", "1e308", " 4 ", "1_0", "-7", "+.5", "1E2"]
BAD_FEATURES = ["nan", "-inf", "1e999", "Infinity", "x", "", "0x1", "1__0", "\u0663.5"]
SEPARATORS = ["\n"] * 6 + ["\r\n", "\r", "\f", "\v", "\x85", "\u2028", "\x1c", "\n\n"]


@st.composite
def csv_texts(draw):
    """CSV text near the edge of what read_table accepts: mostly well formed,
    with some bad tokens, field counts and line breaks if ``dirty``."""
    dirty = draw(st.booleans())
    rare = st.integers(0, 9).map(lambda k: dirty and k == 0)
    d = draw(st.integers(1, 3))
    header = "id,label," + ",".join(f"f{j}" for j in range(d))
    if draw(rare):
        header = draw(st.sampled_from(["id,label", "label,id,f0", "", "id,label,f0,f1,f2,f3"]))
    lines = [header]
    n = draw(st.integers(0, 14))
    step = draw(st.sampled_from([1, -1]))
    for i in range(n):
        if draw(rare):
            lines.append("")
            continue
        sid = draw(st.sampled_from([*ID_TOKENS, str(n)])) if draw(rare) else str(n + step * i)
        label = draw(st.sampled_from(LABEL_TOKENS[3:] if draw(rare) else LABEL_TOKENS[:3]))
        feats = [
            draw(st.sampled_from(BAD_FEATURES if draw(rare) else GOOD_FEATURES)) for _ in range(d)
        ]
        fields = [sid, label, *feats]
        if draw(rare):
            fields = fields[:-1] if draw(st.booleans()) else fields + ["0"]
        lines.append(",".join(fields))
    seps = [draw(st.sampled_from(SEPARATORS)) if dirty else "\n" for _ in lines]
    if draw(st.booleans()):
        seps[-1] = ""
    return "".join(line + sep for line, sep in zip(lines, seps))


class TestReadTableMatchesLineByLine:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(), block_lines=st.sampled_from([1, 2, 3, 5]))
    def test_generated_files(self, tmp_path_factory, text, block_lines):
        path = tmp_path_factory.mktemp("differential") / "t.csv"
        assert_reads_like_the_reference(path, text, block_lines)

    @pytest.mark.parametrize("block_lines", [3, dataset._BLOCK_LINES])
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            "id,label,f0",
            "id,label,f0\n\n\n",
            "id,label\n0,a\n",
            "label,id,f0\n",
            "id,label,f0\n\n0,a,1.0\n\n\n1,b,2.0\n\n2,,3.0\n",
            "id,label,f0,f1\r\n0,a,1.0,2.0\r\n1,TUM,3.0,4.0\r\n2,b,5.0,6.0\r\n",
            "id,label,f0\r0,a,1.0\r1,b,2.0\r2,a,3.0\r3,b,x\r",
            "id,label,f0\n0,a,1.0\f1,b,2.0\v2,a,3.0\x853,b,4.0\u20284,a,5.0\n5,b,6.0\n",
            "id,label,f0\f0,a,1.0\n1,b,2\x85.0\n",
            "id,label,f0\n0,a,1.0\n1,b,2\u2028.0\n2,a,3.0\n",
            "id,label,f0,f1\n 0 ,a, 1.5 ,\t2.5\n1_0,b,1_0,+.5\n",
            "id,label,f0\n0,a,nan\n1,b,2.0\n",
            "id,label,f0\n0,a,1.0\n1,b,2.0\n2,a,3.0\n3,b,4.0\n4,a,-inf\n5,b,inf\n",
            "id,label,f0\n0,a,1.0\n1,b,2.0\n2,c,3.0\n",
            "id,label,f0\n0,a,1.0\n1,b,2.0\n2,a,3.0\n3,a\n4,a,1,2\n",
            "id,label,f0\n0,a,nan\n1,b,2.0\n2,a,3.0\n3,zz,4.0\nx,a,1.0\n5,b,,\n",
            "id,label,f0\n0,a,nan\n1,b,2.0\n2,a,3.0\n3,b,4.0\n4,b,y\n5,zz,1.0\n",
            "id,label,f0\n0,a,1.0\n1,b,2.0\n-3,a,3.0\n1,b,4.0\n",
            "id,label,f0\n0,a,1.0\n1,b,2.0\n9,a,3.0\n8,b,4.0\n1,a,inf\n",
            "id,label,f0\n9,a,1.0\n8,b,2.0\n7,a,3.0\n8,b,4.0\n9,a,5.0\n",
        ],
    )
    def test_fixed_cases(self, tmp_path, text, block_lines):
        assert_reads_like_the_reference(tmp_path / "t.csv", text, block_lines)

    def test_peak_memory_stays_below_three_times_the_file(self, tmp_path):
        train, _, _ = generate_synthetic(classes=4, per_class=6250, dim=16, spread=1.0, seed=3)
        assert len(train) >= 20_000
        path = tmp_path / "big.csv"
        write_table(path, train)
        tracemalloc.start()
        try:
            table = read_table(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.features.tobytes() == train.features.tobytes()
        assert peak < 3 * path.stat().st_size


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


def reference_make_splits(train, spec):
    """make_splits as it drew in sample-id space: it shuffled the ids and
    mapped every piece back to rows with an argsort lookup."""
    by_id = np.argsort(train.ids)

    def rows_of(ids):
        return by_id[np.searchsorted(train.ids, ids, sorter=by_id)]

    n = len(train)
    c = train.catalog.size
    n_early = int(spec.early_stop_fraction * n)
    if n_early < c:
        raise ValueError(
            f"early-stop set of {n_early} cannot cover {c} classes; "
            "increase early_stop_fraction or the table size"
        )
    class_counts = np.bincount(train.labels, minlength=c)
    if np.any(class_counts == 0):
        missing = [train.catalog.names[i] for i in np.flatnonzero(class_counts == 0)]
        raise ValueError(f"training table has no samples for classes {missing}")
    n_labelled = n - n_early if spec.labelled_fraction == 1.0 else int(spec.labelled_fraction * n)
    if n_labelled < 1:
        raise ValueError("labelled_fraction yields an empty labelled set")
    if n_early + n_labelled > n:
        raise ValueError(
            f"requested sizes infeasible: {n_early} early-stop + {n_labelled} labelled > {n}"
        )

    rng = np.random.default_rng(spec.seed)
    for _ in range(10_000):
        order = _fisher_yates(train.ids, rng)
        early_ids = order[:n_early]
        if np.unique(train.labels[rows_of(early_ids)]).size == c:
            break
    else:
        lacked = [train.catalog.names[i] for i in np.setdiff1d(np.arange(c), train.labels[rows_of(early_ids)])]
        raise ValueError(
            f"no early-stop draw of {n_early} rows covered every class in 10000 tries; "
            f"the last lacked classes {lacked}"
        )
    remainder_ids = order[n_early:]
    if spec.balance_labelled:
        quotas = np.full(c, n_labelled // c, dtype=np.int64)
        quotas[: n_labelled % c] += 1
        labels = train.labels[rows_of(remainder_ids)]
        chosen = []
        for cls in range(c):
            members = remainder_ids[labels == cls]
            if members.size < quotas[cls]:
                raise ValueError(
                    f"class {train.catalog.names[cls]!r} has {members.size} candidates, "
                    f"needs {quotas[cls]} for a balanced labelled set"
                )
            chosen.append(_fisher_yates(members, rng)[: quotas[cls]])
        labelled_ids = np.concatenate(chosen)
    else:
        labelled_ids = _fisher_yates(remainder_ids, rng)[:n_labelled]
    pool_ids = np.setdiff1d(remainder_ids, labelled_ids)
    pool_rows = rows_of(pool_ids)

    def subtable(id_subset):
        rows = rows_of(np.sort(id_subset))
        return table_from(train.catalog, train.features[rows], train.labels[rows], train.ids[rows])

    pool = PoolView(train.catalog, train.features, pool_rows, pool_ids)
    return (
        SplitResult(subtable(labelled_ids), subtable(early_ids), pool),
        PoolTruth(train.catalog, train.labels[pool_rows]),
    )


def _split_arrays(splits, truth):
    tables = (splits.labelled, splits.early_stop)
    return [
        *(getattr(t, name) for t in tables for name in ("ids", "features", "labels")),
        splits.pool.rows, splits.pool.ids, truth.labels,
    ]


def _id_layouts(train, seed):
    """``train`` as it is (ids ascending from 0), with its rows shuffled, and
    with sparse random ids in no order."""
    rng = np.random.default_rng(seed)
    n = len(train)
    perm = rng.permutation(n)
    sparse = rng.choice(50 * n, size=n, replace=False)
    return {
        "ascending": train,
        "shuffled": table_from(train.catalog, train.features[perm], train.labels[perm], train.ids[perm]),
        "sparse": table_from(train.catalog, train.features, train.labels, sparse),
    }


class TestMakeSplits:
    def test_floor_arithmetic_sizes(self):
        train = _labelled_table(1000)
        result, _ = make_splits(train, SplitSpec(labelled_fraction=0.01, early_stop_fraction=0.01, seed=4))
        assert len(result.early_stop) == 10
        assert len(result.labelled) == 10
        assert len(result.pool) == 980

    def test_full_fraction_empties_the_pool(self):
        train = _labelled_table(1000)
        result, _ = make_splits(train, SplitSpec(labelled_fraction=1.0, early_stop_fraction=0.01, seed=4))
        assert len(result.pool) == 0
        assert len(result.labelled) == 990

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
        a, _ = make_splits(train, spec)
        b, _ = make_splits(train, SplitSpec(labelled_fraction=0.05, early_stop_fraction=0.01, seed=2))
        c, _ = make_splits(train, spec)
        assert not np.array_equal(a.labelled.ids, b.labelled.ids)
        assert np.array_equal(a.labelled.ids, c.labelled.ids)
        assert np.array_equal(a.early_stop.ids, c.early_stop.ids)
        assert np.array_equal(a.pool.ids, c.pool.ids)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 400))
    def test_disjoint_cover_property(self, seed, n):
        train = _labelled_table(n, catalog_size=4, seed=seed % 17)
        result, _ = make_splits(
            train, SplitSpec(labelled_fraction=0.1, early_stop_fraction=0.05, seed=seed)
        )
        pieces = [result.labelled.ids, result.early_stop.ids, result.pool.ids]
        union = np.concatenate(pieces)
        assert np.unique(union).size == union.size == n
        assert set(union.tolist()) == set(train.ids.tolist())

    def test_early_stop_covers_every_class(self):
        for seed in range(30):
            train = _labelled_table(300, catalog_size=9, seed=3)
            result, _ = make_splits(
                train, SplitSpec(labelled_fraction=0.1, early_stop_fraction=0.04, seed=seed)
            )
            present = np.unique(result.early_stop.labels)
            assert present.size == 9

    def test_balanced_draw_quotas(self):
        train = _labelled_table(400, catalog_size=4, seed=5)
        result, _ = make_splits(
            train,
            SplitSpec(labelled_fraction=0.1, early_stop_fraction=0.02, seed=8, balance_labelled=True),
        )
        counts = np.bincount(result.labelled.labels, minlength=4)
        assert counts.tolist() == [10, 10, 10, 10]

    @pytest.mark.parametrize("normalized", [False, True])
    def test_pool_view_carries_no_labels_and_truth_comes_apart(self, normalized):
        train = _labelled_table(500)
        result, truth = make_splits(train, SplitSpec(labelled_fraction=0.1, early_stop_fraction=0.02, seed=0))
        if normalized:
            result = normalize_splits(result)
        pool = result.pool
        assert not hasattr(pool, "labels")
        assert not reaches_labels([pool], train.labels, truth.labels)
        assert np.may_share_memory(pool.source, train.features)  # read in place
        assert np.array_equal(pool.ids, train.ids[pool.rows])
        assert truth.labels.shape == (len(pool),)  # one per pool position
        assert np.array_equal(truth.labels, train.labels[pool.rows])

    def test_normalize_splits_fits_on_the_labelled_set(self):
        train = _labelled_table(500)
        raw, _ = make_splits(train, SplitSpec(labelled_fraction=0.1, early_stop_fraction=0.02, seed=0))
        result = normalize_splits(raw)
        norm, [lab, es] = normalize(raw.labelled, [raw.labelled, raw.early_stop])
        pool = result.pool
        assert np.array_equal(pool.normalizer.mean, norm.mean) and np.array_equal(pool.normalizer.std, norm.std)
        assert result.labelled.features.tobytes() == lab.features.tobytes()
        assert result.early_stop.features.tobytes() == es.features.tobytes()
        assert np.array_equal(pool.rows, raw.pool.rows)
        assert np.may_share_memory(pool.source, train.features)
        gathered = (train.features[pool.rows] - norm.mean) / norm.std
        assert pool.features().tobytes() == gathered.tobytes()
        assert raw.pool.features().tobytes() == train.features[pool.rows].tobytes()
        assert result.normalized(train).features.tobytes() == norm.apply(train).features.tobytes()
        assert raw.normalized(train) is train

    @pytest.mark.parametrize("layout", ["ascending", "shuffled", "sparse"])
    def test_rank_draw_matches_the_id_space_draw(self, layout):
        catalog = ClassCatalog(("a", "b", "c"))
        skewed = table_from(catalog, np.arange(240.0).reshape(120, 2), [0] * 100 + [1] * 12 + [2] * 8)
        tables = [_labelled_table(n, catalog_size=c, seed=n + c) for n, c in ((60, 2), (300, 4), (900, 9))]
        outcomes = []
        for base in (skewed, *tables):
            train = _id_layouts(base, len(base))[layout]
            for fraction, early, balanced, seed in itertools.product(
                (0.005, 0.05, 0.3, 0.85, 1.0), (0.02, 0.1), (False, True), (0, 7)
            ):
                spec = SplitSpec(fraction, early, seed=seed, balance_labelled=balanced)
                try:
                    want = _split_arrays(*reference_make_splits(train, spec))
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        make_splits(train, spec)
                    assert str(got.value) == str(exc)
                    outcomes.append(str(exc))
                    continue
                got = _split_arrays(*make_splits(train, spec))
                assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want, strict=True))
                outcomes.append("split")
        errors = [o for o in outcomes if o != "split"]  # balanced draws fail on the skewed table
        assert len(outcomes) - len(errors) >= 80 and sum("candidates" in e for e in errors) >= 20

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

    def test_uncoverable_early_stop_draw_is_a_value_error(self):
        # 10,000 rejected draws end in a ValueError that a sweep turns into
        # a skipped cell, naming the draw's size and the classes it lacked
        train = rare_class_tables()[0]
        assert len(train) == 200 and np.bincount(train.labels).tolist() == [197, 1, 1, 1]
        with pytest.raises(ValueError, match="no early-stop draw of 4 rows covered every class") as excinfo:
            make_splits(train, SplitSpec(labelled_fraction=0.2, early_stop_fraction=0.02, seed=0))
        lacked = ast.literal_eval(str(excinfo.value).partition("the last lacked classes ")[2])
        assert lacked and set(lacked) <= {"c1", "c2", "c3"}


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

    def test_apply_is_bit_identical_to_subtract_then_divide(self, two_class_catalog):
        rng = np.random.default_rng(5)
        ref = table_from(two_class_catalog, rng.normal(3.0, 2.5, (300, 5)), labels=rng.integers(0, 2, 300))
        target = table_from(two_class_catalog, rng.normal(-1.0, 40.0, (200, 5)), np.zeros(200))
        norm, [out] = normalize(ref, [target])
        assert out.features.tobytes() == ((target.features - norm.mean) / norm.std).tobytes()
        assert norm(target.features).tobytes() == out.features.tobytes()
        assert np.array_equal(out.ids, target.ids) and np.array_equal(out.labels, target.labels)

    def test_dimension_mismatch_rejected(self, two_class_catalog):
        ref = table_from(two_class_catalog, [[0.0], [2.0]], labels=[0, 1])
        other = table_from(two_class_catalog, [[0.0, 1.0]], labels=[0])
        with pytest.raises(ValueError, match="dim"):
            normalize(ref, [other])

    def test_empty_reference_rejected(self, two_class_catalog):
        ref = table_from(two_class_catalog, np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            normalize(ref, [])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_statistics_rejected(self, two_class_catalog):
        # finite features whose deviations overflow: an infinite std would
        # map every feature to 0.0
        ref = table_from(two_class_catalog, [[1e308], [-1e308]], labels=[0, 1])
        with pytest.raises(ValueError, match="mean and std must be finite"):
            normalize(ref, [ref])
        for mean, std in (([0.0], [np.inf]), ([0.0], [np.nan]), ([np.inf], [1.0]), ([np.nan], [1.0])):
            with pytest.raises(ValueError, match="mean and std must be finite"):
                Normalizer(np.array(mean), np.array(std))

    def test_normalizer_leaves_the_callers_arrays_writable(self):
        mean, std = np.zeros(3), np.ones(3)
        norm = Normalizer(mean, std)
        assert mean.flags.writeable and std.flags.writeable
        for arr in (norm.mean, norm.std):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0
        mean[0] = 5.0  # the caller's array is still theirs


AB = ClassCatalog(("a", "b"))


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: DataTable(AB, np.arange(3), np.zeros(3), np.zeros(3)), "features must be a 2-D array"),
        (lambda: DataTable(AB, np.arange(3), np.zeros((2, 2)), np.zeros(3)), "ids and features row counts differ"),
        (lambda: DataTable(AB, np.arange(3), np.zeros((3, 2)), np.zeros(2)), "labels shape does not match row count"),
        (lambda: Normalizer(np.zeros(2), np.ones(3)), "mean and std must be 1-D arrays of equal length"),
        (lambda: Normalizer(np.zeros(2), np.array([1.0, 0.0])), "std entries must be strictly positive"),
        (lambda: SplitSpec(labelled_fraction=0.0), "labelled_fraction must be in (0, 1]"),
        (lambda: SplitSpec(labelled_fraction=1.5), "labelled_fraction must be in (0, 1]"),
        (lambda: SplitSpec(labelled_fraction=0.5, seed=-1), "seed must be a non-negative integer"),
    ],
    ids=[
        "1-D features", "row counts", "label shape", "normalizer shapes", "std 0", "fraction 0", "fraction 1.5",
        "seed -1",
    ],
)
def test_each_input_check_names_its_fault(call, want):
    got = outcome_of(call)
    assert (type(got), str(got)) == (ValueError, want)
