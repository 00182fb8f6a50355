"""Tabular data model: class catalogs, feature tables, CSV I/O, seeded splits,
normalization, and a synthetic Gaussian-blob benchmark generator.

All operations are pure functions of their inputs plus an explicit seed, so
repeated calls are bit-identical.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice, repeat
from pathlib import Path
from typing import Iterator

import numpy as np


class TableParseError(ValueError):
    """Malformed table file; message names the offending line."""


@contextmanager
def input_file(path: Path | str) -> Iterator[None]:
    """An OSError (missing, a directory, unreadable) or UnicodeDecodeError reading
    input file ``path`` within, as a TableParseError naming it and, for a byte that
    is not UTF-8, the line of its first such byte as ``splitlines`` numbers lines."""
    try:
        yield
    except OSError as exc:
        raise TableParseError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError:  # a reader decoding in chunks gives no file offset: read it again
        text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
        bad = re.search("[\udc80-\udcff]", text).start()  # the first undecodable byte, escaped
        raise TableParseError(f"{path}: line {len(text[: bad + 1].splitlines())}: not UTF-8 text") from None


def read_lines(path: Path | str) -> list[str]:
    """The lines of text input file ``path``, read through input_file, a leading byte-order mark dropped."""
    with input_file(path):
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff").splitlines()


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered class identifiers; index order is the label encoding."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if len(self.names) < 2:
            raise ValueError("catalog needs at least 2 classes")
        if len(set(self.names)) != len(self.names):
            raise ValueError("class names must be unique")
        if not all(self.names):
            raise ValueError("class names must be non-empty")
        # what a table file can carry: write_table joins names with commas,
        # and read_table drops a sidecar's byte-order mark, splits lines and
        # strips sidecar names
        if any("," in n or n.splitlines() != [n] or n.strip() != n or n[0] == "\ufeff" for n in self.names):
            raise ValueError(
                "class names must hold no comma or line break, nor edge whitespace or a leading byte-order mark"
            )

    @property
    def size(self) -> int:
        return len(self.names)

    @staticmethod
    def generic(count: int) -> "ClassCatalog":
        return ClassCatalog(tuple(f"c{i}" for i in range(count)))


def _frozen_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; the caller's own array stays writable."""
    view = arr.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class DataTable:
    """Immutable table of identified feature vectors sharing one catalog,
    every row labelled: ``labels`` holds one catalog index per row."""

    catalog: ClassCatalog
    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        if ids.ndim != 1 or ids.shape[0] != features.shape[0]:
            raise ValueError("ids and features row counts differ")
        if ids.size and ids.min() < 0:
            raise ValueError("sample ids must be non-negative")
        # strictly ascending ids (the usual case) are unique without a sort
        if not (ids[1:] > ids[:-1]).all() and np.unique(ids).size != ids.size:
            raise ValueError("sample ids must be unique within a table")
        if self.labels is None:
            raise ValueError("labels are required; every row must be labelled")
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.shape != ids.shape:
            raise ValueError("labels shape does not match row count")
        if labels.size and (labels.min() < 0 or labels.max() >= self.catalog.size):
            raise ValueError(f"labels outside [0, {self.catalog.size})")
        for name, arr in (("ids", ids), ("features", features), ("labels", labels)):
            object.__setattr__(self, name, _frozen_view(arr))

    def __reduce__(self):
        # unpickled arrays are writable, so a copy (a worker process's) is
        # rebuilt, and so checked and frozen, by the constructor
        return DataTable, (self.catalog, self.ids, self.features, self.labels)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class Normalizer:
    """Per-feature affine standardization fitted on a reference table."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        std = np.ascontiguousarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be 1-D arrays of equal length")
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValueError("mean and std must be finite")
        if np.any(std <= 0.0):
            raise ValueError("std entries must be strictly positive")
        object.__setattr__(self, "mean", _frozen_view(mean))
        object.__setattr__(self, "std", _frozen_view(std))

    def __call__(self, features: np.ndarray) -> np.ndarray:
        """A normalized copy of (n, d) ``features``: the mean subtracted into
        a new array, then the std divided out in place."""
        if features.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"normalizer dim {self.mean.shape[0]} does not match table dim {features.shape[-1]}"
            )
        with np.errstate(over="ignore"):  # an overflow stays in ``out``, which forward rejects
            out = features - self.mean
            out /= self.std
        return out

    def apply(self, table: DataTable) -> DataTable:
        return DataTable(
            catalog=table.catalog, ids=table.ids, features=self(table.features), labels=table.labels
        )


@dataclass(frozen=True)
class PoolView:
    """A split's unlabelled pool, read in place: ``rows`` of the ``source``
    feature matrix (the train table's, shared by every split of it), listed
    by strictly ascending ``ids``, so that position order is id order (the
    per-class cap's tie-break relies on it), and read through ``normalizer``
    (None: as stored).

    A pool holds no labels, so nothing that is given one can reach the
    pool's truth: :func:`make_splits` hands that out as a separate
    :class:`PoolTruth`, which only diagnostics receive.
    """

    catalog: ClassCatalog
    source: np.ndarray
    rows: np.ndarray
    ids: np.ndarray
    normalizer: Normalizer | None = None

    def __post_init__(self) -> None:
        source = np.asarray(self.source, dtype=np.float64)
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        if rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= len(source))):
            raise ValueError("pool rows must index the source matrix")
        if ids.shape != rows.shape or not (ids[1:] > ids[:-1]).all():
            raise ValueError("pool ids must be strictly ascending, one per row")
        for name, arr in (("source", source), ("rows", rows), ("ids", ids)):
            object.__setattr__(self, name, _frozen_view(arr))

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def features(self) -> np.ndarray:
        """The whole pool's features in id order, normalized: a fresh array."""
        gathered = self.source[self.rows]
        return gathered if self.normalizer is None else self.normalizer(gathered)


@dataclass(frozen=True)
class PoolTruth:
    """The withheld labels of a pool, one per pool position: what only the
    pseudo-label diagnostics read."""

    catalog: ClassCatalog
    labels: np.ndarray


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a labelled training table into labelled / early-stop / pool."""

    labelled_fraction: float
    early_stop_fraction: float = 0.01
    seed: int = 0
    balance_labelled: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.labelled_fraction <= 1.0:
            raise ValueError("labelled_fraction must be in (0, 1]")
        if not 0.0 <= self.early_stop_fraction < 1.0:
            raise ValueError("early_stop_fraction must be in [0, 1)")
        # labelled_fraction == 1.0 means "everything left after the reserve";
        # the sum constraint applies to genuine partial fractions.
        if self.labelled_fraction < 1.0 and self.labelled_fraction + self.early_stop_fraction > 1.0:
            raise ValueError("labelled_fraction + early_stop_fraction must not exceed 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class SplitResult:
    """Disjoint labelled / early-stop tables and an unlabelled pool view
    covering the input."""

    labelled: DataTable
    early_stop: DataTable
    pool: PoolView

    def normalized(self, table: DataTable) -> DataTable:
        """``table`` (validation or test) through the normalizer the pool is
        read with: a fresh table, or ``table`` itself without a normalizer."""
        norm = self.pool.normalizer
        return table if norm is None else norm.apply(table)


def _fisher_yates(ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded in-to-out Fisher-Yates shuffle of ids sorted ascending.

    All swap indices come from one array-bounded draw, which consumes the
    generator exactly as one ``integers(0, i + 1)`` call per i would.
    """
    ordered = np.sort(ids)
    out = ordered.tolist()
    swaps = rng.integers(0, np.arange(len(out), 1, -1)).tolist()
    for i, j in zip(range(len(out) - 1, 0, -1), swaps):
        out[i], out[j] = out[j], out[i]
    return np.array(out, dtype=ordered.dtype)


def synthetic_class_means(classes: int, dim: int, seed: int) -> np.ndarray:
    """Deterministic class means at unit pairwise-distance scale.

    Random unit directions are rescaled so the closest pair of means sits at
    distance 2, putting the nearest decision boundary at unit distance from
    each of the two means (the 2-class 1-D case lands exactly on +-1). With
    that scale fixed, the generator's ``spread`` alone controls difficulty.
    """
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        raw = rng.standard_normal((classes, dim))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            continue
        dirs = raw / norms
        diffs = dirs[:, None, :] - dirs[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        min_dist = dists[~np.eye(classes, dtype=bool)].min()
        if min_dist > 1e-6:
            return 2.0 * dirs / min_dist
    raise ValueError(
        f"cannot place {classes} distinct class means in {dim} dimension(s)"
    )


def generate_synthetic(
    classes: int,
    per_class: int,
    dim: int,
    spread: float,
    seed: int,
) -> tuple[DataTable, DataTable, DataTable]:
    """Balanced Gaussian-blob train/validation/test tables in an 8:1:1 ratio.

    Class c samples are drawn from an isotropic Gaussian of standard deviation
    ``spread`` around deterministic class means at unit pairwise-distance
    scale (closest pair at distance 2), so ``spread`` alone controls
    difficulty. Requires per_class >= 10 so every split is non-empty.
    """
    if per_class < 10:
        raise ValueError("per_class must be >= 10 for non-empty 8:1:1 splits")
    if not spread > 0.0:
        raise ValueError("spread must be positive")

    means = synthetic_class_means(classes, dim, seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    catalog = ClassCatalog.generic(classes)

    counts = (per_class * 8 // 10, per_class // 10, per_class // 10)
    tables = []
    next_id = 0
    for n_per_class in counts:
        feats = np.empty((classes * n_per_class, dim), dtype=np.float64)
        labels = np.empty(classes * n_per_class, dtype=np.int64)
        for c in range(classes):
            block = slice(c * n_per_class, (c + 1) * n_per_class)
            feats[block] = means[c] + spread * rng.standard_normal((n_per_class, dim))
            labels[block] = c
        ids = np.arange(next_id, next_id + feats.shape[0], dtype=np.int64)
        next_id += feats.shape[0]
        tables.append(DataTable(catalog=catalog, ids=ids, features=feats, labels=labels))
    return tables[0], tables[1], tables[2]


def missing_classes(table: DataTable) -> list[str]:
    """The names of the catalog classes ``table`` has no row of."""
    counts = np.bincount(table.labels, minlength=table.catalog.size)
    return [table.catalog.names[i] for i in np.flatnonzero(counts == 0)]


def early_stop_size(train: DataTable, early_stop_fraction: float) -> int:
    """The size of ``train``'s early-stop set, floor(early_stop_fraction * N).
    Raises ValueError when it is smaller than the class count, or when
    ``train`` has no sample of some class: no early-stop draw could then
    cover every class."""
    c = train.catalog.size
    n_early = int(early_stop_fraction * len(train))
    if n_early < c:
        raise ValueError(
            f"early-stop set of {n_early} cannot cover {c} classes; "
            "increase early_stop_fraction or the table size"
        )
    if missing := missing_classes(train):
        raise ValueError(f"training table has no samples for classes {missing}")
    return n_early


def make_splits(train: DataTable, spec: SplitSpec) -> tuple[SplitResult, PoolTruth]:
    """Carve ``train`` into labelled / early-stop / pool per ``spec``, and
    return the pool's truth apart from the splits.

    The early-stop set is drawn first, uniformly at random with size
    floor(early_stop_fraction * N); draws missing a class are rejected and
    redrawn, at most 10,000 times (then ValueError), so accuracy-based early
    stopping never sees an absent class. The labelled set of size
    floor(labelled_fraction * N) is then drawn from the remainder
    (class-balanced only when requested); everything else becomes the pool:
    a view of ``train``'s feature matrix without labels. Its labels are the
    returned :class:`PoolTruth`.
    """
    n = len(train)
    c = train.catalog.size
    n_early = early_stop_size(train, spec.early_stop_fraction)

    if spec.labelled_fraction == 1.0:
        n_labelled = n - n_early
    else:
        n_labelled = int(spec.labelled_fraction * n)
    if n_labelled < 1:
        raise ValueError("labelled_fraction yields an empty labelled set")
    # SplitSpec bounds the fractions so that n_early + n_labelled <= n

    # draws are on ranks, positions in ascending-id order: the shuffles sort
    # their input, so they draw what they would on the ids themselves
    by_id = np.argsort(train.ids, kind="stable")  # rank -> row
    ranked_labels = train.labels[by_id]
    rng = np.random.default_rng(spec.seed)
    for _ in range(10_000):
        order = _fisher_yates(np.arange(n), rng)
        early = order[:n_early]
        covered = np.bincount(ranked_labels[early], minlength=c)
        if covered.all():
            break
    else:
        lacked = [train.catalog.names[i] for i in np.flatnonzero(covered == 0)]
        raise ValueError(
            f"no early-stop draw of {n_early} rows covered every class in 10000 tries; "
            f"the last lacked classes {lacked}"
        )

    remainder = order[n_early:]
    if spec.balance_labelled:
        labelled = _balanced_draw(train.catalog, ranked_labels, remainder, n_labelled, rng)
    else:
        labelled = _fisher_yates(remainder, rng)[:n_labelled]

    def subtable(ranks: np.ndarray) -> DataTable:
        rows = by_id[np.sort(ranks)]
        return DataTable(
            catalog=train.catalog,
            ids=train.ids[rows],
            features=train.features[rows],
            labels=train.labels[rows],
        )

    in_pool = np.zeros(n, dtype=bool)
    in_pool[remainder] = True
    in_pool[labelled] = False
    pool_rows = by_id[np.flatnonzero(in_pool)]  # ascending ids
    result = SplitResult(
        labelled=subtable(labelled),
        early_stop=subtable(early),
        pool=PoolView(train.catalog, train.features, pool_rows, train.ids[pool_rows]),
    )
    return result, PoolTruth(train.catalog, train.labels[pool_rows])


def _balanced_draw(
    catalog: ClassCatalog,
    ranked_labels: np.ndarray,
    candidates: np.ndarray,
    n_labelled: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw as-even-as-possible per-class quotas from the candidate ranks."""
    c = catalog.size
    quotas = np.full(c, n_labelled // c, dtype=np.int64)
    quotas[: n_labelled % c] += 1
    labels = ranked_labels[candidates]
    chosen: list[np.ndarray] = []
    for cls in range(c):
        members = candidates[labels == cls]
        if members.size < quotas[cls]:
            raise ValueError(
                f"class {catalog.names[cls]!r} has {members.size} candidates, "
                f"needs {quotas[cls]} for a balanced labelled set"
            )
        shuffled = _fisher_yates(members, rng)
        chosen.append(shuffled[: quotas[cls]])
    return np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)


def normalize(
    reference: DataTable, targets: list[DataTable]
) -> tuple[Normalizer, list[DataTable]]:
    """Fit per-feature mean/std on ``reference`` and standardize ``targets``.

    Uses the population standard deviation; entries below 1e-12 are clamped
    to 1 so constant features map to zero instead of dividing by zero.
    """
    if len(reference) == 0:
        raise ValueError("reference table is empty")
    with np.errstate(over="ignore"):  # an overflow leaves a std the Normalizer rejects
        mean = reference.features.mean(axis=0)
        std = reference.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    norm = Normalizer(mean=mean, std=std)
    return norm, [norm.apply(t) for t in targets]


def normalize_splits(splits: SplitResult) -> SplitResult:
    """Splits as :func:`make_splits` gave them, standardized by a
    normalizer fitted on the labelled set: the labelled and early-stop
    tables are normalized copies, and the pool is read through it."""
    norm, [labelled, early_stop] = normalize(splits.labelled, [splits.labelled, splits.early_stop])
    return replace(
        splits, labelled=labelled, early_stop=early_stop, pool=replace(splits.pool, normalizer=norm)
    )


# Data lines read_table parses in one batch (and rows write_table formats):
# the per-row Python objects of one block at a time are alive.
_BLOCK_LINES = 4096


def classes_path(path: Path | str) -> Path:
    return Path(path).with_suffix(".classes")


def write_table(path: Path | str, table: DataTable) -> None:
    """Write a table as CSV plus its ``.classes`` catalog sidecar; floats are
    written with ``repr``, so they read back bit-exactly."""
    path = Path(path)
    names = table.catalog.names
    with path.open("w", encoding="utf-8") as f:
        f.write("id,label," + ",".join(f"f{j}" for j in range(table.dim)) + "\n")
        for start in range(0, len(table), _BLOCK_LINES):
            block = slice(start, start + _BLOCK_LINES)
            f.writelines(
                f"{sid},{names[label]}," + ",".join(map(repr, row)) + "\n"
                for sid, label, row in zip(
                    table.ids[block].tolist(),
                    table.labels[block].tolist(),
                    table.features[block].tolist(),
                )
            )
    classes_path(path).write_text(",".join(table.catalog.names) + "\n", encoding="utf-8")


def _read_catalog(sidecar: Path) -> ClassCatalog:
    lines = read_lines(sidecar)
    if not lines:
        raise TableParseError(f"{sidecar}: empty catalog sidecar")
    try:
        return ClassCatalog(tuple(n.strip() for n in lines[0].split(",")))
    except ValueError as exc:
        raise TableParseError(f"{sidecar}: line 1: {exc}") from None


def _line_blocks(f: Iterator[str]) -> Iterator[tuple[int, list[str]]]:
    """(number of the first line, lines) for consecutive blocks of text file ``f``.

    Iterating ``f`` cuts the text after each ``\\n`` (universal newlines have
    already turned ``\\r\\n`` and a lone ``\\r`` into ``\\n``); ``splitlines``
    then also breaks at ``\\f``, ``\\v``, ``\\x85``, ``\\u2028`` and the like, so
    the lines and their numbers are those of ``splitlines`` on the whole text.
    """
    lineno = 1
    while chunk := list(islice(f, _BLOCK_LINES)):
        lines = "".join(chunk).splitlines()
        yield lineno, lines
        lineno += len(lines)


def _parse_block(
    path: Path, start: int, lines: list[str], d: int, label_of: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Line numbers, ids, labels and (n, d) features of the non-blank
    ``lines``, numbered from ``start``; blank lines are skipped.

    A block that fails is parsed again in halves, the first half first, so
    that its first line that fails alone raises the TableParseError, naming
    the first of its field count, id, label, features, finite features and
    non-negative id that fails."""
    rows = list(filter(None, lines))
    if len(rows) == len(lines):
        linenos = np.arange(start, start + len(lines))
    else:
        linenos = start + np.flatnonzero(list(map(bool, lines)))
    n, width = len(rows), d + 2
    # why a one-line block fails: the reason of the step under way
    why = lambda fields: f"expected {width} fields, got {len(fields)}"
    try:
        if set(map(str.count, rows, repeat(","))) - {width - 1}:  # a row of other width
            raise ValueError("wrong field count")
        tokens = ",".join(rows).split(",") if rows else []
        why = lambda fields: f"bad id {fields[0]!r}"
        ids = np.fromiter(map(int, tokens[::width]), np.int64, n)  # OverflowError past int64
        why = lambda fields: (
            f"label {fields[1]!r} not in catalog" if fields[1] else "no label; every row must be labelled"
        )
        labels = np.fromiter(map(label_of.__getitem__, tokens[1::width]), np.int64, n)
        why = lambda fields: "non-numeric feature"
        del tokens[::width]  # the ids; the labels now recur every width - 1
        del tokens[:: width - 1]
        features = np.fromiter(map(float, tokens), np.float64, n * d).reshape(n, d)
        del tokens  # the block's strings go before the checks allocate
        why = lambda fields: "non-finite feature"
        if not np.isfinite(features).all():
            raise ValueError("non-finite feature")
        why = lambda fields: f"sample id {int(fields[0])}; sample ids must be non-negative"
        if (ids < 0).any():
            raise ValueError("negative id")
    except (ValueError, KeyError, OverflowError):
        if n == 1:
            raise TableParseError(f"{path}: line {linenos[0]}: {why(rows[0].split(','))}") from None
        half = len(lines) // 2
        _parse_block(path, start, lines[:half], d, label_of)
        _parse_block(path, start + half, lines[half:], d, label_of)  # each check is per line: a half raises
    return linenos, ids, labels, features


def _repeated_id(ids: np.ndarray, linenos: np.ndarray) -> str:
    """The "line N: why" message for the later copy of the first repeated id."""
    order = np.argsort(ids, kind="stable")
    row = order[1:][ids[order[1:]] == ids[order[:-1]]].min()
    first = (ids == ids[row]).argmax()
    return (
        f"line {linenos[row]}: sample id {ids[row]} repeats line {linenos[first]}; "
        "sample ids must be unique within a table"
    )


def read_table(path: Path | str) -> DataTable:
    """Read a CSV table; the catalog comes from the ``.classes`` sidecar.
    A UTF-8 byte-order mark at the start of either file is dropped; either
    file unreadable or not UTF-8 is a TableParseError naming it (input_file).

    Data lines are parsed in blocks of ``_BLOCK_LINES``, each in a few batched
    steps, with the same ``int``/``float`` builtins a per-line parse would
    use. A bad table raises TableParseError naming the file and line: the
    first line, in file order, that fails a check, named by its first
    failing check of field count, id, label (an empty one too: every row is
    labelled), features, finite features and non-negative id; then, once the
    whole file has parsed, the later copy of the first repeated id.
    """
    path = Path(path)
    catalog = _read_catalog(classes_path(path))
    label_of = {name: i for i, name in enumerate(catalog.names)}
    with input_file(path), path.open(encoding="utf-8") as f:
        blocks = _line_blocks(f)
        start, lines = next(blocks, (1, []))
        if not lines:
            raise TableParseError(f"{path}: empty file")
        header = lines[0].removeprefix("\ufeff").split(",")
        if len(header) < 3 or header[0] != "id" or header[1] != "label":
            raise TableParseError(f"{path}: line 1: header must be id,label,f0,...")
        d = len(header) - 2
        parsed = [_parse_block(path, start + 1, lines[1:], d, label_of)]
        parsed += (_parse_block(path, start, lines, d, label_of) for start, lines in blocks)
    linenos, ids, labels, features = (np.concatenate(arrays) for arrays in zip(*parsed))
    try:
        return DataTable(catalog=catalog, ids=ids, features=features, labels=labels)
    except ValueError:
        raise TableParseError(f"{path}: {_repeated_id(ids, linenos)}") from None
