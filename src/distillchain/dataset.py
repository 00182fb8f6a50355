"""Tabular data model: class catalogs, feature tables, CSV I/O, seeded splits,
normalization, and a synthetic Gaussian-blob benchmark generator.

All operations are pure functions of their inputs plus an explicit seed, so
repeated calls are bit-identical.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

UNLABELLED = -1

# Nine-way tissue catalog used as the default for file ingestion.
DEFAULT_CLASS_NAMES = ("ADI", "BACK", "DEB", "LYM", "MUC", "MUS", "NORM", "STR", "TUM")

# Functions allowed to read ground-truth labels of a hidden-label pool.
_DIAGNOSTIC_READERS = frozenset({"pseudo_label_quality"})


class TableParseError(ValueError):
    """Malformed table file; message names the offending line."""


class HiddenLabelError(RuntimeError):
    """Raised when code outside the diagnostics path touches pool labels."""


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

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown class name {name!r}") from None

    @staticmethod
    def default() -> "ClassCatalog":
        return ClassCatalog(DEFAULT_CLASS_NAMES)

    @staticmethod
    def generic(count: int) -> "ClassCatalog":
        return ClassCatalog(tuple(f"c{i}" for i in range(count)))


@dataclass(frozen=True)
class Sample:
    """One identified feature vector, optionally labelled."""

    id: int
    features: np.ndarray
    label: int | None = None


@dataclass(frozen=True)
class DataTable:
    """Immutable table of identified feature vectors sharing one catalog.

    ``labels`` is None for tables whose labels are withheld (the unlabelled
    pool); the withheld ground truth then lives in ``_hidden_labels`` and is
    reachable only through :meth:`reveal_hidden_labels`.
    """

    catalog: ClassCatalog
    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray | None
    _hidden_labels: np.ndarray | None = field(default=None, repr=False)
    _ascending: bool = field(init=False, repr=False, compare=False)

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
        ascending = bool((ids[1:] > ids[:-1]).all())
        if not ascending and np.unique(ids).size != ids.size:
            raise ValueError("sample ids must be unique within a table")
        object.__setattr__(self, "_ascending", ascending)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "features", features)
        for attr in ("labels", "_hidden_labels"):
            arr = getattr(self, attr)
            if arr is None:
                continue
            arr = np.ascontiguousarray(arr, dtype=np.int64)
            if arr.shape != (ids.shape[0],):
                raise ValueError(f"{attr} shape does not match row count")
            if arr.size and (arr.min() < UNLABELLED or arr.max() >= self.catalog.size):
                raise ValueError(f"{attr} outside [0, {self.catalog.size})")
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)
        ids.setflags(write=False)
        features.setflags(write=False)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def __iter__(self) -> Iterator[Sample]:
        for i in range(len(self)):
            yield self.sample(i)

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def hidden(self) -> bool:
        return self.labels is None

    @property
    def fully_labelled(self) -> bool:
        return self.labels is not None and (len(self) == 0 or self.labels.min() >= 0)

    def sample(self, i: int) -> Sample:
        label = None
        if self.labels is not None and self.labels[i] != UNLABELLED:
            label = int(self.labels[i])
        return Sample(int(self.ids[i]), self.features[i], label)

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Row index of each of ``ids``; raises ValueError naming the first
        id that is not in the table."""
        ids = np.asarray(ids, dtype=np.int64)
        order = None if self._ascending else np.argsort(self.ids)
        rows = np.searchsorted(self.ids, ids, sorter=order)
        found = rows < len(self)
        if order is not None:
            rows[found] = order[rows[found]]
        found[found] = self.ids[rows[found]] == ids[found]
        if not found.all():
            raise ValueError(f"sample id {ids[~found][0]} not present in table")
        return rows

    def reveal_hidden_labels(self) -> np.ndarray:
        """Ground-truth labels of a hidden-label table, diagnostics only.

        Any caller other than the registered diagnostics is rejected; this is
        the firewall that keeps pool labels out of training and filtering.
        """
        caller = sys._getframe(1).f_code.co_name
        if caller not in _DIAGNOSTIC_READERS:
            raise HiddenLabelError(
                f"hidden labels requested from {caller!r}; only diagnostics may read them"
            )
        if self._hidden_labels is None:
            raise HiddenLabelError("table has no hidden labels")
        return self._hidden_labels


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
class SplitAudit:
    seed: int
    n_total: int
    n_labelled: int
    n_early_stop: int
    n_pool: int


@dataclass(frozen=True)
class SplitResult:
    """Disjoint labelled / early-stop / pool tables covering the input."""

    labelled: DataTable
    early_stop: DataTable
    pool: DataTable
    audit: SplitAudit


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
        if np.any(std <= 0.0):
            raise ValueError("std entries must be strictly positive")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def apply(self, table: DataTable) -> DataTable:
        if table.dim != self.mean.shape[0]:
            raise ValueError(
                f"normalizer dim {self.mean.shape[0]} does not match table dim {table.dim}"
            )
        return DataTable(
            catalog=table.catalog,
            ids=table.ids,
            features=(table.features - self.mean) / self.std,
            labels=table.labels,
            _hidden_labels=table._hidden_labels,
        )


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
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if per_class < 10:
        raise ValueError("per_class must be >= 10 for non-empty 8:1:1 splits")
    if dim < 1:
        raise ValueError("dim must be >= 1")
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


def make_splits(train: DataTable, spec: SplitSpec) -> SplitResult:
    """Carve ``train`` into labelled / early-stop / pool per ``spec``.

    The early-stop set is drawn first, uniformly at random with size
    floor(early_stop_fraction * N); draws missing a class are rejected and
    redrawn so accuracy-based early stopping never sees an absent class. The
    labelled set of size floor(labelled_fraction * N) is then drawn from the
    remainder (class-balanced only when requested); everything else becomes
    the pool with its labels hidden.
    """
    if not train.fully_labelled:
        raise ValueError("make_splits requires a fully labelled training table")
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

    if spec.labelled_fraction == 1.0:
        n_labelled = n - n_early
    else:
        n_labelled = int(spec.labelled_fraction * n)
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
        present = np.unique(train.labels[train.rows_of(early_ids)])
        if present.size == c:
            break
    else:
        raise RuntimeError("could not draw an early-stop set covering every class")

    remainder_ids = order[n_early:]
    if spec.balance_labelled:
        labelled_ids = _balanced_draw(train, remainder_ids, n_labelled, rng)
    else:
        shuffled = _fisher_yates(remainder_ids, rng)
        labelled_ids = shuffled[:n_labelled]
    pool_ids = np.setdiff1d(remainder_ids, labelled_ids)

    def subtable(id_subset: np.ndarray, hide: bool) -> DataTable:
        rows = train.rows_of(np.sort(id_subset))
        labels = train.labels[rows]
        return DataTable(
            catalog=train.catalog,
            ids=train.ids[rows],
            features=train.features[rows],
            labels=None if hide else labels,
            _hidden_labels=labels if hide else None,
        )

    result = SplitResult(
        labelled=subtable(labelled_ids, hide=False),
        early_stop=subtable(early_ids, hide=False),
        pool=subtable(pool_ids, hide=True),
        audit=SplitAudit(
            seed=spec.seed,
            n_total=n,
            n_labelled=int(labelled_ids.size),
            n_early_stop=int(early_ids.size),
            n_pool=int(pool_ids.size),
        ),
    )
    return result


def _balanced_draw(
    train: DataTable,
    candidate_ids: np.ndarray,
    n_labelled: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw as-even-as-possible per-class quotas from the candidates."""
    c = train.catalog.size
    quotas = np.full(c, n_labelled // c, dtype=np.int64)
    quotas[: n_labelled % c] += 1
    labels = train.labels[train.rows_of(candidate_ids)]
    chosen: list[np.ndarray] = []
    for cls in range(c):
        members = candidate_ids[labels == cls]
        if members.size < quotas[cls]:
            raise ValueError(
                f"class {train.catalog.names[cls]!r} has {members.size} candidates, "
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
    mean = reference.features.mean(axis=0)
    std = reference.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    norm = Normalizer(mean=mean, std=std)
    return norm, [norm.apply(t) for t in targets]


def _format_float(x: float) -> str:
    return repr(float(x))


def classes_path(path: Path | str) -> Path:
    return Path(path).with_suffix(".classes")


def write_table(path: Path | str, table: DataTable) -> None:
    """Write a table as CSV plus its ``.classes`` catalog sidecar."""
    path = Path(path)
    d = table.dim
    header = "id,label," + ",".join(f"f{j}" for j in range(d))
    lines = [header]
    for s in table:
        name = "" if s.label is None else table.catalog.names[s.label]
        lines.append(f"{s.id},{name}," + ",".join(_format_float(v) for v in s.features))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    classes_path(path).write_text(",".join(table.catalog.names) + "\n", encoding="utf-8")


def read_table(path: Path | str, catalog: ClassCatalog | None = None) -> DataTable:
    """Read a CSV table; the catalog comes from the ``.classes`` sidecar
    unless one is passed explicitly."""
    path = Path(path)
    if catalog is None:
        sidecar = classes_path(path)
        if not sidecar.exists():
            raise TableParseError(f"missing catalog sidecar {sidecar}")
        names = [n.strip() for n in sidecar.read_text(encoding="utf-8").splitlines()[0].split(",")]
        catalog = ClassCatalog(tuple(names))

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
            label = UNLABELLED
        else:
            try:
                label = catalog.index(name)
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
    finite_rows = np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        data_linenos = [n for n, line in enumerate(lines[1:], start=2) if line]
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
        raise TableParseError(f"{path}: {exc}") from exc
