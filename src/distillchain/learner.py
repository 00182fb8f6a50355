"""Dense feed-forward softmax classifier trained from scratch.

Plain numpy implementation: rectifier hidden layers, numerically stabilized
softmax output, soft-target cross-entropy, analytic backprop, Adam updates,
and accuracy-based early stopping with best-epoch weight selection.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import DataTable, Normalizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

LOG_CLAMP = 1e-12


class NumericError(ArithmeticError):
    """A training computation produced non-finite values."""


@dataclass(frozen=True)
class ArchSpec:
    """Layer widths of the classifier; empty ``hidden`` means plain softmax
    regression."""

    input_dim: int
    hidden: tuple[int, ...] = ()
    output_dim: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        widths = (self.input_dim, *self.hidden, self.output_dim)
        if any(w < 1 for w in widths):
            raise ValueError("all layer widths must be positive")
        if self.output_dim < 2:
            raise ValueError("output_dim must be >= 2")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per affine layer, input to output."""
        widths = (self.input_dim, *self.hidden, self.output_dim)
        return [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]


@dataclass(frozen=True)
class ModelParams:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors."""

    arch: ArchSpec
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        dims = self.arch.layer_dims
        if len(self.weights) != len(dims) or len(self.biases) != len(dims):
            raise ValueError("layer count does not match architecture")
        for (w, b), (fan_out, fan_in) in zip(zip(self.weights, self.biases), dims):
            if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
                raise ValueError("parameter shapes do not match architecture")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; the epoch size is a fixed number of minibatch
    steps regardless of dataset size."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    steps_per_epoch: int = 100
    max_epochs: int = 200
    patience: int = 20

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < float("inf"):  # false for nan too
            raise ValueError("learning_rate must be positive and finite")
        if min(self.batch_size, self.steps_per_epoch) < 1:
            raise ValueError("batch_size and steps_per_epoch must be positive")
        if self.max_epochs < 0 or self.patience < 0:
            raise ValueError("max_epochs and patience must be non-negative")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    early_stop_accuracy: float


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch loss/accuracy trace and which epoch's weights were kept."""

    epochs: tuple[EpochStats, ...] = ()
    best_epoch: int | None = None
    best_accuracy: float | None = None


def init_params(arch: ArchSpec, seed: int) -> ModelParams:
    """Seeded uniform(-a, a) weights with a = 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_out, fan_in in arch.layer_dims:
        a = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-a, a, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return ModelParams(arch=arch, weights=tuple(weights), biases=tuple(biases))


def _param_count(arch: ArchSpec) -> int:
    return sum(fan_out * (fan_in + 1) for fan_out, fan_in in arch.layer_dims)


def _layer_views(
    arch: ArchSpec, flat: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer weight and bias views into one flat buffer (P,), or into
    each row of a stack of them (K, P), laid out layer by layer as the
    row-major weights followed by the bias."""
    lead = flat.shape[:-1]
    weights, biases = [], []
    offset = 0
    for fan_out, fan_in in arch.layer_dims:
        weights.append(
            flat[..., offset : offset + fan_out * fan_in].reshape(*lead, fan_out, fan_in)
        )
        offset += fan_out * fan_in
        biases.append(flat[..., offset : offset + fan_out])
        offset += fan_out
    return tuple(weights), tuple(biases)


def _flatten(weights, biases) -> np.ndarray:
    """A fresh flat buffer holding copies of per-layer weights and biases,
    laid out as :func:`_layer_views` reads them."""
    parts = [part for w, b in zip(weights, biases) for part in (np.ravel(w), b)]
    return np.concatenate(parts, dtype=np.float64)


class _Scratch:
    """Buffers of one forward (and backprop) pass over ``rows`` rows, for a
    stack of models (``lead`` = (K,)) or one (``lead`` = ())."""

    def __init__(self, arch: ArchSpec, lead: tuple[int, ...], rows: int, backprop: bool = True):
        self.z = [np.empty((*lead, rows, width)) for width in arch.hidden]
        self.h = [np.empty_like(z) for z in self.z]
        self.live = [np.empty(z.shape, dtype=bool) for z in self.z] if backprop else []
        self.dz = [np.empty((*lead, rows, o)) for o, _ in arch.layer_dims] if backprop else []
        self.row = np.empty((*lead, rows, 1))


def _forward_into(s: _Scratch, weights_t, biases, x: np.ndarray, probs: np.ndarray) -> None:
    """Forward kernel: the class probabilities of ``x`` into ``probs``, and
    the hidden pre-activations and activations backprop needs into ``s``.

    Takes one model's transposed 2-D weights, its biases and a (rows, in)
    batch, or a stack of K models' (K, in, out) transposed weights, (K, 1,
    out) biases and a (K, rows, in) batch; a stacked matmul gives each model
    the bits of its own 2-D one.
    """
    h = x
    for i, (w_t, b) in enumerate(zip(weights_t, biases)):
        z = s.z[i] if i < len(s.z) else probs
        np.matmul(h, w_t, out=z)
        z += b
        if i < len(s.z):
            h = np.maximum(z, 0.0, out=s.h[i])
    # softmax over the last axis, in place; ufunc reductions are what
    # ndarray.max and .sum call, minus their wrappers
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True, out=s.row)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True, out=s.row)


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch of feature vectors."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != params.arch.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match model input {params.arch.input_dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    probs = np.empty((x.shape[0], params.arch.output_dim))
    scratch = _Scratch(params.arch, (), x.shape[0], backprop=False)
    _forward_into(scratch, [w.T for w in params.weights], params.biases, x, probs)
    return probs


def _cross_entropy_into(probs, target, logs, per_row, out: np.ndarray) -> np.ndarray:
    """Cross-entropy kernel: the mean over the rows of the last two axes into
    ``out`` (0-d for one batch), with scratch ``logs`` shaped as ``probs``
    and ``per_row`` without its last axis."""
    np.log(np.maximum(probs, LOG_CLAMP, out=logs), out=logs)
    logs *= target
    np.add.reduce(logs, axis=-1, out=per_row)
    # the mean of per_row exactly as ndarray.mean computes it, minus its
    # call overhead
    np.add.reduce(per_row, axis=-1, out=out)
    out /= per_row.shape[-1]
    return np.negative(out, out=out)


def soft_cross_entropy(probs: np.ndarray, target: np.ndarray) -> float:
    """Mean soft-target cross-entropy; probabilities are clamped at 1e-12
    before the log."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if p.shape != t.shape:
        raise ValueError(f"probs shape {p.shape} does not match target shape {t.shape}")
    scratch = np.empty_like(p), np.empty(p.shape[:-1])
    return float(_cross_entropy_into(p, t, *scratch, np.empty(p.shape[:-2])))


def _backprop_into(s: _Scratch, weights, x, probs, targets, grad_w, grad_b) -> None:
    """Backprop kernel: writes the gradient of the mean soft cross-entropy
    into the per-layer ``grad_w``/``grad_b`` views, after
    :func:`_forward_into` filled ``s`` and ``probs`` from ``x``; for one
    model or, with a leading model axis on every array, for a stack."""
    last = len(weights) - 1
    dz = np.subtract(probs, targets, out=s.dz[last])
    dz /= probs.shape[-2]
    for i in range(last, -1, -1):
        np.matmul(dz.mT, s.h[i - 1] if i else x, out=grad_w[i])
        np.add.reduce(dz, axis=-2, out=grad_b[i])
        if i > 0:
            dz = np.matmul(dz, weights[i], out=s.dz[i - 1])
            dz *= np.greater(s.z[i - 1], 0.0, out=s.live[i - 1])


def backward(
    params: ModelParams, features: np.ndarray, targets: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Exact gradient of mean soft cross-entropy w.r.t. every weight and bias."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if t.shape != (x.shape[0], params.arch.output_dim):
        raise ValueError("targets shape does not match batch and output dim")
    scratch, probs = _Scratch(params.arch, (), x.shape[0]), np.empty_like(t)
    _forward_into(scratch, [w.T for w in params.weights], params.biases, x, probs)
    grad = np.empty(_param_count(params.arch), dtype=np.float64)
    grad_w, grad_b = _layer_views(params.arch, grad)
    _backprop_into(scratch, params.weights, x, probs, t, grad_w, grad_b)
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    return grad_w, grad_b


class _Adam:
    """Adam over the moments ``mv`` of a flat (P,) or stacked (K, P)
    parameter buffer, a (2, ...) view of m over v that it updates in place,
    with a scratch buffer of that shape whose first half takes the gradient."""

    def __init__(self, mv: np.ndarray):
        self.mv, self.work = mv, np.empty_like(mv)
        (self.m, self.v), (self.grad, self.scaled) = mv, self.work

    def step(self, theta: np.ndarray, t: int, learning_rate: float) -> None:
        """Adam kernel: step ``t`` (from 1) with bias correction from the
        gradient in ``grad``, updating ``theta`` and the moments in place.
        Bias corrections are Python floats, as 1 - beta**t."""
        g, g2 = self.grad, self.scaled
        np.multiply(g, g, out=g2)
        g *= 1.0 - ADAM_BETA1
        g2 *= 1.0 - ADAM_BETA2
        self.m *= ADAM_BETA1
        self.v *= ADAM_BETA2
        self.mv += self.work
        np.divide(self.m, 1.0 - ADAM_BETA1**t, out=g)
        np.divide(self.v, 1.0 - ADAM_BETA2**t, out=g2)
        g *= learning_rate
        np.sqrt(g2, out=g2)
        g2 += ADAM_EPS
        g /= g2
        theta -= g


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels outside [0, num_classes)")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


class _BatchStream:
    """Endless minibatch index stream: seeded shuffle, reshuffled on
    exhaustion, so small datasets are revisited within one epoch."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.order = rng.permutation(n)
        self.cursor = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` row indices; reshuffles only when more rows
        are needed, so any split of a run of draws gives the same rows. The
        passes a draw needs come from one ``permuted`` call over stacked
        ``arange(n)`` rows: the same draws as one ``permutation(n)`` each."""
        head = self.order[self.cursor : self.cursor + count]
        need = count - head.size
        if need <= 0:
            self.cursor += count
            return head
        passes = -(-need // self.n)
        drawn = self.rng.permuted(np.tile(np.arange(self.n), (passes, 1)), axis=1)
        self.order = drawn[-1]
        self.cursor = need - (passes - 1) * self.n
        return np.concatenate([head, drawn.reshape(-1)[:need]])


@dataclass(frozen=True)
class TrainJob:
    """One model to train: features, soft targets, the early-stop table, the
    optimization settings, and the starting weights (a fresh init from
    ``seed`` when ``init`` is None); ``seed`` also seeds the minibatch order.

    With ``rows``, the training set is those rows of ``features``, in the
    order of ``targets``, read in place; with ``normalizer``, rows are
    normalized in place as they are gathered, with the operations of
    ``Normalizer.apply``.
    """

    features: np.ndarray
    targets: np.ndarray
    early_stop: DataTable
    config: TrainConfig
    init: ModelParams | None = None
    rows: np.ndarray | None = None
    normalizer: Normalizer | None = None
    seed: int = 0


TrainOutcome = tuple[ModelParams, TrainHistory] | ValueError | ArithmeticError

# Steps whose minibatches are gathered in one call per member: fewer calls
# per step, with a gather buffer that stays small whatever the epoch size.
_GATHER_STEPS = 16


class _Member:
    """One model of a lockstep group: its validated data, start weights,
    batch stream and early-stop record."""

    def __init__(self, slot: int, arch: ArchSpec, job: TrainJob):
        x = np.asarray(job.features, dtype=np.float64)
        t = np.asarray(job.targets, dtype=np.float64)
        rows = None if job.rows is None else np.asarray(job.rows, dtype=np.int64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("training features must be a non-empty 2-D array")
        if x.shape[1] != arch.input_dim:
            raise ValueError(f"feature dim {x.shape[1]} does not match model input {arch.input_dim}")
        # the gather clips indices, so rows out of range must not get that far
        if rows is not None and (
            rows.ndim != 1 or rows.size == 0 or rows.min() < 0 or rows.max() >= x.shape[0]
        ):
            raise ValueError("training rows must index the feature matrix")
        n = x.shape[0] if rows is None else rows.size
        if job.normalizer is not None and job.normalizer.mean.shape != (x.shape[1],):
            raise ValueError("normalizer dim does not match the features")
        if t.shape != (n, arch.output_dim):
            raise ValueError("targets shape does not match features and output dim")
        if not (np.isfinite(t).all() and t.min() >= 0.0 and (abs(t.sum(axis=1) - 1.0) <= 1e-9).all()):
            raise ValueError("targets must be finite, non-negative rows that sum to 1")
        _check_scoring(arch, job.early_stop)
        init = job.init if job.init is not None else init_params(arch, job.seed)
        if init.arch != arch:
            raise ValueError("initial params do not match the architecture")
        self.slot = slot
        self.x, self.t, self.rows, self.normalizer = x, t, rows, job.normalizer
        self.early_stop, self.init = job.early_stop, init
        self.stream = _BatchStream(n, np.random.default_rng(job.seed))
        self.epochs: list[EpochStats] = []
        self.best_acc, self.best_epoch, self.stale = -1.0, -1, 0

    def epoch_rows(self, steps: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """The next epoch's rows of the targets and of the feature matrix,
        one row of ``batch`` per step."""
        picks = self.stream.take(steps * batch).reshape(steps, batch)
        return picks, picks if self.rows is None else self.rows[picks]


# a blow-up overflows on its way to the per-epoch finiteness check, whose
# NumericError reports it
@np.errstate(over="ignore", invalid="ignore")
def train_lockstep(arch: ArchSpec, jobs: Sequence[TrainJob]) -> list[TrainOutcome]:
    """Train one model per job in lockstep; each comes out bit-identical,
    weights and history, to training it alone.

    A member's params, best-epoch params and Adam m and v are its rows of
    one (4, K, P) state array. Every step runs one stacked forward, backprop
    and Adam update for all K members, which share the step counter, through
    views, buffers and normalizer tiles built from the state and the member
    list when the group starts or shrinks. The loss is taken once per
    16-step gather and summed in step order; the epoch's early-stop
    accuracies come from one stacked forward through the step's own weight
    views. A member leaves the group, by one index into the member list and
    the state, when it stops by patience or its epoch fails (non-finite loss
    or params: NumericError). The outcome per job is ``(params, history)``
    or the ValueError/ArithmeticError that ended that job alone. All jobs
    must share their TrainConfig, and the jobs that pass their own checks
    (:func:`evaluate`'s of their early-stop table among them) must share
    their early-stop row count, or ValueError is raised.

    Every epoch runs exactly ``steps_per_epoch`` minibatches. Training stops
    once ``patience`` consecutive epochs fail to improve the early-stop
    accuracy, or at ``max_epochs``; the weights of the best epoch are kept.
    Finiteness is checked once per epoch, before the epoch is evaluated.
    """
    if not jobs:
        return []
    config = jobs[0].config
    if any(job.config != config for job in jobs):
        raise ValueError("lockstep jobs must share their TrainConfig")
    outcomes: list[TrainOutcome | None] = [None] * len(jobs)
    members: list[_Member] = []
    for slot, job in enumerate(jobs):
        try:
            members.append(_Member(slot, arch, job))
        except ValueError as exc:
            outcomes[slot] = exc
    if len({len(mb.early_stop) for mb in members}) > 1:
        raise ValueError("lockstep jobs must share their early-stop row count")
    if config.max_epochs == 0 or not members:
        for member in members:
            outcomes[member.slot] = (member.init, TrainHistory())
        return outcomes

    steps, batch, lr = config.steps_per_epoch, config.batch_size, config.learning_rate
    chunk = min(steps, _GATHER_STEPS)
    # member j's params, best-epoch params, Adam m and v: state[:, j]
    state = np.zeros((4, len(members), _param_count(arch)))
    state[0] = [_flatten(mb.init.weights, mb.init.biases) for mb in members]
    step, k = 0, 0
    for epoch in range(config.max_epochs):
        if k != len(members):  # the group's views, buffers and tiles, made anew when it shrank
            k = len(members)
            theta, best, adam = state[0], state[1], _Adam(state[2:])
            weights, biases = _layer_views(arch, theta)
            weights_t, biases = [w.mT for w in weights], [b[:, None, :] for b in biases]
            grad_w, grad_b = _layer_views(arch, adam.grad)
            scratch = _Scratch(arch, (k,), batch)
            xs, per_row = np.empty((chunk, k, batch, arch.input_dim)), np.empty((chunk, k, batch))
            ts, probs, logs = (np.empty((chunk, k, batch, arch.output_dim)) for _ in range(3))
            # row 0 stays 0.0, the start of each member's in-order loss sum
            losses = np.zeros((steps + 1, k))
            step_views = list(zip(xs, ts, probs))
            es_x = np.stack([mb.early_stop.features for mb in members])
            es_labels = np.stack([mb.early_stop.labels for mb in members])
            es_scratch = _Scratch(arch, (k,), es_labels.shape[1], backprop=False)
            es_probs = np.empty((*es_labels.shape, arch.output_dim))
            # one normalization per gather along each member's block (mean and
            # std tiled over the batch); mean 0 and std 1 keep the bits as they are
            norms = [mb.normalizer for mb in members]
            normalize = any(nm is not None for nm in norms)
            if normalize:
                means = np.tile([np.zeros(arch.input_dim) if nm is None else nm.mean for nm in norms], batch)
                stds = np.tile([np.ones(arch.input_dim) if nm is None else nm.std for nm in norms], batch)
        rows = [mb.epoch_rows(steps, batch) for mb in members]
        for s in range(steps):
            c = s % chunk
            if c == 0:
                n = min(chunk, steps - s)
                for j, (mb, (picks, x_rows)) in enumerate(zip(members, rows)):
                    # mode="clip" spares take() the buffered copy it makes
                    # for out= under mode="raise"; all rows are in range
                    mb.x.take(x_rows[s : s + n], 0, out=xs[:n, j], mode="clip")
                    mb.t.take(picks[s : s + n], 0, out=ts[:n, j], mode="clip")
                if normalize:  # the IEEE operations of Normalizer.apply
                    blocks = xs[:n].reshape(n, k, -1)
                    blocks -= means
                    blocks /= stds
            x, t, p = step_views[c]
            _forward_into(scratch, weights_t, biases, x, p)
            _backprop_into(scratch, weights, x, p, t, grad_w, grad_b)
            step += 1
            adam.step(theta, step, lr)
            if c == n - 1:  # the chunk's losses, one row per step
                _cross_entropy_into(probs[:n], ts[:n], logs[:n], per_row[:n], losses[s - c + 1 : s + 2])
        # accumulate adds row by row: the sum in step order
        mean_loss = np.add.accumulate(losses, axis=0)[-1] / steps
        loss_ok, params_ok = np.isfinite(mean_loss), np.isfinite(theta).all(axis=1)
        # each member's hard accuracy on its early-stop table, as evaluate gives it
        _forward_into(es_scratch, weights_t, biases, es_x, es_probs)
        accuracy = np.count_nonzero(es_probs.argmax(axis=-1) == es_labels, axis=-1) / es_labels.shape[1]
        staying = []
        for j, mb in enumerate(members):
            failed = "training loss" if not loss_ok[j] else None if params_ok[j] else "parameters"
            if failed:
                outcomes[mb.slot] = NumericError(f"non-finite {failed} at epoch {epoch}")
                continue
            acc = float(accuracy[j])
            mb.epochs.append(EpochStats(epoch, float(mean_loss[j]), acc))
            if acc > mb.best_acc:
                np.copyto(best[j], theta[j])
                mb.best_acc, mb.best_epoch, mb.stale = acc, epoch, 0
            else:
                mb.stale += 1
            if mb.stale >= max(config.patience, 1) or epoch == config.max_epochs - 1:
                history = TrainHistory(tuple(mb.epochs), mb.best_epoch, mb.best_acc)
                outcomes[mb.slot] = (ModelParams(arch, *_layer_views(arch, best[j].copy())), history)
            else:
                staying.append(j)
        if not staying:
            break
        if len(staying) < k:  # the fancy index copies, so the views are rebuilt
            members, state = [members[j] for j in staying], state[:, staying]
    return outcomes


def train_with_early_stopping(
    arch: ArchSpec,
    features: np.ndarray,
    targets: np.ndarray,
    early_stop: DataTable,
    config: TrainConfig,
    init: ModelParams | None = None,
    seed: int = 0,
) -> tuple[ModelParams, TrainHistory]:
    """Train on (features, soft targets), keeping the weights of the epoch
    with the best hard accuracy on ``early_stop``, through :func:`train_job`
    (see :func:`train_lockstep`); from ``init`` when it is given, else from
    a fresh init of ``seed``. A blow-up raises NumericError."""
    return train_job(arch, TrainJob(features, targets, early_stop, config, init, seed=seed))


def train_job(arch: ArchSpec, job: TrainJob) -> tuple[ModelParams, TrainHistory]:
    """Train one job alone: :func:`train_lockstep` for a group of one,
    raising the job's error instead of returning it."""
    (outcome,) = train_lockstep(arch, [job])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _check_scoring(arch: ArchSpec, table: DataTable) -> None:
    """The checks :func:`evaluate` makes of a table before it scores a model."""
    if len(table) == 0:
        raise ValueError("evaluate requires a non-empty table")
    if table.catalog.size != arch.output_dim:
        raise ValueError("catalog size does not match model output dim")
    if table.dim != arch.input_dim:
        raise ValueError(f"feature dim {table.dim} does not match model input {arch.input_dim}")


def evaluate(params: ModelParams, table: DataTable) -> tuple[float, np.ndarray]:
    """Hard accuracy and the true-by-predicted confusion count matrix."""
    _check_scoring(params.arch, table)
    c = table.catalog.size
    probs = forward(params, table.features)
    preds = probs.argmax(axis=1)
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (table.labels, preds), 1)
    accuracy = float(np.trace(confusion)) / float(len(table))
    return accuracy, confusion


def save_model(path: Path | str, params: ModelParams, seed: int = 0) -> None:
    """Checkpoint the model as JSON: arch dims, row-major weights, biases,
    and the training seed. Floats serialize at full precision, so a load
    round-trips bit-exactly."""
    doc = {
        "input_dim": params.arch.input_dim,
        "hidden": list(params.arch.hidden),
        "output_dim": params.arch.output_dim,
        "seed": int(seed),
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_model(path: Path | str) -> tuple[ModelParams, int]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    arch = ArchSpec(
        input_dim=int(doc["input_dim"]),
        hidden=tuple(int(h) for h in doc["hidden"]),
        output_dim=int(doc["output_dim"]),
    )
    weights = tuple(np.array(layer["weights"], dtype=np.float64) for layer in doc["layers"])
    biases = tuple(np.array(layer["bias"], dtype=np.float64) for layer in doc["layers"])
    return ModelParams(arch=arch, weights=weights, biases=biases), int(doc["seed"])
