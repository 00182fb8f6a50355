"""Dense feed-forward softmax classifier trained from scratch.

Plain numpy implementation: rectifier hidden layers, numerically stabilized
softmax output, soft-target cross-entropy, analytic backprop, Adam updates,
and accuracy-based early stopping with best-epoch weight selection.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import DataTable

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

LOG_CLAMP = 1e-12

INIT_SCHEME = "uniform-fan-in"


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
class AdamState:
    """First/second moment estimates congruent to ModelParams plus the step
    counter."""

    m_weights: tuple[np.ndarray, ...]
    m_biases: tuple[np.ndarray, ...]
    v_weights: tuple[np.ndarray, ...]
    v_biases: tuple[np.ndarray, ...]
    t: int = 0

    @staticmethod
    def zeros(params: ModelParams) -> "AdamState":
        return AdamState(
            m_weights=tuple(np.zeros_like(w) for w in params.weights),
            m_biases=tuple(np.zeros_like(b) for b in params.biases),
            v_weights=tuple(np.zeros_like(w) for w in params.weights),
            v_biases=tuple(np.zeros_like(b) for b in params.biases),
            t=0,
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; the epoch size is a fixed number of minibatch
    steps regardless of dataset size."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    steps_per_epoch: int = 100
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
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
    init_scheme: str = INIT_SCHEME


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


def _flatten(arch: ArchSpec, weights, biases) -> np.ndarray:
    """A fresh flat buffer holding copies of per-layer weights and biases."""
    flat = np.empty(_param_count(arch), dtype=np.float64)
    views_w, views_b = _layer_views(arch, flat)
    for dst, src in zip((*views_w, *views_b), (*weights, *biases)):
        dst[...] = src
    return flat


def _params_view(arch: ArchSpec, flat: np.ndarray) -> ModelParams:
    weights, biases = _layer_views(arch, flat)
    return ModelParams(arch=arch, weights=weights, biases=biases)


def _softmax_inplace(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``logits``."""
    # ufunc reductions: what ndarray.max and .sum call, minus their wrappers
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def _forward_cached(
    weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Probabilities plus the activations and the hidden pre-activations
    backprop needs; the output layer's pre-activation becomes the
    probabilities in place.

    Takes one model's 2-D weights and a (rows, in) batch, or a stack of K
    models' (K, out, in) weights, (K, 1, out) biases and a (K, rows, in)
    batch; a stacked matmul gives each model the bits of its own 2-D one.
    """
    activations = [x]
    pre_acts = []
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.mT
        z += b
        pre_acts.append(z)
        if i < last:
            h = np.maximum(z, 0.0)
            activations.append(h)
    return _softmax_inplace(pre_acts[-1]), activations, pre_acts


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch of feature vectors."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != params.arch.input_dim:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match model input {params.arch.input_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    probs, _, _ = _forward_cached(params.weights, params.biases, x)
    return probs


def _cross_entropy(probs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mean cross-entropy over the rows of the last two axes: a 0-d array
    for one batch, one value per model for a stack of batches."""
    logs = np.log(np.maximum(probs, LOG_CLAMP))
    per_row = np.add.reduce(target * logs, axis=-1)
    # the mean of per_row exactly as ndarray.mean computes it, minus its
    # call overhead
    return -(np.add.reduce(per_row, axis=-1) / per_row.shape[-1])


def soft_cross_entropy(probs: np.ndarray, target: np.ndarray) -> float:
    """Mean soft-target cross-entropy; probabilities are clamped at 1e-12
    before the log."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if p.shape != t.shape:
        raise ValueError(f"probs shape {p.shape} does not match target shape {t.shape}")
    return float(_cross_entropy(p, t))


def _backprop_into(
    weights: Sequence[np.ndarray],
    probs: np.ndarray,
    targets: np.ndarray,
    activations: list[np.ndarray],
    pre_acts: list[np.ndarray],
    grad_w: tuple[np.ndarray, ...],
    grad_b: tuple[np.ndarray, ...],
) -> None:
    """Backprop kernel: writes the gradient of the mean soft cross-entropy
    into the per-layer ``grad_w``/``grad_b`` views, for one model or, with
    a leading model axis on every array, for a stack of them."""
    dz = (probs - targets) / probs.shape[-2]
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(dz.mT, activations[i], out=grad_w[i])
        np.add.reduce(dz, axis=-2, out=grad_b[i])
        if i > 0:
            dz = (dz @ weights[i]) * (pre_acts[i - 1] > 0.0)


def backward(
    params: ModelParams, features: np.ndarray, targets: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Exact gradient of mean soft cross-entropy w.r.t. every weight and bias."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if t.shape != (x.shape[0], params.arch.output_dim):
        raise ValueError("targets shape does not match batch and output dim")

    probs, activations, pre_acts = _forward_cached(params.weights, params.biases, x)
    grad = np.empty(_param_count(params.arch), dtype=np.float64)
    grad_w, grad_b = _layer_views(params.arch, grad)
    _backprop_into(params.weights, probs, t, activations, pre_acts, grad_w, grad_b)
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    return grad_w, grad_b


def _adam_step(
    theta: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    learning_rate: float,
) -> None:
    """Adam kernel: step ``t`` (from 1) with bias correction, updating the
    flat (or stacked flat) ``theta``, ``m`` and ``v`` buffers in place."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grad * grad)
    theta -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def adam_update(
    params: ModelParams,
    grads: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]],
    state: AdamState,
    learning_rate: float,
) -> tuple[ModelParams, AdamState]:
    """One Adam step with bias correction; returns fresh params and state."""
    arch = params.arch
    theta = _flatten(arch, params.weights, params.biases)
    m = _flatten(arch, state.m_weights, state.m_biases)
    v = _flatten(arch, state.v_weights, state.v_biases)
    t = state.t + 1
    _adam_step(theta, _flatten(arch, *grads), m, v, t, learning_rate)
    if not np.isfinite(theta).all():
        raise NumericError("non-finite parameter update")
    m_w, m_b = _layer_views(arch, m)
    v_w, v_b = _layer_views(arch, v)
    return _params_view(arch, theta), AdamState(m_w, m_b, v_w, v_b, t=t)


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
        are needed, so any split of a run of draws gives the same rows."""
        take: list[np.ndarray] = []
        need = count
        while need > 0:
            if self.cursor == self.n:
                self.order = self.rng.permutation(self.n)
                self.cursor = 0
            grab = min(need, self.n - self.cursor)
            take.append(self.order[self.cursor : self.cursor + grab])
            self.cursor += grab
            need -= grab
        return np.concatenate(take) if len(take) > 1 else take[0]


@dataclass(frozen=True)
class TrainJob:
    """One model to train: features, soft targets, the early-stop table, the
    optimization settings, and the starting weights (a fresh seeded init
    from ``config.seed`` when ``init`` is None)."""

    features: np.ndarray
    targets: np.ndarray
    early_stop: DataTable
    config: TrainConfig
    init: ModelParams | None = None


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
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("training features must be a non-empty 2-D array")
        if x.shape[1] != arch.input_dim:
            raise ValueError(
                f"feature dim {x.shape[1]} does not match model input {arch.input_dim}"
            )
        if t.shape != (x.shape[0], arch.output_dim):
            raise ValueError("targets shape does not match features and output dim")
        if not job.early_stop.fully_labelled:
            raise ValueError("early-stop table must be labelled")
        init = job.init if job.init is not None else init_params(arch, job.config.seed)
        if init.arch != arch:
            raise ValueError("initial params do not match the architecture")
        self.slot = slot
        self.x, self.t = x, t
        self.early_stop = job.early_stop
        self.init = init
        self.stream = _BatchStream(x.shape[0], np.random.default_rng(job.config.seed))
        self.epochs: list[EpochStats] = []
        self.best_acc = -1.0
        self.best_epoch = -1
        self.stale = 0

    def epoch_rows(self, steps: int, batch: int) -> np.ndarray:
        """The next epoch's training rows, one row of ``batch`` per step."""
        return self.stream.take(steps * batch).reshape(steps, batch)

    def history(self) -> TrainHistory:
        return TrainHistory(
            epochs=tuple(self.epochs), best_epoch=self.best_epoch, best_accuracy=self.best_acc
        )


def train_lockstep(arch: ArchSpec, jobs: Sequence[TrainJob]) -> list[TrainOutcome]:
    """Train one model per job in lockstep; each comes out bit-identical,
    weights and history, to training it alone.

    Params, grads and Adam moments live in one (K, P) buffer each, with
    per-layer 3-D views; every step runs one stacked forward, backprop and
    Adam update for all K members, which share the step counter. Each member
    keeps its own batch stream, early-stop table and best-epoch copy, and
    leaves the group, which is then compacted, when it stops by patience or
    when its epoch fails (non-finite loss or params: NumericError). The
    outcome per job is ``(params, history)`` or the ValueError/ArithmeticError
    that ended that job alone. All jobs must share their TrainConfig except
    ``seed``.

    Every epoch runs exactly ``steps_per_epoch`` minibatches. Training stops
    once ``patience`` consecutive epochs fail to improve the early-stop
    accuracy, or at ``max_epochs``; the weights of the best epoch are kept.
    Finiteness is checked once per epoch, on the mean loss and the params,
    before the epoch is evaluated or kept.
    """
    if not jobs:
        return []
    config = jobs[0].config
    if any(replace(job.config, seed=config.seed) != config for job in jobs):
        raise ValueError("lockstep jobs must share their TrainConfig except seed")
    outcomes: list[TrainOutcome | None] = [None] * len(jobs)
    members: list[_Member] = []
    for slot, job in enumerate(jobs):
        try:
            members.append(_Member(slot, arch, job))
        except ValueError as exc:
            outcomes[slot] = exc
    if config.max_epochs == 0:
        for member in members:
            outcomes[member.slot] = (member.init, TrainHistory())
        return outcomes

    steps, batch = config.steps_per_epoch, config.batch_size
    theta = np.stack([_flatten(arch, mb.init.weights, mb.init.biases) for mb in members])
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    best = np.empty_like(theta)
    step = 0
    for epoch in range(config.max_epochs):
        # views into this epoch's buffers, which shrink when members leave
        k = len(members)
        grad = np.empty_like(theta)
        weights, biases = _layer_views(arch, theta)
        biases = tuple(b[:, None, :] for b in biases)
        grad_w, grad_b = _layer_views(arch, grad)
        rows = [mb.epoch_rows(steps, batch) for mb in members]
        chunk = min(steps, _GATHER_STEPS)
        xs = np.empty((chunk, k, batch, arch.input_dim))
        ts = np.empty((chunk, k, batch, arch.output_dim))
        loss_sum = np.zeros(k)
        for s in range(steps):
            c = s % chunk
            if c == 0:
                n = min(chunk, steps - s)
                for j, (mb, epoch_rows) in enumerate(zip(members, rows)):
                    # mode="clip" spares take() the buffered copy it makes
                    # for out= under mode="raise"; all rows are in range
                    mb.x.take(epoch_rows[s : s + n], 0, out=xs[:n, j], mode="clip")
                    mb.t.take(epoch_rows[s : s + n], 0, out=ts[:n, j], mode="clip")
            probs, activations, pre_acts = _forward_cached(weights, biases, xs[c])
            loss_sum += _cross_entropy(probs, ts[c])
            _backprop_into(weights, probs, ts[c], activations, pre_acts, grad_w, grad_b)
            step += 1
            _adam_step(theta, grad, m, v, step, config.learning_rate)
        mean_loss = loss_sum / steps

        staying = []
        for k, mb in enumerate(members):
            try:
                if not np.isfinite(mean_loss[k]):
                    raise NumericError(f"non-finite training loss at epoch {epoch}")
                if not np.isfinite(theta[k]).all():
                    raise NumericError(f"non-finite parameters at epoch {epoch}")
                acc, _ = evaluate(_params_view(arch, theta[k]), mb.early_stop)
            except (ValueError, ArithmeticError) as exc:
                outcomes[mb.slot] = exc
                continue
            mb.epochs.append(
                EpochStats(epoch=epoch, train_loss=float(mean_loss[k]), early_stop_accuracy=acc)
            )
            if acc > mb.best_acc:
                np.copyto(best[k], theta[k])
                mb.best_acc, mb.best_epoch = acc, epoch
                mb.stale = 0
            else:
                mb.stale += 1
            if mb.stale >= max(config.patience, 1) or epoch == config.max_epochs - 1:
                outcomes[mb.slot] = (_params_view(arch, best[k].copy()), mb.history())
            else:
                staying.append(k)
        if not staying:
            break
        if len(staying) < len(members):
            members = [members[k] for k in staying]
            theta, m, v, best = theta[staying], m[staying], v[staying], best[staying]
    return outcomes


def train_with_early_stopping(
    arch: ArchSpec,
    features: np.ndarray,
    targets: np.ndarray,
    early_stop: DataTable,
    config: TrainConfig,
    init: ModelParams | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Train on (features, soft targets), keeping the weights of the epoch
    with the best hard accuracy on ``early_stop``: the one-model case of
    :func:`train_lockstep`, raising its error instead of returning it.

    Every epoch runs exactly ``steps_per_epoch`` minibatches. Training stops
    once ``patience`` consecutive epochs fail to improve the early-stop
    accuracy, or at ``max_epochs``. When ``init`` is given, training continues
    from those weights instead of a fresh seeded initialization. A blow-up
    raises NumericError.
    """
    (outcome,) = train_lockstep(arch, [TrainJob(features, targets, early_stop, config, init)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def evaluate(params: ModelParams, table: DataTable) -> tuple[float, np.ndarray]:
    """Hard accuracy and the true-by-predicted confusion count matrix."""
    if not table.fully_labelled:
        raise ValueError("evaluate requires a labelled table")
    if len(table) == 0:
        raise ValueError("evaluate requires a non-empty table")
    c = table.catalog.size
    if c != params.arch.output_dim:
        raise ValueError("catalog size does not match model output dim")
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
