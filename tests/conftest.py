import functools
import importlib
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from distillchain import (
    ArchSpec,
    ChainConfig,
    ClassCatalog,
    DataTable,
    DistillConfig,
    ExperimentConfig,
    PoolTruth,
    PoolView,
    SyntheticSpec,
    TrainConfig,
    backward,
    forward,
    generate_synthetic,
    init_params,
    soft_cross_entropy,
)
from distillchain.learner import ModelParams


@pytest.fixture
def two_class_catalog():
    return ClassCatalog(("neg", "pos"))


def table_from(catalog, features, labels, ids=None):
    """Small-table builder for tests."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    ids = np.arange(n) if ids is None else np.asarray(ids)
    return DataTable(catalog=catalog, ids=ids, features=features, labels=labels)


def outcome_of(call):
    """What ``call()`` returns, or the ValueError or ArithmeticError it
    raises; any other exception propagates."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return exc


def blank_label(path, lineno):
    """Empty the label field of line ``lineno`` (from 1) of the CSV at ``path``."""
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[lineno - 1].split(",")
    fields[1] = ""
    lines[lineno - 1] = ",".join(fields)
    path.write_text("".join(lines))


def tiny_config(tmp_path, **overrides):
    """A seeded chain sweep small enough to run in well under a second."""
    fast = TrainConfig(max_epochs=3, steps_per_epoch=10, patience=3)
    settings = dict(
        source=SyntheticSpec(classes=3, per_class=40, dim=3, spread=0.4),
        fractions=(0.2, 1.0),
        runs=2,
        early_stop_fraction=0.1,
        train=fast,
        chain=ChainConfig(
            iterations=2,
            distill=DistillConfig(per_class_cap=None),
            pretrain=fast,
            finetune=fast,
        ),
        seed=11,
        out_dir=str(tmp_path / "out"),
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


HOST_KIND = Path(__file__).resolve().parents[1] / "scripts" / "host_kind.py"


def host_kind(host_env=None):
    """The host kind, (numpy's highest enabled dispatch target, OpenBLAS
    core), that a child process reports with ``host_env`` added to its
    environment (scripts/host_kind.py)."""
    done = subprocess.run(
        [sys.executable, str(HOST_KIND)],
        env={**os.environ, **(host_env or {})}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    target, core = done.stdout.split()
    return target, core


def numpy_x86_v3():
    """The environment under which a child's numpy dispatches no higher than
    X86_V3: the targets above it that the running host enables, disabled
    (numpy reads NPY_DISABLE_CPU_FEATURES at import). None off x86-64, on a
    host without X86_V3, or on a numpy that names no X86_V3 dispatch target."""
    umath = importlib.import_module("numpy._core._multiarray_umath")
    dispatch, enabled = umath.__cpu_dispatch__, umath.__cpu_features__
    x86 = platform.machine().lower() in ("x86_64", "amd64")
    if not (x86 and enabled.get("X86_V3") and "X86_V3" in dispatch):
        return None
    above = [target for target in dispatch[dispatch.index("X86_V3") + 1 :] if enabled.get(target)]
    return {"NPY_DISABLE_CPU_FEATURES": ",".join(above)}


@functools.cache
def simulated_avx2_host():
    """The environment under which a child process computes as an x86-64
    AVX2 host would: numpy at X86_V3 (numpy_x86_v3) and OpenBLAS on its
    Haswell kernels. None where numpy_x86_v3 is, or when the child's
    OpenBLAS does not report Haswell as the core it runs."""
    numpy_env = numpy_x86_v3()
    if numpy_env is None:
        return None
    env = {"OPENBLAS_CORETYPE": "Haswell", **numpy_env}
    return env if host_kind(env)[1] == "Haswell" else None


def rare_class_tables():
    """Train, validation and test of 4 classes whose 200-row train table
    holds one row each of classes 1-3, so that no 4-row early-stop draw
    (early_stop_fraction = 0.02) covers every class."""
    train, validation, test = generate_synthetic(4, 63, 3, 0.4, seed=11)
    labels = np.zeros(len(train), dtype=np.int64)
    labels[[40, 90, 160]] = (1, 2, 3)
    return replace(train, labels=labels), validation, test


def pool_from(catalog, features, ids=None):
    """A pool view over every row of ``features``, one id per row (listed
    by ascending id)."""
    features = np.asarray(features, dtype=np.float64)
    ids = np.arange(features.shape[0]) if ids is None else np.asarray(ids)
    rows = np.argsort(ids)
    return PoolView(catalog, features, rows, ids[rows])


def truth_from(catalog, labels):
    """A pool truth of ``labels``, one per pool position."""
    return PoolTruth(catalog, np.asarray(labels, dtype=np.int64))


def reachable(*roots):
    """Every object reachable from ``roots`` through containers, dataclass
    fields and instance attributes (arrays are leaves)."""
    stack, seen, found = list(roots), set(), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, np.ndarray):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


def reaches_labels(roots, *label_arrays):
    """True when an object reachable from ``roots`` is a PoolTruth, or an
    array that may share memory with one of ``label_arrays``."""
    for obj in reachable(*roots):
        if isinstance(obj, PoolTruth):
            return True
        if isinstance(obj, np.ndarray) and any(np.may_share_memory(obj, a) for a in label_arrays):
            return True
    return False


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle, shared between the unit tests and the
# acceptance gate.

FD_STEP = 1e-5


def gradcheck_case(seed):
    """Randomized (params, inputs, soft targets) for a gradient check.

    Cases whose hidden pre-activations sit within 50 * h of the rectifier
    kink are redrawn: a central difference straddling the kink measures a
    subgradient mixture rather than the analytic derivative.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        depth = int(rng.integers(0, 3))
        hidden = tuple(int(rng.integers(3, 13)) for _ in range(depth))
        arch = ArchSpec(
            input_dim=int(rng.integers(2, 9)),
            hidden=hidden,
            output_dim=int(rng.integers(2, 7)),
        )
        params = init_params(arch, int(rng.integers(0, 2**31)))
        batch = int(rng.integers(2, 7))
        x = rng.normal(size=(batch, arch.input_dim))
        raw = rng.exponential(1.0, (batch, arch.output_dim))
        targets = raw / raw.sum(axis=1, keepdims=True)
        if _min_preactivation(params, x) > 50.0 * FD_STEP:
            return params, x, targets
    raise AssertionError("could not draw a kink-free gradcheck case")


def _min_preactivation(params, x):
    h = x
    smallest = np.inf
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        if i < len(params.weights) - 1:
            smallest = min(smallest, np.abs(z).min())
            h = np.maximum(z, 0.0)
    return smallest


def numeric_gradients(params, x, targets):
    """Central finite differences of the batch loss for every parameter."""

    def loss_with(weights, biases):
        shadow = ModelParams(arch=params.arch, weights=tuple(weights), biases=tuple(biases))
        return soft_cross_entropy(forward(shadow, x), targets)

    num_w, num_b = [], []
    for li in range(len(params.weights)):
        for store, source, num in ((0, params.weights, num_w), (1, params.biases, num_b)):
            grad = np.zeros_like(source[li])
            flat = grad.ravel()
            base = source[li].ravel()
            for j in range(base.size):
                for sign in (1.0, -1.0):
                    bumped = base.copy()
                    bumped[j] += sign * FD_STEP
                    arrays = list(source)
                    arrays[li] = bumped.reshape(source[li].shape)
                    if store == 0:
                        value = loss_with(arrays, params.biases)
                    else:
                        value = loss_with(params.weights, arrays)
                    flat[j] += sign * value / (2.0 * FD_STEP)
            num.append(grad)
    return tuple(num_w), tuple(num_b)


def max_relative_error(params, x, targets):
    analytic = backward(params, x, targets)
    numeric = numeric_gradients(params, x, targets)
    worst = 0.0
    for a_group, n_group in zip(analytic, numeric):
        for a, n in zip(a_group, n_group):
            denominator = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float((np.abs(a - n) / denominator).max()))
    return worst
