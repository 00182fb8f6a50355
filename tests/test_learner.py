import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillchain import (
    ArchSpec,
    ClassCatalog,
    NumericError,
    TrainConfig,
    backward,
    evaluate,
    forward,
    generate_synthetic,
    init_params,
    load_model,
    make_splits,
    normalize,
    one_hot,
    save_model,
    soft_cross_entropy,
    train_with_early_stopping,
    SplitSpec,
)
from distillchain.learner import (
    EpochStats,
    ModelParams,
    TrainHistory,
    TrainJob,
    _Adam,
    _BatchStream,
    _flatten,
    train_job,
    train_lockstep,
)

from conftest import table_from


def params_from(weights, biases, input_dim, hidden, output_dim):
    arch = ArchSpec(input_dim=input_dim, hidden=tuple(hidden), output_dim=output_dim)
    return ModelParams(
        arch=arch,
        weights=tuple(np.asarray(w, dtype=np.float64) for w in weights),
        biases=tuple(np.asarray(b, dtype=np.float64) for b in biases),
    )


def random_simplex(rng, shape):
    raw = rng.exponential(1.0, shape)
    return raw / raw.sum(axis=-1, keepdims=True)


class TestInitParams:
    def test_deterministic_and_zero_biases(self):
        arch = ArchSpec(input_dim=4, hidden=(7,), output_dim=3)
        a = init_params(arch, seed=5)
        b = init_params(arch, seed=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for bias in a.biases:
            assert not bias.any()

    def test_uniform_fan_in_scale(self):
        # std of uniform(-a, a) is a / sqrt(3) with a = 1 / sqrt(fan_in)
        arch = ArchSpec(input_dim=1000, hidden=(1000,), output_dim=2)
        params = init_params(arch, seed=0)
        expected = (1.0 / np.sqrt(1000)) / np.sqrt(3.0)
        assert params.weights[0].std() == pytest.approx(expected, rel=0.05)


class TestForward:
    def test_zero_params_give_uniform_probs(self):
        params = params_from([np.zeros((9, 4))], [np.zeros(9)], 4, (), 9)
        probs = forward(params, np.ones((5, 4)))
        assert np.allclose(probs, 1.0 / 9.0, atol=1e-12)

    def test_closed_form_softmax(self):
        # logits (ln 2, 0) -> probabilities (2/3, 1/3)
        params = params_from([[[np.log(2.0)], [0.0]]], [np.zeros(2)], 1, (), 2)
        probs = forward(params, np.array([[1.0]]))
        assert probs[0].tolist() == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        params = params_from([rng.normal(size=(3, 2))], [rng.normal(size=3)], 2, (), 3)
        shifted = params_from([params.weights[0]], [params.biases[0] + 1000.0], 2, (), 3)
        x = rng.normal(size=(8, 2))
        assert np.abs(forward(params, x) - forward(shifted, x)).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        arch = ArchSpec(input_dim=3, hidden=(5,), output_dim=4)
        params = init_params(arch, seed)
        probs = forward(params, rng.normal(scale=3.0, size=(6, 3)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        assert (probs >= 0.0).all()

    def test_non_finite_input_rejected(self):
        params = init_params(ArchSpec(input_dim=2, hidden=(), output_dim=2), 0)
        with pytest.raises(ValueError, match="finite"):
            forward(params, np.array([[np.nan, 0.0]]))


class TestSoftCrossEntropy:
    def test_perfect_one_hot_is_zero(self):
        assert soft_cross_entropy(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_half_probability(self):
        loss = soft_cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(0.693147, abs=1e-6)

    def test_matches_entropy_when_equal(self):
        loss = soft_cross_entropy(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            soft_cross_entropy(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_non_negative_and_at_least_entropy(self, seed):
        rng = np.random.default_rng(seed)
        t = random_simplex(rng, (4, 5))
        p = random_simplex(rng, (4, 5))
        assert soft_cross_entropy(p, t) >= 0.0
        # cross-entropy is minimized at p = t
        assert soft_cross_entropy(p, t) >= soft_cross_entropy(t, t) - 1e-12


class TestBackward:
    def test_zero_gradient_at_exact_match(self):
        # zero inputs + zero params -> uniform probs; uniform targets match
        params = params_from([np.zeros((3, 2))], [np.zeros(3)], 2, (), 3)
        x = np.zeros((4, 2))
        t = np.full((4, 3), 1.0 / 3.0)
        grad_w, grad_b = backward(params, x, t)
        assert not grad_w[0].any()
        assert not grad_b[0].any()

    def test_batch_duplication_invariance(self):
        rng = np.random.default_rng(7)
        arch = ArchSpec(input_dim=3, hidden=(4,), output_dim=3)
        params = init_params(arch, 7)
        x = rng.normal(size=(5, 3))
        t = random_simplex(rng, (5, 3))
        gw1, gb1 = backward(params, x, t)
        gw2, gb2 = backward(params, np.vstack([x, x]), np.vstack([t, t]))
        for a, b in zip((*gw1, *gb1), (*gw2, *gb2)):
            assert np.abs(a - b).max() < 1e-12

    def test_matches_finite_differences(self):
        from conftest import gradcheck_case, max_relative_error

        worst = 0.0
        for seed in range(10):
            worst = max(worst, max_relative_error(*gradcheck_case(seed)))
        assert worst < 1e-4


class TestAdamUpdate:
    def test_first_step_magnitude(self):
        # entry 0.5 with gradient 0.2: the first bias-corrected step moves by
        # almost exactly the learning rate
        theta = np.array([0.5, 0.0, 0.0, 0.0])  # weights (2, 1), then biases (2,)
        adam = _Adam(np.zeros((2, *theta.shape)))
        adam.grad[...] = [0.2, 0.0, 0.0, 0.0]
        adam.step(theta, 1, learning_rate=0.001)
        assert theta[0] == pytest.approx(0.499, abs=1e-6)
        assert theta[1:].tolist() == [0.0, 0.0, 0.0]

    def test_zero_gradient_changes_nothing(self):
        params = init_params(ArchSpec(input_dim=2, hidden=(3,), output_dim=2), 1)
        theta = _flatten(params.weights, params.biases)
        before = theta.copy()
        adam = _Adam(np.zeros((2, *theta.shape)))
        adam.grad[...] = 0.0
        adam.step(theta, 1, 0.01)
        assert np.array_equal(theta, before)
        assert (adam.v >= 0).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_update_raises(self, two_class_catalog):
        # huge features against one-hot targets the model gets wrong, at a
        # huge learning rate: the first step's loss is finite, its update is not
        arch = ArchSpec(input_dim=2, hidden=(), output_dim=2)
        es = table_from(two_class_catalog, [[0.0, 0.0], [1.0, 1.0]], labels=[0, 1])
        features = np.full((4, 2), 1e10)
        targets = np.tile([0.0, 1.0], (4, 1))
        cfg = TrainConfig(learning_rate=1e300, steps_per_epoch=1, max_epochs=1)
        with pytest.raises(NumericError, match="non-finite parameters at epoch 0"):
            train_job(arch, TrainJob(features, targets, es, cfg, seed=1))


def _blob_problem(seed=0):
    train, val, test = generate_synthetic(classes=2, per_class=120, dim=2, spread=0.1, seed=seed)
    splits, _ = make_splits(train, SplitSpec(labelled_fraction=0.5, early_stop_fraction=0.1, seed=seed))
    _, [lab, es, v, t] = normalize(splits.labelled, [splits.labelled, splits.early_stop, val, test])
    return lab, es, v, t


class TestTrainWithEarlyStopping:
    def test_zero_epochs_returns_initial_params(self, two_class_catalog):
        arch = ArchSpec(input_dim=2, hidden=(), output_dim=2)
        es = table_from(two_class_catalog, [[0.0, 0.0], [1.0, 1.0]], labels=[0, 1])
        cfg = TrainConfig(max_epochs=0)
        params, history = train_with_early_stopping(
            arch, np.zeros((4, 2)), np.full((4, 2), 0.5), es, cfg, seed=3
        )
        fresh = init_params(arch, 3)
        for a, b in zip(params.weights, fresh.weights):
            assert np.array_equal(a, b)
        assert history.epochs == ()
        assert history.best_epoch is None

    def test_separable_blobs_reach_perfect_early_stop_accuracy(self):
        lab, es, _, _ = _blob_problem()
        arch = ArchSpec(input_dim=2, hidden=(), output_dim=2)
        cfg = TrainConfig(max_epochs=50)
        _, history = train_with_early_stopping(arch, lab.features, one_hot(lab.labels, 2), es, cfg, seed=1)
        assert history.best_accuracy == 1.0
        assert len(history.epochs) <= 50

    def test_best_accuracy_is_max_of_history(self):
        lab, es, _, _ = _blob_problem(seed=5)
        arch = ArchSpec(input_dim=2, hidden=(4,), output_dim=2)
        cfg = TrainConfig(max_epochs=12, patience=30)
        _, history = train_with_early_stopping(arch, lab.features, one_hot(lab.labels, 2), es, cfg, seed=2)
        accs = [e.early_stop_accuracy for e in history.epochs]
        assert history.best_accuracy == max(accs)
        assert history.best_epoch == accs.index(max(accs))

    def test_training_is_deterministic(self):
        lab, es, _, _ = _blob_problem(seed=9)
        arch = ArchSpec(input_dim=2, hidden=(3,), output_dim=2)
        cfg = TrainConfig(max_epochs=8)
        p1, h1 = train_with_early_stopping(arch, lab.features, one_hot(lab.labels, 2), es, cfg, seed=13)
        p2, h2 = train_with_early_stopping(arch, lab.features, one_hot(lab.labels, 2), es, cfg, seed=13)
        for a, b in zip((*p1.weights, *p1.biases), (*p2.weights, *p2.biases)):
            assert np.array_equal(a, b)
        assert h1 == h2

    def test_returned_params_dominate_final_epoch(self):
        # property over several seeds: kept weights' early-stop accuracy is
        # at least the last epoch's
        arch = ArchSpec(input_dim=2, hidden=(), output_dim=2)
        for seed in range(6):
            lab, es, _, _ = _blob_problem(seed=seed)
            cfg = TrainConfig(max_epochs=10, patience=50, steps_per_epoch=20)
            params, history = train_with_early_stopping(
                arch, lab.features, one_hot(lab.labels, 2), es, cfg, seed=seed
            )
            best_acc, _ = evaluate(params, es)
            assert best_acc >= history.epochs[-1].early_stop_accuracy


# ---------------------------------------------------------------------------
# The per-step trainer the fused engine replaced, kept as the reference: every
# step gathers its batch by index, builds fresh ModelParams and Adam moments,
# updates each layer's arrays separately and scores the step with the mean
# cross-entropy as ndarray.mean computes it.


def reference_forward_cached(params, x):
    activations, pre_acts, h = [x], [], x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre_acts.append(z)
        if i < len(params.weights) - 1:
            h = np.maximum(z, 0.0)
            activations.append(h)
    logits = pre_acts[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True), activations, pre_acts


def reference_backprop(params, probs, targets, activations, pre_acts):
    dz = (probs - targets) / probs.shape[0]
    grad_w, grad_b = [None] * len(params.weights), [None] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        grad_w[i] = dz.T @ activations[i]
        grad_b[i] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ params.weights[i]) * (pre_acts[i - 1] > 0.0)
    return tuple(grad_w), tuple(grad_b)


def reference_adam_update(params, grads, moments, t, learning_rate):
    """Adam step ``t`` layer by layer; ``moments`` is (m_weights, m_biases,
    v_weights, v_biases). Returns fresh params and moments."""
    bc1 = 1.0 - 0.9**t
    bc2 = 1.0 - 0.999**t

    def step(theta, g, m, v):
        m_new = 0.9 * m + (1.0 - 0.9) * g
        v_new = 0.999 * v + (1.0 - 0.999) * (g * g)
        theta_new = theta - learning_rate * (m_new / bc1) / (np.sqrt(v_new / bc2) + 1e-8)
        if not np.all(np.isfinite(theta_new)):
            raise NumericError("non-finite parameter update")
        return theta_new, m_new, v_new

    m_w, m_b, v_w, v_b = moments
    w = [step(*a) for a in zip(params.weights, grads[0], m_w, v_w)]
    b = [step(*a) for a in zip(params.biases, grads[1], m_b, v_b)]
    return (
        ModelParams(arch=params.arch, weights=tuple(x[0] for x in w), biases=tuple(x[0] for x in b)),
        (tuple(x[1] for x in w), tuple(x[1] for x in b), tuple(x[2] for x in w), tuple(x[2] for x in b)),
    )


def reference_train(arch, features, targets, early_stop, config, init=None, seed=0):
    params = init if init is not None else init_params(arch, seed)
    zeros_w = tuple(np.zeros_like(w) for w in params.weights)
    zeros_b = tuple(np.zeros_like(b) for b in params.biases)
    moments, t = (zeros_w, zeros_b, zeros_w, zeros_b), 0
    rng = np.random.default_rng(seed)
    order, cursor = rng.permutation(len(features)), 0
    best_params, best_acc, best_epoch, epochs, stale = params, -1.0, -1, [], 0
    for epoch in range(config.max_epochs):
        loss_sum = 0.0
        for _ in range(config.steps_per_epoch):
            take = []
            while len(take) < config.batch_size:
                if cursor == len(features):
                    order, cursor = rng.permutation(len(features)), 0
                take.append(order[cursor])
                cursor += 1
            xb, tb = features[take], targets[take]
            probs, activations, pre_acts = reference_forward_cached(params, xb)
            loss_sum += float(-(tb * np.log(np.maximum(probs, 1e-12))).sum(axis=1).mean())
            grads = reference_backprop(params, probs, tb, activations, pre_acts)
            t += 1
            params, moments = reference_adam_update(params, grads, moments, t, config.learning_rate)
        mean_loss = loss_sum / config.steps_per_epoch
        acc, _ = evaluate(params, early_stop)
        epochs.append(EpochStats(epoch=epoch, train_loss=mean_loss, early_stop_accuracy=acc))
        if acc > best_acc:
            best_params, best_acc, best_epoch, stale = params, acc, epoch, 0
        else:
            stale += 1
            if stale >= max(config.patience, 1):
                break
    return best_params, TrainHistory(epochs=tuple(epochs), best_epoch=best_epoch, best_accuracy=best_acc)


def _three_class_problem(seed):
    train, _, _ = generate_synthetic(classes=3, per_class=60, dim=5, spread=0.9, seed=seed)
    splits, _ = make_splits(train, SplitSpec(labelled_fraction=0.4, early_stop_fraction=0.1, seed=seed))
    _, [lab, es] = normalize(splits.labelled, [splits.labelled, splits.early_stop])
    return lab, es


class TestMatchesPerStepReference:
    @pytest.mark.parametrize("hidden", [(), (4,), (32, 16)])
    @pytest.mark.parametrize(
        "rows,max_epochs,patience,warm",
        [
            (None, 40, 2, False),  # stops by patience
            (None, 6, 100, False),  # stops at max_epochs
            (7, 5, 100, False),  # training set smaller than a batch
            (None, 8, 100, True),  # continues from init=
        ],
    )
    def test_bit_identical(self, hidden, rows, max_epochs, patience, warm):
        lab, es = _three_class_problem(seed=len(hidden) + max_epochs)
        x, t = lab.features[:rows], random_simplex(np.random.default_rng(3), (len(lab), 3))[:rows]
        arch = ArchSpec(input_dim=5, hidden=hidden, output_dim=3)
        cfg = TrainConfig(
            learning_rate=3e-3, steps_per_epoch=15, max_epochs=max_epochs, patience=patience
        )
        init = None
        if warm:
            init, _ = reference_train(arch, x, t, es, replace(cfg, max_epochs=2), seed=9)
        got, got_history = train_with_early_stopping(arch, x, t, es, cfg, init=init, seed=4)
        want, want_history = reference_train(arch, x, t, es, cfg, init=init, seed=4)
        assert got_history == want_history
        stopped_by_patience = len(got_history.epochs) < max_epochs
        assert stopped_by_patience == (patience < max_epochs)
        for a, b in zip((*got.weights, *got.biases), (*want.weights, *want.biases)):
            assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mid_epoch_blow_up_raises(self):
        lab, es = _three_class_problem(seed=0)
        arch = ArchSpec(input_dim=5, hidden=(4,), output_dim=3)
        cfg = TrainConfig(learning_rate=1e300, max_epochs=3)
        with pytest.raises(NumericError):
            train_with_early_stopping(arch, lab.features, one_hot(lab.labels, 3), es, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_weights_after_last_step_are_not_kept(self):
        # the only step's loss is finite (it scores the initial weights), but
        # the largest finite learning rate times a gradient entry above 1
        # (features scaled by 10) leaves non-finite weights behind
        lab, es = _three_class_problem(seed=0)
        arch = ArchSpec(input_dim=5, hidden=(), output_dim=3)
        cfg = TrainConfig(learning_rate=np.finfo(np.float64).max, steps_per_epoch=1, max_epochs=1)
        with pytest.raises(NumericError, match="^non-finite parameters at epoch 0$"):
            train_with_early_stopping(arch, 10 * lab.features, one_hot(lab.labels, 3), es, cfg)


def assert_same_params(got, want):
    for a, b in zip((*got.weights, *got.biases), (*want.weights, *want.biases), strict=True):
        assert a.shape == b.shape and np.array_equal(a, b)


class TestLockstep:
    """train_lockstep against one separate run of the per-step reference
    trainer per member."""

    @staticmethod
    def jobs(hidden, k, steps=15):
        arch = ArchSpec(input_dim=5, hidden=hidden, output_dim=3)
        cfg = TrainConfig(learning_rate=3e-3, steps_per_epoch=steps, max_epochs=12, patience=2)
        jobs = []
        for j in range(k):
            lab, es = _three_class_problem(seed=10 + j)
            rows = 7 if j == 1 else None  # fewer rows than a batch
            x = lab.features[:rows]
            t = random_simplex(np.random.default_rng(j), (len(lab), 3))[:rows]
            init = None
            if j == 2:  # continues from init=
                init, _ = reference_train(arch, x, t, es, replace(cfg, max_epochs=2), seed=99)
            if j >= 3:  # reads its rows of a raw matrix in place, normalizing them
                raw, _, _ = generate_synthetic(classes=3, per_class=60, dim=5, spread=0.9 + j, seed=j)
                norm, _ = normalize(raw, [])
                rows = np.random.default_rng(j).choice(len(raw), size=len(t))  # with repeats
                jobs.append(TrainJob(raw.features, t, es, cfg, rows=rows, normalizer=norm, seed=j))
                continue
            jobs.append(TrainJob(x, t, es, cfg, init=init, seed=j))
        return arch, jobs

    @staticmethod
    def assert_matches_reference(arch, job, outcome):
        x = job.features
        if job.rows is not None:  # the rows copied out and normalized up front
            x = (x[job.rows] - job.normalizer.mean) / job.normalizer.std
        want, want_history = reference_train(
            arch, x, job.targets, job.early_stop, job.config, init=job.init, seed=job.seed
        )
        got, got_history = outcome
        assert got_history == want_history
        assert_same_params(got, want)

    @pytest.mark.parametrize("hidden", [(), (4,), (32, 16)])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_bit_identical_to_separate_reference_runs(self, hidden, k):
        arch, jobs = self.jobs(hidden, k)
        outcomes = train_lockstep(arch, jobs)
        assert len(outcomes) == k
        for job, outcome in zip(jobs, outcomes):
            self.assert_matches_reference(arch, job, outcome)
        if k >= 3:  # members left the group at different epochs
            assert len({len(history.epochs) for _, history in outcomes}) > 1

    @pytest.mark.parametrize("hidden", [(), (32, 16)])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("steps", [16, 17, 40])
    def test_losses_taken_per_gather_chunk(self, hidden, k, steps):
        # the loss is taken once per 16-step gather: epochs of exactly one
        # chunk, of a chunk and one step, and of two chunks and a part
        arch, jobs = self.jobs(hidden, k, steps=steps)
        outcomes = train_lockstep(arch, jobs)
        for job, outcome in zip(jobs, outcomes):
            self.assert_matches_reference(arch, job, outcome)

    @staticmethod
    def head(table, n):
        return table_from(table.catalog, table.features[:n], table.labels[:n], table.ids[:n])

    def test_early_stop_tables_of_every_kind_in_one_group(self):
        # valid members whose early-stop tables share a row count beside
        # members whose tables evaluate rejects, at other row counts: each
        # of those fails alone, with the error evaluate gives for its table
        arch, jobs = self.jobs((), 5)
        es = jobs[0].early_stop
        bad = [
            table_from(ClassCatalog(("a", "b", "c", "d")), es.features, es.labels),
            self.head(es, 0),
            table_from(es.catalog, es.features[:, :4], es.labels),
        ]
        jobs = [replace(job, early_stop=self.head(job.early_stop, 11)) for job in jobs]
        jobs += [replace(jobs[0], early_stop=table) for table in bad]
        outcomes = train_lockstep(arch, jobs)
        assert [str(o) for o in outcomes[5:]] == [
            "catalog size does not match model output dim",
            "evaluate requires a non-empty table",
            "feature dim 4 does not match model input 5",
        ]
        for table, outcome in zip(bad, outcomes[5:]):
            with pytest.raises(ValueError) as expected:
                evaluate(init_params(arch, 0), table)
            assert isinstance(outcome, ValueError) and str(outcome) == str(expected.value)
        assert [len(job.early_stop) for job in jobs] == [11] * 5 + [14, 0, 14]
        for j in range(5):
            self.assert_matches_reference(arch, jobs[j], outcomes[j])

    @pytest.mark.parametrize("max_epochs", [0, 12])
    def test_valid_members_must_share_early_stop_row_count(self, max_epochs):
        arch, jobs = self.jobs((), 3)
        jobs = [replace(job, config=replace(job.config, max_epochs=max_epochs)) for job in jobs]
        jobs[1] = replace(jobs[1], early_stop=self.head(jobs[1].early_stop, 11))
        with pytest.raises(ValueError, match="must share their early-stop row count$"):
            train_lockstep(arch, jobs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blown_up_member_fails_alone(self):
        # members share their learning rate, so one member blows up from
        # its own start: finite weights of 1e300 overflow its logits
        arch, jobs = self.jobs((4,), 3)
        start = init_params(arch, 0)
        huge = ModelParams(arch, tuple(w * 1e300 for w in start.weights), start.biases)
        jobs[1] = replace(jobs[1], init=huge)
        outcomes = train_lockstep(arch, jobs)
        assert isinstance(outcomes[1], NumericError)
        assert str(outcomes[1]) == "non-finite training loss at epoch 0"
        with pytest.raises(NumericError, match="non-finite training loss at epoch 0"):
            job = jobs[1]
            train_with_early_stopping(
                arch, job.features, job.targets, job.early_stop, job.config, init=job.init, seed=job.seed
            )
        for j in (0, 2):
            self.assert_matches_reference(arch, jobs[j], outcomes[j])

    def test_invalid_member_fails_alone(self):
        arch, jobs = self.jobs((), 3)
        four_class_es = replace(jobs[0].early_stop, catalog=ClassCatalog(("a", "b", "c", "d")))
        jobs[0] = replace(jobs[0], early_stop=four_class_es)
        outcomes = train_lockstep(arch, jobs)
        assert isinstance(outcomes[0], ValueError)
        assert "catalog size does not match model output dim" in str(outcomes[0])
        for j in (1, 2):
            self.assert_matches_reference(arch, jobs[j], outcomes[j])

    @pytest.mark.parametrize(
        "bad",
        [
            [1e300, 0.0, 0.0],  # finite, far from a probability row
            [np.nan, 0.5, 0.5],
            [-0.5, 1.0, 0.5],
            [1.0, 0.5, 0.5],  # sums to 2
        ],
    )
    def test_bad_targets_fail_alone(self, bad):
        arch, jobs = self.jobs((), 3)
        targets = jobs[1].targets.copy()
        targets[3] = bad
        jobs[1] = replace(jobs[1], targets=targets)
        outcomes = train_lockstep(arch, jobs)
        assert isinstance(outcomes[1], ValueError)
        assert "targets must be finite, non-negative rows that sum to 1" in str(outcomes[1])
        for j in (0, 2):
            self.assert_matches_reference(arch, jobs[j], outcomes[j])

    def test_a_group_of_invalid_members_returns_each_error(self):
        arch, jobs = self.jobs((), 2)
        four_class = ClassCatalog(("a", "b", "c", "d"))
        jobs = [replace(job, early_stop=replace(job.early_stop, catalog=four_class)) for job in jobs]
        outcomes = train_lockstep(arch, jobs)
        assert [type(o) for o in outcomes] == [ValueError, ValueError]
        assert all("catalog size does not match model output dim" in str(o) for o in outcomes)

    @pytest.mark.parametrize("bad", [-1, 144])
    def test_rows_outside_the_matrix_fail_alone(self, bad):
        # the gather clips indices, so a bad row must be caught before it
        arch, jobs = self.jobs((), 5)
        assert len(jobs[3].features) == 144
        rows = jobs[3].rows.copy()
        rows[5] = bad
        jobs[3] = replace(jobs[3], rows=rows)
        outcomes = train_lockstep(arch, jobs)
        assert isinstance(outcomes[3], ValueError)
        assert "rows must index" in str(outcomes[3])
        for j in (0, 1, 2, 4):
            self.assert_matches_reference(arch, jobs[j], outcomes[j])

    @pytest.mark.parametrize(
        "bad, field, value, message",
        [
            (1, "features", np.float64(1.0), "non-empty 2-D"),  # a job without rows
            (3, "features", np.float64(1.0), "non-empty 2-D"),  # and one with
            (3, "rows", np.int64(0), "rows must index"),
            (3, "rows", np.zeros(0, dtype=np.int64), "rows must index"),
            (1, "seed", -1, "non-negative"),  # numpy's generator refuses it
            (2, "seed", -1, "non-negative"),  # also for a job with init=
        ],
    )
    def test_malformed_features_or_rows_fail_alone(self, bad, field, value, message):
        arch, jobs = self.jobs((), 5)
        jobs[bad] = replace(jobs[bad], **{field: value})
        outcomes = train_lockstep(arch, jobs)
        assert isinstance(outcomes[bad], ValueError)
        assert message in str(outcomes[bad])
        for j in {0, 1, 2, 3, 4} - {bad}:
            self.assert_matches_reference(arch, jobs[j], outcomes[j])

    def test_members_must_share_config_except_seed(self):
        arch, jobs = self.jobs((), 2)
        jobs[1] = replace(jobs[1], config=replace(jobs[1].config, learning_rate=1e-2))
        with pytest.raises(ValueError, match="must share their TrainConfig$"):
            train_lockstep(arch, jobs)

    def test_zero_epochs_returns_each_start(self):
        arch, jobs = self.jobs((), 3)
        jobs = [replace(job, config=replace(job.config, max_epochs=0)) for job in jobs]
        outcomes = train_lockstep(arch, jobs)
        assert outcomes[2][0] is jobs[2].init
        assert_same_params(outcomes[0][0], init_params(arch, jobs[0].seed))
        assert all(history == TrainHistory() for _, history in outcomes)

    @staticmethod
    @functools.cache
    def member_data(j, hidden):
        """Member j's problem, soft targets, a warm start and a raw matrix
        with its normalizer, made once per (j, hidden)."""
        arch = ArchSpec(input_dim=5, hidden=hidden, output_dim=3)
        lab, es = _three_class_problem(seed=10 + j)
        t = random_simplex(np.random.default_rng(j), (len(lab), 3))
        warm_cfg = TrainConfig(learning_rate=3e-3, steps_per_epoch=15, max_epochs=2)
        warm, _ = reference_train(arch, lab.features, t, es, warm_cfg, seed=99)
        raw, _, _ = generate_synthetic(classes=3, per_class=60, dim=5, spread=0.9 + j, seed=j)
        return lab, es, t, warm, raw, normalize(raw, [])[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        hidden=st.sampled_from([(), (4,)]),
        steps=st.sampled_from([1, 7, 16, 17]),
        max_epochs=st.integers(1, 8),
        patience=st.integers(0, 3),
        kinds=st.lists(st.sampled_from(["plain", "few rows", "warm", "normalized"]), min_size=1, max_size=6),
        huge=st.none() | st.integers(0, 5),
    )
    def test_any_leave_order_matches_reference(self, hidden, steps, max_epochs, patience, kinds, huge):
        # members leave in whatever order their own patience, epoch budget
        # or blow-up sets; each member is its rows of the restacked state
        arch = ArchSpec(input_dim=5, hidden=hidden, output_dim=3)
        cfg = TrainConfig(learning_rate=3e-3, steps_per_epoch=steps, max_epochs=max_epochs, patience=patience)
        jobs = []
        for j, kind in enumerate(kinds):
            lab, es, t, warm, raw, norm = self.member_data(j, hidden)
            if kind == "normalized":  # rows of a raw matrix, with repeats
                rows = np.random.default_rng(j).choice(len(raw), size=len(t))
                jobs.append(TrainJob(raw.features, t, es, cfg, rows=rows, normalizer=norm, seed=j))
                continue
            n = 7 if kind == "few rows" else None  # fewer rows than a batch
            jobs.append(TrainJob(lab.features[:n], t[:n], es, cfg, init=warm if kind == "warm" else None, seed=j))
        # weights scaled by 1e300 overflow through a hidden layer; softmax
        # regression's logits stay finite at that scale
        huge = None if huge is None or not hidden else huge % len(jobs)
        if huge is not None:
            start = init_params(arch, 0)
            huge_init = ModelParams(arch, tuple(w * 1e300 for w in start.weights), start.biases)
            jobs[huge] = replace(jobs[huge], init=huge_init)
        outcomes = train_lockstep(arch, jobs)
        for j, (job, outcome) in enumerate(zip(jobs, outcomes, strict=True)):
            if j != huge:
                self.assert_matches_reference(arch, job, outcome)
                continue
            with pytest.raises(NumericError) as alone:
                train_job(arch, job)
            assert isinstance(outcome, NumericError) and str(outcome) == str(alone.value)


def reference_draws(n, seed, counts):
    """Row indices and generator end state of a stream that reshuffles with
    one permutation(n) call per pass, taking one row at a time."""
    rng = np.random.default_rng(seed)
    order, cursor, draws = rng.permutation(n), 0, []
    for count in counts:
        rows = []
        for _ in range(count):
            if cursor == n:
                order, cursor = rng.permutation(n), 0
            rows.append(int(order[cursor]))
            cursor += 1
        draws.append(rows)
    return draws, rng.bit_generator.state


class TestBatchStream:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32, 33, 64, 500, 6400])
    def test_same_rows_and_generator_state_as_one_permutation_per_pass(self, n):
        # draws that stay inside a pass, end exactly on a boundary, cross
        # one boundary, and cross many
        counts = [max(n // 3, 1), n - max(n // 3, 1), 0, 1, n, 7 * n + 3, 2, 3200]
        for seed in range(5):
            stream = _BatchStream(n, np.random.default_rng(seed))
            got = [stream.take(count).tolist() for count in counts]
            want, state = reference_draws(n, seed, counts)
            assert got == want
            assert stream.rng.bit_generator.state == state


class TestEvaluate:
    def test_all_correct(self, two_class_catalog):
        table = table_from(two_class_catalog, [[-10.0], [10.0]], labels=[0, 1])
        params = params_from([[[-1.0], [1.0]]], [[0.0, 0.0]], 1, (), 2)
        acc, confusion = evaluate(params, table)
        assert acc == 1.0
        assert confusion.tolist() == [[1, 0], [0, 1]]

    def test_hand_counted_confusion(self, two_class_catalog):
        # truths (0, 1), predictions (1, 1)
        table = table_from(two_class_catalog, [[10.0], [10.0]], labels=[0, 1])
        params = params_from([[[-1.0], [1.0]]], [[0.0, 0.0]], 1, (), 2)
        acc, confusion = evaluate(params, table)
        assert acc == 0.5
        assert confusion.tolist() == [[0, 1], [0, 1]]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_accuracy_equals_trace_over_total(self, seed):
        rng = np.random.default_rng(seed)
        catalog = ClassCatalog(("a", "b", "c"))
        table = table_from(catalog, rng.normal(size=(20, 2)), labels=rng.integers(0, 3, 20))
        params = init_params(ArchSpec(input_dim=2, hidden=(), output_dim=3), seed)
        acc, confusion = evaluate(params, table)
        assert confusion.sum() == 20
        assert acc == pytest.approx(np.trace(confusion) / confusion.sum())

    def test_argmax_tie_breaks_low_index(self, two_class_catalog):
        table = table_from(two_class_catalog, [[0.0]], labels=[1])
        params = params_from([[[0.0], [0.0]]], [[0.0, 0.0]], 1, (), 2)
        _, confusion = evaluate(params, table)
        assert confusion.tolist() == [[0, 0], [1, 0]]  # predicted class 0


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params(ArchSpec(input_dim=5, hidden=(4,), output_dim=3), seed=21)
        path = tmp_path / "model.json"
        save_model(path, params, seed=21)
        loaded, seed = load_model(path)
        assert seed == 21
        assert loaded.arch == params.arch
        for a, b in zip((*loaded.weights, *loaded.biases), (*params.weights, *params.biases)):
            assert np.array_equal(a, b)


class TestSyntheticSanity:
    def test_spread_limits_bracket_accuracy(self):
        arch = ArchSpec(input_dim=2, hidden=(), output_dim=3)
        cfg = TrainConfig(max_epochs=40)

        def trained_accuracy(spread):
            train, _, test = generate_synthetic(classes=3, per_class=200, dim=2, spread=spread, seed=2)
            splits, _ = make_splits(train, SplitSpec(labelled_fraction=0.5, early_stop_fraction=0.05, seed=2))
            _, [lab, es, t] = normalize(splits.labelled, [splits.labelled, splits.early_stop, test])
            params, _ = train_with_early_stopping(arch, lab.features, one_hot(lab.labels, 3), es, cfg)
            acc, _ = evaluate(params, t)
            return acc

        assert trained_accuracy(0.01) > 0.99
        assert abs(trained_accuracy(500.0) - 1.0 / 3.0) < 0.12
