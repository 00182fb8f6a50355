import pickle
from dataclasses import replace

import numpy as np
import pytest

from distillchain import (
    ArchSpec,
    ChainAborted,
    ChainConfig,
    DistillConfig,
    IterationRecord,
    NumericError,
    PoolTruth,
    PseudoLabels,
    SplitSpec,
    TrainConfig,
    generate_synthetic,
    make_splits,
    normalize_splits,
    one_hot,
    run_chain,
    run_chains,
    select_best,
    train_lockstep,
    train_student,
    train_with_early_stopping,
    evaluate,
    filter_pseudo_labels,
    init_params,
    pseudo_label_pool,
    pseudo_label_quality,
)
from distillchain import chain


def record(i, val, test=0.0):
    return IterationRecord(
        iteration=i,
        val_accuracy=val,
        test_accuracy=test,
        pseudo_count=0,
        pseudo_agreement=None,
        confusion=np.zeros((2, 2), dtype=np.int64),
    )


def small_problem(seed=0, classes=3, per_class=60, dim=3, spread=0.25, labelled=0.2, early=0.05):
    """Normalized splits, the pool's truth, raw validation and test tables,
    and a softmax-regression architecture."""
    train, val, test = generate_synthetic(classes=classes, per_class=per_class, dim=dim, spread=spread, seed=seed)
    splits, truth = make_splits(
        train, SplitSpec(labelled_fraction=labelled, early_stop_fraction=early, seed=seed)
    )
    arch = ArchSpec(input_dim=dim, hidden=(), output_dim=classes)
    return normalize_splits(splits), truth, val, test, arch


def quick_chain_config(iterations=2, **distill):
    fast = TrainConfig(max_epochs=4, steps_per_epoch=20, patience=4)
    return ChainConfig(
        iterations=iterations,
        distill=DistillConfig(**distill) if distill else DistillConfig(per_class_cap=None),
        pretrain=fast,
        finetune=fast,
    )


class TestSelectBest:
    def test_picks_the_maximum(self):
        assert select_best([record(0, 0.90), record(1, 0.92), record(2, 0.91)]) == 1

    def test_tie_goes_to_earliest(self):
        assert select_best([record(0, 0.90), record(1, 0.90), record(2, 0.90)]) == 0

    def test_single_record(self):
        assert select_best([record(0, 0.5)]) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([])


class TestTrainStudent:
    def test_empty_pseudo_labels_rejected(self):
        splits, _, _, _, arch = small_problem()
        with pytest.raises(ValueError, match="non-empty pseudo-label"):
            empty = PseudoLabels(np.empty(0, dtype=np.int64), np.empty((0, 3)))
            train_student(arch, empty, splits, quick_chain_config(), seed=0)

    def test_zero_pretrain_equals_finetune_only(self):
        splits, _, _, _, arch = small_problem(seed=3)
        cfg = quick_chain_config()
        cfg = ChainConfig(
            iterations=1,
            distill=cfg.distill,
            pretrain=TrainConfig(max_epochs=0),
            finetune=cfg.finetune,
        )
        fake = PseudoLabels(np.arange(len(splits.pool)), np.full((len(splits.pool), 3), 1.0 / 3.0))
        student = train_student(arch, fake, splits, cfg, seed=17)

        direct, _ = train_with_early_stopping(
            arch,
            splits.labelled.features,
            one_hot(splits.labelled.labels, 3),
            splits.early_stop,
            cfg.finetune,
            seed=17,
        )
        for a, b in zip((*student.weights, *student.biases), (*direct.weights, *direct.biases)):
            assert np.array_equal(a, b)

    def test_deterministic(self):
        splits, _, _, _, arch = small_problem(seed=5)
        fake = PseudoLabels(
            np.arange(len(splits.pool)), np.tile([0.7, 0.2, 0.1], (len(splits.pool), 1))
        )
        cfg = quick_chain_config()
        a = train_student(arch, fake, splits, cfg, seed=2)
        b = train_student(arch, fake, splits, cfg, seed=2)
        for wa, wb in zip((*a.weights, *a.biases), (*b.weights, *b.biases)):
            assert np.array_equal(wa, wb)

    def test_warm_start_is_the_start_only_without_fresh_init(self):
        # with fresh_init_per_student, or without a warm_start, a student
        # starts from init_params(arch, seed); otherwise from warm_start
        splits, _, _, _, arch = small_problem(seed=5)
        fake = PseudoLabels(
            np.arange(len(splits.pool)), np.tile([0.7, 0.2, 0.1], (len(splits.pool), 1))
        )
        fresh = quick_chain_config()
        warm = replace(fresh, fresh_init_per_student=False)
        other = init_params(arch, 9)

        def same(p, q):
            return all(np.array_equal(a, b) for a, b in zip((*p.weights, *p.biases), (*q.weights, *q.biases)))

        want = train_student(arch, fake, splits, fresh, seed=2, warm_start=other)
        assert same(train_student(arch, fake, splits, warm, seed=2), want)
        assert same(train_student(arch, fake, splits, warm, seed=2, warm_start=init_params(arch, 2)), want)
        assert not same(train_student(arch, fake, splits, warm, seed=2, warm_start=other), want)

    def test_oracle_pseudo_labels_beat_the_teacher(self):
        # a teacher that reveals the pool's truth should give students at
        # least the plain supervised teacher's accuracy, averaged over seeds
        teacher_accs, student_accs = [], []
        for seed in range(5):
            splits, _, _, test, arch = small_problem(seed=seed, labelled=0.05, spread=0.6)
            ntest = splits.normalized(test)
            # ground truth comes from the original table, not the hidden pool
            train, _, _ = generate_synthetic(classes=3, per_class=60, dim=3, spread=0.6, seed=seed)
            truth = train.labels[splits.pool.rows]
            oracle = PseudoLabels(np.arange(len(splits.pool)), one_hot(truth, 3))
            cfg = ChainConfig(
                iterations=1,
                distill=DistillConfig(per_class_cap=None),
                pretrain=TrainConfig(max_epochs=40, patience=10),
                finetune=TrainConfig(max_epochs=40, patience=10, learning_rate=3e-4),
            )
            teacher, _ = train_with_early_stopping(
                arch,
                splits.labelled.features,
                one_hot(splits.labelled.labels, 3),
                splits.early_stop,
                cfg.finetune,
                seed=seed,
            )
            student = train_student(arch, oracle, splits, cfg, seed=seed + 100)
            teacher_accs.append(evaluate(teacher, ntest)[0])
            student_accs.append(evaluate(student, ntest)[0])
        assert np.mean(student_accs) >= np.mean(teacher_accs)


class TestRunChain:
    def test_record_count_and_unfiltered_pseudo_count(self):
        # 48 training samples: 4 early-stop + 24 labelled leave a 20-sample pool
        splits, truth, val, test, arch = small_problem(seed=1, per_class=20, labelled=0.5, early=0.1)
        assert len(splits.pool) == 20
        cfg = quick_chain_config(iterations=1)
        result = run_chain(splits, truth, val, test, arch, cfg, seed=1)
        assert len(result.records) == 2
        assert result.records[0].pseudo_count == 0
        assert result.records[0].pseudo_agreement is None
        assert result.records[1].pseudo_count == len(splits.pool)
        assert result.seeds == (1, 2)

    def test_selection_dominance(self):
        splits, truth, val, test, arch = small_problem(seed=2)
        result = run_chain(splits, truth, val, test, arch, quick_chain_config(), seed=2)
        best = result.records[result.best_iteration]
        assert best.val_accuracy >= result.records[0].val_accuracy
        assert result.best_iteration == select_best(result.records)

    def test_iterations_are_contiguous(self):
        splits, truth, val, test, arch = small_problem(seed=4)
        result = run_chain(splits, truth, val, test, arch, quick_chain_config(iterations=3), seed=4)
        assert [r.iteration for r in result.records] == [0, 1, 2, 3]

    def test_pool_membership_is_stable_across_iterations(self):
        splits, truth, val, test, arch = small_problem(seed=6)
        before_ids = splits.pool.ids.copy()
        run_chain(splits, truth, val, test, arch, quick_chain_config(iterations=2), seed=6)
        assert np.array_equal(splits.pool.ids, before_ids)
        assert not hasattr(splits.pool, "labels")

    def test_the_truth_moves_nothing_but_the_agreement(self):
        # the pool's truth reaches the diagnostics alone: relabelling it
        # changes the scored agreement and nothing a chain trains or records
        splits, truth, val, test, arch = small_problem(seed=9, labelled=0.1, spread=0.6)
        cfg = quick_chain_config(iterations=3)
        relabelled = PoolTruth(truth.catalog, (truth.labels + 1) % 3)
        a = run_chain(splits, truth, val, test, arch, cfg, seed=9)
        b = run_chain(splits, relabelled, val, test, arch, cfg, seed=9)
        assert [r.pseudo_agreement for r in a.records] != [r.pseudo_agreement for r in b.records]
        unscored = [replace(r, pseudo_agreement=None) for r in b.records]
        assert_same_records([replace(r, pseudo_agreement=None) for r in a.records], unscored)

    def test_deterministic_end_to_end(self):
        splits, truth, val, test, arch = small_problem(seed=7)
        cfg = quick_chain_config(iterations=2)
        r1 = run_chain(splits, truth, val, test, arch, cfg, seed=7)
        r2 = run_chain(splits, truth, val, test, arch, cfg, seed=7)
        assert [(r.val_accuracy, r.test_accuracy) for r in r1.records] == [
            (r.val_accuracy, r.test_accuracy) for r in r2.records
        ]
        assert r1.best_iteration == r2.best_iteration

    def test_empty_pool_aborts_with_partial_records(self):
        splits, truth, val, test, arch = small_problem(seed=8, labelled=1.0)
        assert len(splits.pool) == 0
        with pytest.raises(ChainAborted) as excinfo:
            run_chain(splits, truth, val, test, arch, quick_chain_config(), seed=8)
        assert len(excinfo.value.records) == 1  # the teacher survived
        assert excinfo.value.records[0].iteration == 0

    def test_an_abort_survives_a_pickle_round_trip(self):
        # a worker process sends its cells' aborts back to the sweep by pickle
        records = (record(0, 0.5, 0.25), record(1, 0.75, 0.5))
        sent = ChainAborted(NumericError("non-finite training loss at epoch 0"), records)
        got = pickle.loads(pickle.dumps(sent))
        assert type(got) is ChainAborted and str(got) == str(sent)
        assert type(got.__cause__) is NumericError and str(got.__cause__) == str(sent.__cause__)
        assert [(r.iteration, r.val_accuracy, r.test_accuracy) for r in got.records] == [
            (0, 0.5, 0.25), (1, 0.75, 0.5)
        ]
        assert all(np.array_equal(a.confusion, b.confusion) for a, b in zip(got.records, records))



def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.iteration, a.val_accuracy, a.test_accuracy, a.pseudo_count, a.pseudo_agreement) == (
            b.iteration, b.val_accuracy, b.test_accuracy, b.pseudo_count, b.pseudo_agreement
        )
        assert np.array_equal(a.confusion, b.confusion)
        for x, y in zip((*a.model.weights, *a.model.biases), (*b.model.weights, *b.model.biases)):
            assert np.array_equal(x, y)
        assert (a.pseudo_labels is None) == (b.pseudo_labels is None)
        if a.pseudo_labels is not None:
            assert np.array_equal(a.pseudo_labels.positions, b.pseudo_labels.positions)
            assert np.array_equal(a.pseudo_labels.soft, b.pseudo_labels.soft)


def reference_student(arch, labels, splits, cfg, seed, warm_start):
    """A student as it was trained before lockstep: pretrained on a
    normalized copy of the pool rows its pseudo-labels name, looked up
    position by position, then fine-tuned."""
    start = warm_start
    if cfg.fresh_init_per_student or warm_start is None:
        start = init_params(arch, seed)
    pool, norm = splits.pool, splits.pool.normalizer
    rows = pool.rows.tolist()
    pool_x = (pool.source[[rows[pos] for pos in labels.positions.tolist()]] - norm.mean) / norm.std
    pretrained, _ = train_with_early_stopping(
        arch, pool_x, labels.soft, splits.early_stop, cfg.pretrain, init=start, seed=seed
    )
    lab = splits.labelled
    tuned, _ = train_with_early_stopping(
        arch, lab.features, one_hot(lab.labels, arch.output_dim), splits.early_stop,
        cfg.finetune, init=pretrained, seed=seed,
    )
    return tuned


def reference_chain_records(splits, truth, validation, test, seed, arch, cfg):
    """The chain loop as it ran one cell at a time before lockstep: a
    teacher, then per iteration pseudo-labels, filtering and one student,
    each member scored on validation and test normalized up front."""
    validation, test = (splits.pool.normalizer.apply(t) for t in (validation, test))
    seeds = [seed + i for i in range(cfg.iterations + 1)]
    lab = splits.labelled
    model, _ = train_with_early_stopping(
        arch, lab.features, one_hot(lab.labels, arch.output_dim), splits.early_stop,
        cfg.finetune, seed=seeds[0],
    )
    records = []
    labels, agreement = None, None
    for i in range(cfg.iterations + 1):
        if i > 0:
            raw = pseudo_label_pool(model, splits.pool)
            labels = filter_pseudo_labels(raw, cfg.distill, splits.pool.catalog)
            agreement = pseudo_label_quality(labels, truth)[0]
            model = reference_student(arch, labels, splits, cfg, seeds[i], model)
        val_acc, _ = evaluate(model, validation)
        test_acc, confusion = evaluate(model, test)
        records.append(IterationRecord(
            iteration=i, val_accuracy=val_acc, test_accuracy=test_acc,
            pseudo_count=0 if labels is None else len(labels), pseudo_agreement=agreement,
            confusion=confusion, model=model, pseudo_labels=labels,
        ))
    return records


def run_alone(cell, arch, cfg):
    """``run_chain`` on one (splits, truth, validation, test, seed) cell."""
    *tables, seed = cell
    return run_chain(*tables, arch, cfg, seed)


class TestRunChains:
    @staticmethod
    def cells(hidden=()):
        cells = []
        for seed, labelled in ((11, 0.05), (12, 0.2), (13, 0.1)):
            splits, truth, val, test, arch = small_problem(seed=seed, labelled=labelled, spread=0.6)
            cells.append((splits, truth, val, test, seed))
        cfg = quick_chain_config(iterations=3, per_class_cap=20)
        return cells, ArchSpec(input_dim=3, hidden=hidden, output_dim=3), cfg

    @pytest.mark.parametrize(
        "hidden, fresh_init",
        [((), True), ((8,), True), ((), False), ((8,), False)],
        ids=["hidden0", "hidden1", "hidden0-warm", "hidden1-warm"],
    )
    def test_equals_one_run_chain_per_cell(self, hidden, fresh_init):
        # without fresh_init_per_student each student starts from the last
        # member's weights, as reference_student does on its own
        cells, arch, cfg = self.cells(hidden)
        cfg = replace(cfg, fresh_init_per_student=fresh_init)
        results = run_chains(cells, arch, cfg, keep_pseudo_labels=True)
        for cell, got in zip(cells, results):
            want = run_alone(cell, arch, cfg)
            assert (got.best_iteration, got.seeds) == (want.best_iteration, want.seeds)
            assert_same_records(got.records, want.records)
            assert_same_records(
                got.records, reference_chain_records(*cell, arch, cfg)
            )

    @pytest.mark.parametrize("hidden", [(), (4,)])
    def test_a_chain_without_students_is_its_teacher(self, hidden):
        # the baseline sweep runs its cells as chains of zero students
        cells, arch, cfg = self.cells(hidden)
        teachers = run_chains(cells, arch, replace(cfg, iterations=0))
        chains = run_chains(cells, arch, cfg)
        for got, want in zip(teachers, chains, strict=True):
            assert (got.best_iteration, got.seeds) == (0, want.seeds[:1])
            assert_same_records(got.records, want.records[:1])

    def test_pseudo_labels_kept_only_on_request(self):
        cells, arch, cfg = self.cells()
        kept = run_chains(cells, arch, cfg, keep_pseudo_labels=True)
        dropped = run_chains(cells, arch, cfg)
        for a, b in zip(kept, dropped):
            assert all(rec.pseudo_labels is None for rec in b.records)
            assert all(rec.pseudo_labels is not None for rec in a.records[1:])
            assert [r.pseudo_count for r in a.records] == [r.pseudo_count for r in b.records]

    def test_failing_cell_aborts_alone(self):
        cells, arch, cfg = self.cells()
        empty_pool = (*small_problem(seed=8, labelled=1.0)[:4], 8)
        cells.insert(1, empty_pool)
        results = run_chains(cells, arch, cfg, keep_pseudo_labels=True)
        with pytest.raises(ChainAborted) as alone:
            run_alone(empty_pool, arch, cfg)
        assert isinstance(results[1], ChainAborted)
        assert str(results[1]) == str(alone.value)
        assert_same_records(results[1].records, alone.value.records)
        for j in (0, 2, 3):
            want = run_alone(cells[j], arch, cfg)
            assert_same_records(results[j].records, want.records)

    def test_negative_seed_aborts_its_cell_alone(self):
        cells, arch, cfg = self.cells()
        cells[1] = (*cells[1][:4], -1)
        results = run_chains(cells, arch, cfg, keep_pseudo_labels=True)
        assert isinstance(results[1], ChainAborted)
        assert results[1].records == () and isinstance(results[1].__cause__, ValueError)
        for j in (0, 2):
            assert_same_records(results[j].records, run_alone(cells[j], arch, cfg).records)

    def test_training_failure_aborts_its_cell_alone(self, monkeypatch):
        # cell 1's student fails to pretrain at iteration 2 (the fourth
        # lockstep round); the error is thrown into its chain alone
        cells, arch, cfg = self.cells()
        boom, sizes = NumericError("boom"), []

        def failing_lockstep(arch, jobs):
            sizes.append(len(jobs))
            outcomes = train_lockstep(arch, jobs)
            if len(sizes) == 4:
                outcomes[1] = boom
            return outcomes

        monkeypatch.setattr(chain, "train_lockstep", failing_lockstep)
        results = run_chains(cells, arch, cfg, keep_pseudo_labels=True)
        monkeypatch.undo()
        assert sizes == [3, 3, 3, 3, 2, 2, 2]
        assert isinstance(results[1], ChainAborted)
        assert str(results[1]) == "chain aborted at iteration 2: boom"
        assert results[1].__cause__ is boom
        assert_same_records(results[1].records, run_alone(cells[1], arch, cfg).records[:2])
        for j in (0, 2):
            assert_same_records(results[j].records, run_alone(cells[j], arch, cfg).records)
