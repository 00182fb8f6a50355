import numpy as np
import pytest

from distillchain import (
    ArchSpec,
    ChainAborted,
    ChainConfig,
    DistillConfig,
    IterationRecord,
    PseudoLabels,
    SplitResult,
    SplitSpec,
    TrainConfig,
    generate_synthetic,
    make_splits,
    normalize,
    one_hot,
    run_chain,
    run_chains,
    select_best,
    train_student,
    train_with_early_stopping,
    evaluate,
    filter_pseudo_labels,
    init_params,
    pseudo_label_pool,
    pseudo_label_quality,
)


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
    train, val, test = generate_synthetic(classes=classes, per_class=per_class, dim=dim, spread=spread, seed=seed)
    splits = make_splits(
        train, SplitSpec(labelled_fraction=labelled, early_stop_fraction=early, seed=seed)
    )
    _, [lab, es, pool, nval, ntest] = normalize(
        splits.labelled, [splits.labelled, splits.early_stop, splits.pool, val, test]
    )
    nsplits = SplitResult(labelled=lab, early_stop=es, pool=pool, audit=splits.audit)
    arch = ArchSpec(input_dim=dim, hidden=(), output_dim=classes)
    return nsplits, nval, ntest, arch


def quick_chain_config(iterations=2, seed=0, **distill):
    fast = TrainConfig(max_epochs=4, steps_per_epoch=20, patience=4)
    return ChainConfig(
        iterations=iterations,
        distill=DistillConfig(**distill) if distill else DistillConfig(per_class_cap=None),
        pretrain=fast,
        finetune=fast,
        seed=seed,
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
        splits, _, _, arch = small_problem()
        with pytest.raises(ValueError, match="non-empty pseudo-label"):
            empty = PseudoLabels(np.empty(0, dtype=np.int64), np.empty((0, 3)))
            train_student(arch, empty, splits, quick_chain_config(), student_seed=0)

    def test_zero_pretrain_equals_finetune_only(self):
        splits, _, _, arch = small_problem(seed=3)
        cfg = quick_chain_config(seed=3)
        cfg = ChainConfig(
            iterations=1,
            distill=cfg.distill,
            pretrain=TrainConfig(max_epochs=0),
            finetune=cfg.finetune,
            seed=3,
        )
        fake = PseudoLabels(splits.pool.ids, np.full((len(splits.pool), 3), 1.0 / 3.0))
        student = train_student(arch, fake, splits, cfg, student_seed=17)

        from dataclasses import replace

        direct, _ = train_with_early_stopping(
            arch,
            splits.labelled.features,
            one_hot(splits.labelled.labels, 3),
            splits.early_stop,
            replace(cfg.finetune, seed=17),
        )
        for a, b in zip((*student.weights, *student.biases), (*direct.weights, *direct.biases)):
            assert np.array_equal(a, b)

    def test_deterministic(self):
        splits, _, _, arch = small_problem(seed=5)
        fake = PseudoLabels(
            splits.pool.ids, np.tile([0.7, 0.2, 0.1], (len(splits.pool), 1))
        )
        cfg = quick_chain_config(seed=5)
        a = train_student(arch, fake, splits, cfg, student_seed=2)
        b = train_student(arch, fake, splits, cfg, student_seed=2)
        for wa, wb in zip((*a.weights, *a.biases), (*b.weights, *b.biases)):
            assert np.array_equal(wa, wb)

    def test_oracle_pseudo_labels_beat_the_teacher(self):
        # a teacher that reveals the pool's truth should give students at
        # least the plain supervised teacher's accuracy, averaged over seeds
        teacher_accs, student_accs = [], []
        for seed in range(5):
            splits, _, ntest, arch = small_problem(seed=seed, labelled=0.05, spread=0.6)
            # ground truth comes from the original table, not the hidden pool
            train, _, _ = generate_synthetic(classes=3, per_class=60, dim=3, spread=0.6, seed=seed)
            truth = train.labels[train.rows_of(splits.pool.ids)]
            oracle = PseudoLabels(splits.pool.ids, one_hot(truth, 3))
            cfg = ChainConfig(
                iterations=1,
                distill=DistillConfig(per_class_cap=None),
                pretrain=TrainConfig(max_epochs=40, patience=10),
                finetune=TrainConfig(max_epochs=40, patience=10, learning_rate=3e-4),
                seed=seed,
            )
            from dataclasses import replace

            teacher, _ = train_with_early_stopping(
                arch,
                splits.labelled.features,
                one_hot(splits.labelled.labels, 3),
                splits.early_stop,
                replace(cfg.finetune, seed=seed),
            )
            student = train_student(arch, oracle, splits, cfg, student_seed=seed + 100)
            teacher_accs.append(evaluate(teacher, ntest)[0])
            student_accs.append(evaluate(student, ntest)[0])
        assert np.mean(student_accs) >= np.mean(teacher_accs)


class TestRunChain:
    def test_record_count_and_unfiltered_pseudo_count(self):
        # 48 training samples: 4 early-stop + 24 labelled leave a 20-sample pool
        splits, nval, ntest, arch = small_problem(seed=1, per_class=20, labelled=0.5, early=0.1)
        assert len(splits.pool) == 20
        cfg = quick_chain_config(iterations=1, seed=1)
        result = run_chain(splits, nval, ntest, arch, cfg)
        assert len(result.records) == 2
        assert result.records[0].pseudo_count == 0
        assert result.records[0].pseudo_agreement is None
        assert result.records[1].pseudo_count == len(splits.pool)
        assert result.seeds == (1, 2)

    def test_selection_dominance(self):
        splits, nval, ntest, arch = small_problem(seed=2)
        result = run_chain(splits, nval, ntest, arch, quick_chain_config(seed=2))
        best = result.records[result.best_iteration]
        assert best.val_accuracy >= result.records[0].val_accuracy
        assert result.best_iteration == select_best(result.records)

    def test_iterations_are_contiguous(self):
        splits, nval, ntest, arch = small_problem(seed=4)
        result = run_chain(splits, nval, ntest, arch, quick_chain_config(iterations=3, seed=4))
        assert [r.iteration for r in result.records] == [0, 1, 2, 3]

    def test_pool_membership_is_stable_across_iterations(self):
        splits, nval, ntest, arch = small_problem(seed=6)
        before_ids = splits.pool.ids.copy()
        run_chain(splits, nval, ntest, arch, quick_chain_config(iterations=2, seed=6))
        assert np.array_equal(splits.pool.ids, before_ids)
        assert splits.pool.labels is None

    def test_deterministic_end_to_end(self):
        splits, nval, ntest, arch = small_problem(seed=7)
        cfg = quick_chain_config(iterations=2, seed=7)
        r1 = run_chain(splits, nval, ntest, arch, cfg)
        r2 = run_chain(splits, nval, ntest, arch, cfg)
        assert [(r.val_accuracy, r.test_accuracy) for r in r1.records] == [
            (r.val_accuracy, r.test_accuracy) for r in r2.records
        ]
        assert r1.best_iteration == r2.best_iteration

    def test_empty_pool_aborts_with_partial_records(self):
        splits, nval, ntest, arch = small_problem(seed=8, labelled=1.0)
        assert len(splits.pool) == 0
        with pytest.raises(ChainAborted) as excinfo:
            run_chain(splits, nval, ntest, arch, quick_chain_config(seed=8))
        assert len(excinfo.value.records) == 1  # the teacher survived
        assert excinfo.value.records[0].iteration == 0



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
            assert np.array_equal(a.pseudo_labels.ids, b.pseudo_labels.ids)
            assert np.array_equal(a.pseudo_labels.soft, b.pseudo_labels.soft)


def reference_student(arch, labels, splits, cfg, seed, warm_start):
    """A student as it was trained before lockstep: pretrained on the pool
    rows its pseudo-labels name, looked up id by id, then fine-tuned."""
    from dataclasses import replace

    start = warm_start
    if cfg.fresh_init_per_student or warm_start is None:
        start = init_params(arch, seed)
    row_of = {sid: row for row, sid in enumerate(splits.pool.ids.tolist())}
    pool_x = splits.pool.features[[row_of[sid] for sid in labels.ids.tolist()]]
    pretrained, _ = train_with_early_stopping(
        arch, pool_x, labels.soft, splits.early_stop, replace(cfg.pretrain, seed=seed), init=start
    )
    lab = splits.labelled
    tuned, _ = train_with_early_stopping(
        arch, lab.features, one_hot(lab.labels, arch.output_dim), splits.early_stop,
        replace(cfg.finetune, seed=seed), init=pretrained,
    )
    return tuned


def reference_chain_records(splits, validation, test, arch, cfg):
    """The chain loop as it ran one cell at a time before lockstep: a
    teacher, then per iteration pseudo-labels, filtering and one student."""
    from dataclasses import replace

    seeds = [cfg.seed + i for i in range(cfg.iterations + 1)]
    lab = splits.labelled
    model, _ = train_with_early_stopping(
        arch, lab.features, one_hot(lab.labels, arch.output_dim), splits.early_stop,
        replace(cfg.finetune, seed=seeds[0]),
    )
    records = []
    labels, agreement = None, None
    for i in range(cfg.iterations + 1):
        if i > 0:
            raw = pseudo_label_pool(model, splits.pool)
            labels = filter_pseudo_labels(raw, cfg.distill, splits.pool.catalog)
            agreement = pseudo_label_quality(labels, splits.pool)[0]
            model = reference_student(arch, labels, splits, cfg, seeds[i], model)
        val_acc, _ = evaluate(model, validation)
        test_acc, confusion = evaluate(model, test)
        records.append(IterationRecord(
            iteration=i, val_accuracy=val_acc, test_accuracy=test_acc,
            pseudo_count=0 if labels is None else len(labels), pseudo_agreement=agreement,
            confusion=confusion, model=model, pseudo_labels=labels,
        ))
    return records


class TestRunChains:
    @staticmethod
    def cells(hidden=()):
        cells, cfgs = [], []
        for seed, labelled in ((11, 0.05), (12, 0.2), (13, 0.1)):
            splits, nval, ntest, arch = small_problem(seed=seed, labelled=labelled, spread=0.6)
            cells.append((splits, nval, ntest))
            cfgs.append(quick_chain_config(iterations=3, seed=seed, per_class_cap=20))
        return cells, ArchSpec(input_dim=3, hidden=hidden, output_dim=3), cfgs

    @pytest.mark.parametrize("hidden", [(), (8,)])
    def test_equals_one_run_chain_per_cell(self, hidden):
        cells, arch, cfgs = self.cells(hidden)
        results = run_chains(cells, arch, cfgs, keep_pseudo_labels=True)
        for (splits, nval, ntest), cfg, got in zip(cells, cfgs, results):
            want = run_chain(splits, nval, ntest, arch, cfg)
            assert (got.best_iteration, got.seeds, got.config) == (
                want.best_iteration, want.seeds, want.config
            )
            assert_same_records(got.records, want.records)
            assert_same_records(
                got.records, reference_chain_records(splits, nval, ntest, arch, cfg)
            )

    def test_pseudo_labels_kept_only_on_request(self):
        cells, arch, cfgs = self.cells()
        kept = run_chains(cells, arch, cfgs, keep_pseudo_labels=True)
        dropped = run_chains(cells, arch, cfgs)
        for a, b in zip(kept, dropped):
            assert all(rec.pseudo_labels is None for rec in b.records)
            assert all(rec.pseudo_labels is not None for rec in a.records[1:])
            assert [r.pseudo_count for r in a.records] == [r.pseudo_count for r in b.records]

    def test_failing_cell_aborts_alone(self):
        cells, arch, cfgs = self.cells()
        empty_pool = small_problem(seed=8, labelled=1.0)[:3]
        cells.insert(1, empty_pool)
        cfgs.insert(1, quick_chain_config(iterations=3, seed=8, per_class_cap=20))
        results = run_chains(cells, arch, cfgs, keep_pseudo_labels=True)
        with pytest.raises(ChainAborted) as alone:
            run_chain(*empty_pool, arch, cfgs[1])
        assert isinstance(results[1], ChainAborted)
        assert str(results[1]) == str(alone.value)
        assert_same_records(results[1].records, alone.value.records)
        for j in (0, 2, 3):
            want = run_chain(*cells[j], arch, cfgs[j])
            assert_same_records(results[j].records, want.records)

    def test_cells_must_share_config_except_seed(self):
        cells, arch, cfgs = self.cells()
        cfgs[2] = ChainConfig(iterations=1, seed=13)
        with pytest.raises(ValueError, match="except seed"):
            run_chains(cells, arch, cfgs)
