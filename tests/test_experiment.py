import itertools
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from distillchain import (
    ChainConfig,
    ChainResult,
    DataFiles,
    ExperimentConfig,
    NumericError,
    RunRow,
    SyntheticSpec,
    TableParseError,
    TraceRow,
    TrainConfig,
    aggregate_runs,
    chain,
    derive_seed,
    emit_outputs,
    evaluate,
    experiment,
    filter_pseudo_labels,
    generate_synthetic,
    load_model,
    pseudo_label_pool,
    read_table,
    run_baseline_sweep,
    run_chain_experiment,
    train_lockstep,
    write_table,
)
from distillchain.dataset import classes_path
from distillchain.reports import fraction_tag, read_rows, render_chain_svg

from conftest import SUMMARY_HEADER, blank_label, rare_class_tables, tiny_config


def row(mode, fraction, run, val, test, status="ok"):
    return RunRow(
        mode=mode, fraction=fraction, run=run, seed=0, status=status,
        val_accuracy=val, test_accuracy=test,
    )


class TestAggregateRuns:
    def test_constant_values(self):
        rows = [row("baseline", 0.1, i, 0.9, 0.9) for i in range(3)]
        summary = aggregate_runs(rows)
        cell = summary.cells[0]
        assert (cell.mean, cell.std, cell.min, cell.max, cell.n) == (0.9, 0.0, 0.9, 0.9, 3)

    def test_two_value_sample_std(self):
        rows = [row("baseline", 0.1, 0, 0.8, 0.8), row("baseline", 0.1, 1, 1.0, 1.0)]
        summary = aggregate_runs(rows)
        cell = summary.cells[0]
        assert cell.mean == pytest.approx(0.9)
        assert cell.std == pytest.approx(0.141421, abs=1e-6)

    def test_single_value_flagged(self):
        summary = aggregate_runs([row("baseline", 0.1, 0, 0.7, 0.6)])
        assert summary.cells[0].std == 0.0
        assert summary.cells[0].note == "n=1"
        assert summary.cells[0].n == 1

    def test_empty_group_stays_visible(self):
        summary = aggregate_runs([row("chain_best", 0.5, 0, None, None, status="skipped: empty pool")])
        assert all(c.note == "no data" and c.n == 0 for c in summary.cells)

    def test_min_mean_max_ordering(self):
        rng = np.random.default_rng(0)
        rows = [row("baseline", 0.1, i, float(v), float(v)) for i, v in enumerate(rng.uniform(0, 1, 7))]
        cell = aggregate_runs(rows).cells[0]
        assert cell.min <= cell.mean <= cell.max

    def test_any_row_order_gives_the_same_summary(self):
        # 0.1 + 0.2 + 0.3 sums to 0.6000000000000001 and 0.3 + 0.2 + 0.1 to 0.6
        rows = [row("baseline", 0.1, i, v, v) for i, v in enumerate((0.1, 0.2, 0.3))]
        summary = aggregate_runs(rows)
        assert all(aggregate_runs(order) == summary for order in itertools.permutations(rows))

    def test_detail_rows_sorted(self):
        rows = [
            row("chain_best", 0.5, 1, 0.5, 0.5),
            row("baseline", 0.1, 1, 0.5, 0.5),
            row("baseline", 0.1, 0, 0.5, 0.5),
        ]
        details = aggregate_runs(rows).details
        assert [(r.fraction, r.mode, r.run) for r in details] == [
            (0.1, "baseline", 0), (0.1, "baseline", 1), (0.5, "chain_best", 1)
        ]


class TestSeedDerivation:
    def test_deterministic_and_role_separated(self):
        a = derive_seed(7, 1, 0, 0)
        assert a == derive_seed(7, 1, 0, 0)
        assert a != derive_seed(7, 2, 0, 0)
        assert a != derive_seed(8, 1, 0, 0)
        assert a != derive_seed(7, 1, 0, 1)


@pytest.mark.parametrize("sweep", [run_baseline_sweep, run_chain_experiment])
def test_files_source_reads_each_table_once(tmp_path, monkeypatch, sweep):
    paths = [str(tmp_path / f"{name}.csv") for name in ("train", "validation", "test")]
    for path, table in zip(paths, generate_synthetic(3, 40, 3, 0.4, seed=11)):
        write_table(path, table)
    calls = []

    def counting_read_table(path):
        calls.append(path)
        return read_table(path)

    monkeypatch.setattr(experiment, "read_table", counting_read_table)
    sweep(tiny_config(tmp_path, source=DataFiles(*paths), fractions=(0.2,), runs=1))
    assert sorted(calls) == sorted(paths)


@pytest.mark.parametrize("sweep", [run_baseline_sweep, run_chain_experiment])
def test_workers_read_no_input_file(tmp_path, monkeypatch, sweep):
    # the tables and their sidecars are deleted as soon as the sweep has
    # read them, so a worker process that reads the inputs again fails
    paths = [tmp_path / f"{name}.csv" for name in ("train", "validation", "test")]

    def write_inputs():
        for path, table in zip(paths, generate_synthetic(3, 40, 3, 0.4, seed=11)):
            write_table(path, table)

    written = {}
    for jobs in (1, 2):
        write_inputs()
        out = tmp_path / f"jobs{jobs}"
        cfg = tiny_config(out, source=DataFiles(*map(str, paths)), fractions=(0.1, 0.2, 1.0), jobs=jobs)
        if jobs == 2:
            read_once = experiment.prepare_dataset

            def read_then_delete(cfg):
                dataset = read_once(cfg)
                for path in paths:
                    path.unlink()
                    classes_path(path).unlink()
                return dataset

            monkeypatch.setattr(experiment, "prepare_dataset", read_then_delete)
        sweep(cfg)
        written[jobs] = {
            p.name: p.read_bytes() for p in sorted((out / "out").iterdir()) if p.name != "config_resolved.cfg"
        }
    assert not any(path.exists() or classes_path(path).exists() for path in paths)
    assert "runs.csv" in written[1] and written[2] == written[1]


@pytest.mark.parametrize("sweep", [run_baseline_sweep, run_chain_experiment])
@pytest.mark.parametrize("unlabelled", ["train", "validation", "test"])
def test_unlabelled_table_fails_before_training(tmp_path, monkeypatch, sweep, unlabelled):
    paths = {name: tmp_path / f"{name}.csv" for name in ("train", "validation", "test")}
    for path, table in zip(paths.values(), generate_synthetic(3, 40, 3, 0.4, seed=11)):
        write_table(path, table)
    blank_label(paths[unlabelled], 4)

    def no_training(*args, **kwargs):
        raise AssertionError("trained with an unlabelled table")

    # both sweeps train only through run_chains
    monkeypatch.setattr(chain, "train_lockstep", no_training)
    cfg = tiny_config(tmp_path, source=DataFiles(*map(str, paths.values())))
    with pytest.raises(TableParseError) as excinfo:
        sweep(cfg)
    assert str(excinfo.value) == f"{paths[unlabelled]}: line 4: no label; every row must be labelled"


@pytest.mark.parametrize("sweep", [run_baseline_sweep, run_chain_experiment])
def test_uncoverable_early_stop_draw_is_skipped_not_crashed(tmp_path, sweep):
    paths = [str(tmp_path / f"{name}.csv") for name in ("train", "validation", "test")]
    for path, table in zip(paths, rare_class_tables()):
        write_table(path, table)
    cfg = tiny_config(
        tmp_path, source=DataFiles(*paths), fractions=(0.2,), runs=1, early_stop_fraction=0.02
    )
    summary = sweep(cfg)
    assert summary.details
    assert all(r.status.startswith("skipped: no early-stop draw of 4 rows") for r in summary.details)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no warning: the fault is reported
@pytest.mark.parametrize("sweep", [run_baseline_sweep, run_chain_experiment])
def test_overflowing_labelled_statistics_are_skipped_not_crashed(tmp_path, sweep):
    # finite features whose deviations from the mean overflow when squared
    train, validation, test = generate_synthetic(3, 40, 3, 0.4, seed=11)
    features = train.features.copy()
    features[:, 0] *= 1e160
    paths = [str(tmp_path / f"{name}.csv") for name in ("train", "validation", "test")]
    for path, table in zip(paths, (replace(train, features=features), validation, test)):
        write_table(path, table)
    summary = sweep(tiny_config(tmp_path, source=DataFiles(*paths), fractions=(0.2,)))
    assert summary.details
    assert all(r.status == "skipped: mean and std must be finite" for r in summary.details)


def test_mismatched_class_sidecars_are_rejected(tmp_path):
    paths = [str(tmp_path / f"{name}.csv") for name in ("train", "validation", "test")]
    for path, table in zip(paths, generate_synthetic(3, 40, 3, 0.4, seed=11)):
        write_table(path, table)
    (tmp_path / "validation.classes").write_text("c2,c1,c0\n", encoding="utf-8")
    cfg = tiny_config(tmp_path, source=DataFiles(*paths))
    with pytest.raises(ValueError) as excinfo:
        experiment.prepare_dataset(cfg)
    assert paths[0] in str(excinfo.value) and paths[1] in str(excinfo.value)


def swept_files(sweep, out, jobs=1, cap=None, groups=None):
    """The files, bar the config echo, of a tiny sweep of 9 cells (3
    fractions, 3 runs: with 2 runs a mean sums in either order alike) into
    ``out``, under a group cap of ``cap`` and, when given, with its cells
    grouped by ``groups`` (cells -> their groups) instead of _cell_groups."""
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(experiment, "_GROUP_CELLS", cap)
        if groups is not None:
            patch.setattr(experiment, "_cell_groups", lambda cells, jobs: groups(cells))
        sweep(tiny_config(out, fractions=(0.1, 0.2, 1.0), runs=3, jobs=jobs))
    return {p.name: p.read_bytes() for p in sorted((out / "out").iterdir()) if p.name != "config_resolved.cfg"}


@pytest.fixture(scope="module")
def contiguous(tmp_path_factory):
    """The files of a sweep function's contiguous jobs = 1 sweep, every
    cell in one lockstep group, made once per module."""
    made = {}

    def files(sweep):
        if sweep not in made:
            made[sweep] = swept_files(sweep, tmp_path_factory.mktemp("contiguous"))
        return made[sweep]

    return files


@pytest.mark.parametrize("sweep", [run_baseline_sweep, run_chain_experiment])
def test_lockstep_groups_do_not_change_bytes(tmp_path, sweep, contiguous):
    # jobs = 2 and 3 train the nine cells as contiguous groups of four and
    # five, and of three; a group cap of 4 and of 1 splits the jobs = 1
    # sweep into groups of three and of one; then the cells reversed in one
    # group, and dealt round robin into two, at jobs 1 and 2
    def reversed_in_one(cells):
        return [cells[::-1]]

    def round_robin(cells):
        return [cells[g::2] for g in range(2)]

    variants = [
        dict(jobs=2), dict(jobs=3), dict(cap=4), dict(cap=1),
        *(dict(jobs=jobs, groups=groups) for groups in (reversed_in_one, round_robin) for jobs in (1, 2)),
    ]
    reference = contiguous(sweep)
    assert "runs.csv" in reference and "confusion_0.1_2.csv" in reference
    for i, variant in enumerate(variants):
        assert swept_files(sweep, tmp_path / str(i), **variant) == reference, variant


@pytest.mark.parametrize("sweep", [run_baseline_sweep, run_chain_experiment])
@given(order=st.permutations(range(9)), cuts=st.sets(st.integers(1, 8), max_size=3), jobs=st.sampled_from([1, 2]))
@seed(31)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_any_cell_order_and_grouping_writes_the_same_bytes(tmp_path_factory, contiguous, sweep, order, cuts, jobs):
    # a permutation of the nine cells, cut into one to four groups
    bounds = [0, *sorted(cuts), len(order)]

    def groups(cells):
        return [[cells[i] for i in order[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]

    assert swept_files(sweep, tmp_path_factory.mktemp("drawn"), jobs, groups=groups) == contiguous(sweep)


@pytest.mark.parametrize("sweep", ["baseline", "chain"])
def test_aborted_cells_do_not_change_bytes_across_jobs(tmp_path, sweep):
    # at jobs = 2 every abort comes back from a worker process by pickle
    blow_up = TrainConfig(learning_rate=1.7976931348623157e308, max_epochs=3, steps_per_epoch=10)
    written = []
    for jobs in (1, 2):
        cfg = tiny_config(tmp_path / str(jobs), jobs=jobs)
        if sweep == "baseline":
            run_baseline_sweep(replace(cfg, train=blow_up))
        else:
            run_chain_experiment(replace(cfg, chain=replace(cfg.chain, pretrain=blow_up)))
        out = Path(cfg.out_dir)
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "config_resolved.cfg"})
    assert written[0] == written[1]
    # a baseline's skip row names the teacher's own error, a chain's the
    # abort; a chain has no pool at fraction 1.0
    blown = "non-finite training loss at epoch 0"
    statuses = {r.status for r in read_rows(tmp_path / "1" / "out" / "runs.csv", RunRow)}
    if sweep == "baseline":
        assert statuses == {f"skipped: {blown}"}
    else:
        assert statuses == {f"skipped: chain aborted at iteration 1: {blown}", "skipped: empty pool"}


def test_cell_groups_are_contiguous_capped_and_one_per_worker():
    cap = experiment._GROUP_CELLS
    for n in range(1, 3 * cap + 2):
        cells = list(range(n))
        for jobs in (1, 2, 3, n + 1):
            groups = experiment._cell_groups(cells, jobs)
            assert [c for group in groups for c in group] == cells
            assert all(0 < len(group) <= cap for group in groups)
            assert len(groups) == max(min(jobs, n), -(-n // cap))
            assert max(map(len, groups)) - min(map(len, groups)) <= 1


@pytest.mark.parametrize("sweep", ["baseline", "chain"])
def test_a_group_run_writes_no_file(tmp_path, sweep):
    # a worker's function runs, models and pseudo-labels kept, with no out dir
    cfg = tiny_config(tmp_path / "absent", save_models=True, dump_pseudo_labels=True)
    chain_cfg = ChainConfig(iterations=0, finetune=cfg.train) if sweep == "baseline" else cfg.chain
    cells = [(0, 0), (0, 1), (1, 0)]
    dataset = experiment.prepare_dataset(cfg)
    outputs = experiment._run_cells(dataset, cfg, chain_cfg, cells)
    assert not any(tmp_path.iterdir())
    assert [output[0] for output in outputs] == cells
    # each output is its cell's run alone
    for cell, pool_ids, outcome in outputs:
        [(_, alone_ids, alone)] = experiment._run_cells(dataset, cfg, chain_cfg, [cell])
        assert type(outcome) is type(alone) and np.array_equal(pool_ids, alone_ids)
        if isinstance(alone, ChainResult):
            assert outcome.seeds == alone.seeds and outcome.seeds[0] == experiment._cell_seed(cfg, chain_cfg, *cell)
            assert [r.test_accuracy for r in outcome.records] == [r.test_accuracy for r in alone.records]
    members = cfg.chain.iterations + 1 if sweep == "chain" else 1
    for _, _, result in outputs[:2]:
        assert isinstance(result, ChainResult) and len(result.records) == members
        assert all(rec.pseudo_labels is not None for rec in result.records[1:])
    # a chain has no pool at fraction 1.0, while a teacher trains there
    _, _, last = outputs[2]
    assert (str(last) == "empty pool") if sweep == "chain" else isinstance(last, ChainResult)


@pytest.mark.parametrize("role", [experiment._ROLE_CHAIN, experiment._ROLE_TRAIN])
def test_prepared_cells_hold_no_copy_of_the_pool(role):
    # each cell holds row indices into the one train table, not a copy of
    # its pool, validation or test features
    cfg = ExperimentConfig(source=SyntheticSpec(classes=3, per_class=1000, dim=16), fractions=(0.01,), runs=4)
    dataset = experiment.prepare_dataset(cfg)
    cells = [(0, run) for run in range(cfg.runs)]
    chain_cfg = cfg.chain if role == experiment._ROLE_CHAIN else ChainConfig(iterations=0, finetune=cfg.train)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prepared = [experiment._cell_splits(dataset[0], cfg, chain_cfg, *cell) for cell in cells]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(prepared) == len(cells)
    pool_matrix = len(prepared[0][0].pool) * dataset[0].dim * 8
    assert grown < len(cells) * pool_matrix


class TestBaselineSweep:
    def test_full_fraction_trains_and_counts(self, tmp_path):
        cfg = tiny_config(tmp_path)
        summary = run_baseline_sweep(cfg)
        ok_rows = [r for r in summary.details if r.ok]
        assert len(ok_rows) == 4  # both fractions x both runs, incl. 1.0
        by_cell = {(c.fraction, c.metric): c for c in summary.cells}
        assert by_cell[(0.2, "val_accuracy")].n == 2
        out = tmp_path / "out"
        assert (out / "summary.csv").exists()
        assert (out / "runs.csv").exists()
        assert (out / "traces.csv").read_text().splitlines() == [
            "run,fraction,iteration,val_accuracy,test_accuracy,pseudo_count,pseudo_agreement"
        ]
        assert (out / "confusion_0.2_0.csv").exists()
        assert (out / "confusion_1_1.csv").exists()
        assert (out / "config_resolved.cfg").exists()

    def test_infeasible_fraction_is_skipped_not_crashed(self, tmp_path):
        cfg = tiny_config(tmp_path, fractions=(0.001, 0.2))
        summary = run_baseline_sweep(cfg)
        skipped = [r for r in summary.details if not r.ok]
        assert len(skipped) == 2
        assert all(r.fraction == 0.001 and r.status.startswith("skipped:") for r in skipped)
        text = (tmp_path / "out" / "runs.csv").read_text()
        assert "skipped:" in text

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the skip rows report it
    def test_training_blow_up_is_skipped_not_crashed(self, tmp_path):
        blow_up = TrainConfig(learning_rate=1e300, max_epochs=3, steps_per_epoch=10)
        cfg = tiny_config(tmp_path, arch_hidden=(4,), train=blow_up)
        summary = run_baseline_sweep(cfg)
        assert len(summary.details) == 4
        assert all(r.status.startswith("skipped: non-finite") for r in summary.details)
        assert "skipped:" in (tmp_path / "out" / "runs.csv").read_text()

    def test_model_checkpoints_score_their_rows(self, tmp_path):
        cfg = tiny_config(tmp_path, fractions=(0.001, 0.2, 1.0), save_models=True)
        summary = run_baseline_sweep(cfg)
        out = tmp_path / "out"
        dataset = experiment.prepare_dataset(cfg)
        ok = [r for r in summary.details if r.ok]
        assert len(ok) == 4 and len(summary.details) == 6
        assert sorted(p.name for p in out.glob("model_*.json")) == sorted(
            f"model_{fraction_tag(r.fraction)}_{r.run}_iter0.json" for r in ok
        )
        for r in ok:
            params, seed = load_model(out / f"model_{fraction_tag(r.fraction)}_{r.run}_iter0.json")
            cell = (cfg.fractions.index(r.fraction), r.run)
            teacher = ChainConfig(iterations=0, finetune=cfg.train)
            splits, _ = experiment._cell_splits(dataset[0], cfg, teacher, *cell)
            assert seed == r.seed
            assert evaluate(params, splits.normalized(dataset[2]))[0] == r.test_accuracy


class TestChainExperiment:
    def test_trace_counts_and_skips(self, tmp_path):
        cfg = tiny_config(tmp_path)
        summary = run_chain_experiment(cfg)
        traces = read_rows(tmp_path / "out" / "traces.csv", TraceRow)
        # fraction 0.2 runs chains; fraction 1.0 is skipped (empty pool)
        assert len(traces) == cfg.runs * (cfg.chain.iterations + 1)
        skipped = [r for r in summary.details if not r.ok]
        assert {r.fraction for r in skipped} == {1.0}
        assert all("empty pool" in r.status for r in skipped)
        assert (tmp_path / "out" / "chain_curves.svg").exists()

    def test_an_aborted_chain_skips_its_cell_alone(self, tmp_path, monkeypatch):
        # the first pretraining round (the second lockstep call) fails its
        # first job, cell (0.2, 0)'s, and trains the rest as usual
        calls = []

        def failing_first_pretraining(arch, jobs):
            calls.append(len(jobs))
            if len(calls) != 2:
                return train_lockstep(arch, jobs)
            return [NumericError("boom"), *train_lockstep(arch, jobs[1:])]

        run_chain_experiment(tiny_config(tmp_path / "plain"))
        monkeypatch.setattr(chain, "train_lockstep", failing_first_pretraining)
        summary = run_chain_experiment(tiny_config(tmp_path / "aborted"))
        assert calls[:2] == [2, 2]
        plain, aborted = tmp_path / "plain" / "out", tmp_path / "aborted" / "out"

        def lines(out, name, at, cell):
            """The lines of ``name`` whose two columns from ``at`` are ``cell``."""
            rows = (out / name).read_text().splitlines()
            return [line for line in rows if line.split(",")[at : at + 2] == cell]

        status = "skipped: chain aborted at iteration 1: boom"
        assert {r.mode: r.status for r in summary.details if (r.fraction, r.run) == (0.2, 0)} == {
            "chain_best": status, "chain_final": status,
        }
        assert lines(aborted, "traces.csv", 0, ["0", "0.2"]) == []
        assert not (aborted / "confusion_0.2_0.csv").exists()
        # runs.csv leads with mode, fraction, run; traces.csv with run, fraction
        for name, at, cell in (("runs.csv", 1, ["0.2", "1"]), ("traces.csv", 0, ["1", "0.2"])):
            assert lines(aborted, name, at, cell) == lines(plain, name, at, cell) != []
        assert (aborted / "confusion_0.2_1.csv").read_bytes() == (plain / "confusion_0.2_1.csv").read_bytes()
        rows = [line.split(",") for line in (aborted / "summary.csv").read_text().splitlines()]
        assert {tuple(row[-2:]) for row in rows if row[1] == "0.2"} == {("1", "n=1")}

    def test_selection_dominance_per_run(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_chain_experiment(cfg)
        traces = read_rows(tmp_path / "out" / "traces.csv", TraceRow)
        runs_rows = read_rows(tmp_path / "out" / "runs.csv", RunRow)
        teachers = {(t.fraction, t.run): t.val_accuracy for t in traces if t.iteration == 0}
        for r in runs_rows:
            if r.mode == "chain_best" and r.ok:
                assert r.val_accuracy >= teachers[(r.fraction, r.run)]

    def test_jobs_do_not_change_bytes(self, tmp_path, monkeypatch):
        # every file, the per-cell checkpoints and pseudo-label dumps too, is
        # the same at jobs = 1 and 2, bar the jobs line of the config echo
        cell_files = dict(save_models=True, dump_pseudo_labels=True)
        for case, extra in (("plain", {}), ("cell_files", cell_files)):
            written = []
            for jobs in (1, 2):
                (tmp_path / f"{case}{jobs}").mkdir()
                monkeypatch.chdir(tmp_path / f"{case}{jobs}")  # one relative out dir, one echo
                run_chain_experiment(tiny_config(tmp_path, out_dir="out", jobs=jobs, **extra))
                files = {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}
                echo = files.pop("config_resolved.cfg").decode().splitlines()
                written.append((files, [line for line in echo if not line.startswith("jobs = ")]))
            assert written[0] == written[1]
            names = written[0][0]
            assert "runs.csv" in names and "confusion_0.2_1.csv" in names
            assert ("model_0.2_1_iter2.json" in names and "pseudo_0.2_1_iter2.csv" in names) == bool(extra)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "a")
        cfg2 = tiny_config(tmp_path / "b")
        run_chain_experiment(cfg1)
        run_chain_experiment(cfg2)
        for name in ("summary.csv", "runs.csv", "traces.csv", "chain_curves.svg"):
            assert (tmp_path / "a" / "out" / name).read_bytes() == (
                tmp_path / "b" / "out" / name
            ).read_bytes()

    def test_pseudo_label_dump(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, fractions=(0.2,), runs=1, dump_pseudo_labels=True, save_models=True)
        cfg = replace(cfg, chain=replace(cfg.chain, iterations=3))
        calls = []

        def counting_pool(params, pool):
            calls.append(len(pool))
            return pseudo_label_pool(params, pool)

        for module in (chain, experiment):
            monkeypatch.setattr(module, "pseudo_label_pool", counting_pool, raising=False)
        run_chain_experiment(cfg)
        assert len(calls) == 3  # one relabelling per student; the dump reuses them

        # Reference: relabel the pool with each saved chain member, as the
        # dump did before students kept their pseudo-labels.
        out = tmp_path / "out"
        dataset = experiment.prepare_dataset(cfg)
        splits, _ = experiment._cell_splits(dataset[0], cfg, cfg.chain, 0, 0)
        for i in range(1, 4):
            model, _ = load_model(out / f"model_0.2_0_iter{i - 1}.json")
            labels = filter_pseudo_labels(
                pseudo_label_pool(model, splits.pool), cfg.chain.distill, splits.pool.catalog
            )
            lines = ["sample_id,top_class,confidence,p0,p1,p2"] + [
                f"{sid},{top},{conf!r}," + ",".join(map(repr, soft))
                for sid, top, conf, soft in zip(
                    splits.pool.ids[labels.positions].tolist(), labels.top.tolist(),
                    labels.confidence.tolist(), labels.soft.tolist(),
                )
            ]
            dump = out / f"pseudo_0.2_0_iter{i}.csv"
            assert dump.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        assert not (out / "pseudo_0.2_0_iter4.csv").exists()

    def test_model_checkpoints(self, tmp_path):
        cfg = tiny_config(tmp_path, fractions=(0.2,), runs=1, save_models=True)
        run_chain_experiment(cfg)
        from distillchain import load_model

        params, seed = load_model(tmp_path / "out" / "model_0.2_0_iter0.json")
        assert params.arch.input_dim == 3
        assert (tmp_path / "out" / "model_0.2_0_iter2.json").exists()


class TestEmitOutputs:
    def test_headers_are_exact(self, tmp_path):
        traces = [TraceRow(0, 0.1, 0, 0.5, 0.5, 0, None)]
        summary = aggregate_runs([row("chain_best", 0.1, 0, 0.5, 0.5)])
        emit_outputs(summary, traces, tmp_path)
        headers = {
            "summary.csv": "mode,fraction,metric,mean,std,min,max,n,note",
            "runs.csv": "mode,fraction,run,seed,status,iteration,val_accuracy,test_accuracy",
            "traces.csv": "run,fraction,iteration,val_accuracy,test_accuracy,pseudo_count,pseudo_agreement",
        }
        for name, header in headers.items():
            assert (tmp_path / name).read_text().splitlines()[0] == header
        assert SUMMARY_HEADER == headers["summary.csv"]

    def test_svg_polyline_per_run_per_panel(self):
        traces = [
            TraceRow(run, fraction, it, 0.4, 0.4 + 0.01 * it, 10, 0.5)
            for fraction in (0.01, 0.05)
            for run in range(3)
            for it in range(4)
        ]
        svg = render_chain_svg(traces, baseline_reference=0.6)
        assert svg.count("<polyline") == 6
        assert 'stroke="#2ca02c"' in svg  # the reference line

    def test_unwritable_directory_surfaces_path(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        summary = aggregate_runs([row("baseline", 0.1, 0, 0.5, 0.5)])
        with pytest.raises(OSError, match="blocked"):
            emit_outputs(summary, [], target)


class TestExperimentConfigValidation:
    def test_fraction_bounds(self, tmp_path):
        with pytest.raises(ValueError, match="fractions must be non-empty"):
            tiny_config(tmp_path, fractions=())
        with pytest.raises(ValueError):
            tiny_config(tmp_path, fractions=(0.0, 0.5))
        with pytest.raises(ValueError):
            tiny_config(tmp_path, fractions=(0.5, 0.2))
        with pytest.raises(ValueError):
            tiny_config(tmp_path, fractions=(0.2, 1.5))
        # both would write confusion_0.05_0.csv, the second over the first
        with pytest.raises(ValueError, match="fractions must differ in their output tags"):
            tiny_config(tmp_path, fractions=(0.05, 0.05000001))
        assert tiny_config(tmp_path, fractions=(0.05, 0.050001)).fractions == (0.05, 0.050001)
        # no room for the reserve; 1.0 means "everything after the reserve"
        with pytest.raises(ValueError, match=r"labelled_fraction \+ early_stop_fraction must not exceed 1"):
            tiny_config(tmp_path, fractions=(0.2, 0.99), early_stop_fraction=0.05)
        assert tiny_config(tmp_path, fractions=(1.0,), early_stop_fraction=0.05).fractions == (1.0,)

    @pytest.mark.parametrize("fraction", [1.0, -0.1])
    def test_early_stop_fraction_bounds(self, fraction):
        # SplitSpec's rule, checked for every swept fraction
        with pytest.raises(ValueError, match=r"early_stop_fraction must be in \[0, 1\)"):
            ExperimentConfig(early_stop_fraction=fraction)

    def test_runs_and_jobs_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, runs=0)
        with pytest.raises(ValueError):
            tiny_config(tmp_path, jobs=0)

    def test_a_chain_needs_a_student(self):
        # a chain without students is the baseline's teacher alone; a chain
        # sweep of one is refused
        assert ChainConfig(iterations=0).iterations == 0
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            ChainConfig(iterations=-1)
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            ExperimentConfig(chain=ChainConfig(iterations=0))
