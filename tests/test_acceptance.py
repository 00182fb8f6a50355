"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from distillchain import (
    ArchSpec,
    ChainConfig,
    ClassCatalog,
    DistillConfig,
    ExperimentConfig,
    PoolTruth,
    PseudoLabels,
    SplitSpec,
    SyntheticSpec,
    TrainConfig,
    generate_synthetic,
    keep_most_confident_per_class,
    keep_top_probabilities,
    make_splits,
    normalize_splits,
    pseudo_label_quality,
    run_baseline_sweep,
    run_chain,
    run_chain_experiment,
)
from distillchain import chain as chain_module
from distillchain.experiment import config_to_lines
from distillchain.reports import RunRow, TraceRow, read_rows

from conftest import (
    gradcheck_case,
    host_kind,
    max_relative_error,
    reaches_labels,
    simulated_avx2_host,
    table_from,
    tiny_config,
)

ROOT = Path(__file__).resolve().parents[1]


def check(name: str, passed: bool, detail: str = ""):
    line = f"[ACCEPTANCE] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        worst = max(worst, max_relative_error(*gradcheck_case(seed)))
    elapsed = time.perf_counter() - t0
    check(
        "1 gradient-vs-finite-differences",
        worst < 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s over 100 cases",
    )


def _brute_force_truncate(soft, keep):
    c = soft.shape[0]
    ranked = sorted(range(c), key=lambda i: (-soft[i], i))
    out = np.zeros(c)
    for i in ranked[:keep]:
        out[i] = soft[i]
    return out / out.sum()


def _brute_force_cap(labels, cap, num_classes):
    kept = []
    for cls in range(num_classes):
        members = [i for i in range(len(labels)) if labels.top[i] == cls]
        members.sort(key=lambda i: (-labels.confidence[i], labels.positions[i]))
        kept.extend(members[:cap])
    return [(int(labels.positions[i]), int(labels.top[i])) for i in kept]


def test_criterion_2_filter_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(1000):
        c = int(rng.integers(2, 10))
        raw = rng.exponential(1.0, c)
        soft = raw / raw.sum()
        keep = int(rng.integers(1, c + 1))
        fast = keep_top_probabilities(PseudoLabels([case], soft[None, :]), keep).soft[0]
        brute = _brute_force_truncate(soft, keep)
        worst = max(worst, float(np.abs(fast - brute).max()))
        assert np.array_equal(fast == 0.0, brute == 0.0)

    for case in range(1000):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(0, 60))
        cap = int(rng.integers(1, 8))
        raw = rng.exponential(1.0, (n, c))
        soft = raw / raw.sum(axis=1, keepdims=True)
        labels = PseudoLabels(np.arange(n), soft)
        catalog = ClassCatalog(tuple(f"c{i}" for i in range(c)))
        fast = keep_most_confident_per_class(labels, cap, catalog)
        brute = _brute_force_cap(labels, cap, c)
        assert list(zip(fast.positions.tolist(), fast.top.tolist())) == brute
    elapsed = time.perf_counter() - t0
    check(
        "2 filter-brute-force-equivalence",
        worst < 1e-12 and elapsed < 10.0,
        f"max prob diff {worst:.2e}, {elapsed:.1f}s over 2x1000 cases",
    )


def _mini_chain(seed, relabel=0):
    """A seeded miniature chain and its ChainConfig; ``relabel`` shifts every
    truth label of the pool, mod 3, before the chain runs."""
    train, val, test = generate_synthetic(classes=3, per_class=30, dim=2, spread=0.5, seed=seed)
    splits, truth = make_splits(
        train, SplitSpec(labelled_fraction=0.25, early_stop_fraction=0.1, seed=seed)
    )
    splits = normalize_splits(splits)
    truth = PoolTruth(truth.catalog, (truth.labels + relabel) % 3)
    fast = TrainConfig(max_epochs=2, steps_per_epoch=5, batch_size=8, patience=2)
    cfg = ChainConfig(
        iterations=2, distill=DistillConfig(per_class_cap=None),
        pretrain=fast, finetune=fast,
    )
    arch = ArchSpec(input_dim=2, hidden=(), output_dim=3)
    return train, splits, truth, cfg, run_chain(splits, truth, val, test, arch, cfg, seed)


def test_criterion_3_protocol_invariants(monkeypatch):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    # split disjointness and coverage, 100 seeds
    catalog = ClassCatalog(("a", "b", "c"))
    for seed in range(100):
        n = int(rng.integers(120, 400))
        labels = np.concatenate([np.arange(3), rng.integers(0, 3, n - 3)])
        train = table_from(catalog, rng.standard_normal((n, 2)), labels=labels)
        result, _ = make_splits(
            train, SplitSpec(labelled_fraction=0.2, early_stop_fraction=0.05, seed=seed)
        )
        union = np.concatenate([result.labelled.ids, result.early_stop.ids, result.pool.ids])
        assert np.unique(union).size == union.size == n
        assert set(union.tolist()) == set(train.ids.tolist())

    # per-class cap and confidence dominance, 100 seeds
    for seed in range(100):
        case_rng = np.random.default_rng(seed)
        c = int(case_rng.integers(2, 6))
        cap = int(case_rng.integers(1, 7))
        raw = case_rng.exponential(1.0, (int(case_rng.integers(1, 50)), c))
        soft = raw / raw.sum(axis=1, keepdims=True)
        labels = PseudoLabels(np.arange(soft.shape[0]), soft)
        kept = keep_most_confident_per_class(
            labels, cap, ClassCatalog(tuple(f"c{i}" for i in range(c)))
        )
        assert np.isin(kept.positions, labels.positions).all()
        dropped_mask = ~np.isin(labels.positions, kept.positions)
        for cls in range(c):
            mine = kept.confidence[kept.top == cls]
            assert mine.size <= cap
            dropped = labels.confidence[(labels.top == cls) & dropped_mask]
            if mine.size and dropped.size:
                assert mine.min() >= dropped.max()

    # chain selection dominance, record counts, and the hidden-label
    # firewall, 100 seeded miniature chains: nothing the chain hands to
    # pseudo-labelling, filtering or training (each TrainJob goes through
    # train_lockstep) reaches the pool's truth or the train table's labels,
    # and a relabelled truth changes nothing but the scored agreement
    handed = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            handed.setdefault(name, []).append((args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("pseudo_label_pool", "filter_pseudo_labels", "train_lockstep"):
        monkeypatch.setattr(chain_module, name, spy(name, getattr(chain_module, name)))
    for seed in range(100):
        *_, relabelled = _mini_chain(seed, relabel=1)
        handed.clear()
        train, splits, truth, cfg, result = _mini_chain(seed)
        for a, b in zip(result.records, relabelled.records, strict=True):
            assert (a.val_accuracy, a.test_accuracy, a.pseudo_count) == (
                b.val_accuracy, b.test_accuracy, b.pseudo_count
            )
            assert np.array_equal(a.confusion, b.confusion)
            for x, y in zip((*a.model.weights, *a.model.biases), (*b.model.weights, *b.model.biases)):
                assert np.array_equal(x, y)
        assert len(result.records) == cfg.iterations + 1
        assert [r.iteration for r in result.records] == list(range(len(result.records)))
        best = result.records[result.best_iteration]
        assert best.val_accuracy >= result.records[0].val_accuracy
        assert not hasattr(splits.pool, "labels")
        assert [len(handed[n]) for n in ("pseudo_label_pool", "filter_pseudo_labels")] == [2, 2]
        assert len(handed["train_lockstep"]) == 5  # teacher, then pretrain and finetune x 2
        assert not reaches_labels(handed.values(), truth.labels, train.labels)
        assert reaches_labels([truth], truth.labels)  # the check sees what it looks for
        uniform = PseudoLabels(np.arange(len(splits.pool)), np.full((len(splits.pool), 3), 1.0 / 3.0))
        agreement, _ = pseudo_label_quality(uniform, truth)
        assert 0.0 <= agreement <= 1.0

    elapsed = time.perf_counter() - t0
    check(
        "3 protocol-invariants",
        elapsed < 60.0,
        f"split coverage, class caps, selection dominance, firewall x100 seeds, {elapsed:.1f}s",
    )


# The byte-identity oracle: the first 16 hex digits of the sha256 of each
# output of the default seed-0 experiment, as `scripts/run_benchmark.py
# --seed 0` prints them and ROADMAP.md lists them.
DEFAULT_OUTPUT_HASHES = {
    "baseline summary.csv": "2e993d3a725362d5",
    "baseline runs.csv": "088d6e765a0c8512",
    "chain summary.csv": "0a2a926b37e74162",
    "chain runs.csv": "add22e12004d5b34",
    "chain traces.csv": "7d9214a59019afab",
}


def test_criterion_4_experiment_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = {}
    # the second execution also shows that jobs moves no byte at full scale
    for attempt, jobs in (("first", 1), ("second", 2)):
        base_dir = tmp_path / attempt / "baseline"
        chain_dir = tmp_path / attempt / "chain"
        run_baseline_sweep(ExperimentConfig(out_dir=str(base_dir), jobs=jobs))
        run_chain_experiment(ExperimentConfig(out_dir=str(chain_dir), jobs=jobs))
        outputs[attempt] = {
            f"{mode} {name}": (tmp_path / attempt / mode / name).read_bytes()
            for mode in ("baseline", "chain")
            for name in ("summary.csv", "runs.csv", "traces.csv")
        }
    mismatched = [
        name for name in outputs["first"] if outputs["first"][name] != outputs["second"][name]
    ]
    moved = [
        name
        for name, digest in DEFAULT_OUTPUT_HASHES.items()
        if hashlib.sha256(outputs["first"][name]).hexdigest()[:16] != digest
    ]
    elapsed = time.perf_counter() - t0
    check(
        "4 full-default-experiment-determinism",
        not mismatched and not moved,
        f"executions at jobs 1 and 2 byte-identical and the first on the pinned hashes, {elapsed:.0f}s"
        + (f"; mismatched: {mismatched}" if mismatched else "")
        + (f"; off the pinned hashes: {moved}" if moved else ""),
    )


# The trained weights' oracle: the first 16 hex digits of the sha256 of the
# model_*.json checkpoints (names and bytes, in name order) of a tiny seeded
# chain sweep, per arch.hidden. The CSVs above see a weight only when it flips
# a prediction; a checkpoint holds every float exactly. Weights hold per host
# kind (README, "Seeds and determinism"), so the pins are keyed by it:
# (numpy's highest enabled dispatch target, OpenBLAS core), as
# scripts/host_kind.py reports them. The X86_V3 / Haswell pins are those of a
# simulated AVX2 host (conftest.simulated_avx2_host).
CHECKPOINT_HASHES = {
    ("AVX512_SPR", "SkylakeX"): {(): "4040be0258bda898", (4,): "083ea42294b4e7aa"},
    ("X86_V3", "Haswell"): {(): "5de7f0b44dd3d5b4", (4,): "a7accb6b63ceaeb6"},
}
HIDDEN = [(), (4,)]


def checkpoint_sweep(tmp_path, hidden):
    return tiny_config(tmp_path, fractions=(0.2,), arch_hidden=hidden, save_models=True)


def check_checkpoints(out, kind, hidden):
    """The checkpoints under ``out`` against the pin of host kind ``kind``."""
    paths = sorted(out.glob("model_*.json"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert len(paths) == 6  # 2 runs x the teacher and 2 students
    computed = digest.hexdigest()[:16]
    assert kind in CHECKPOINT_HASHES, (
        f"no weight pins for host kind {kind}; arch.hidden {hidden} gave {computed}"
    )
    assert computed == CHECKPOINT_HASHES[kind][hidden]


@pytest.mark.parametrize("hidden", HIDDEN)
def test_checkpoints_on_the_pinned_weights(tmp_path, hidden):
    run_chain_experiment(checkpoint_sweep(tmp_path, hidden))
    check_checkpoints(tmp_path / "out", host_kind(), hidden)


@pytest.mark.parametrize("hidden", HIDDEN)
def test_checkpoints_on_the_pinned_weights_of_a_simulated_avx2_host(tmp_path, hidden):
    env = simulated_avx2_host()
    if env is None:
        pytest.skip("needs an x86-64 host with numpy's X86_V3 dispatch target and OpenBLAS's Haswell kernels")
    # the CLI in a child process, fed the sweep's resolved configuration
    config = tmp_path / "sweep.cfg"
    config.write_text("\n".join(config_to_lines(checkpoint_sweep(tmp_path, hidden))) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "distillchain.cli", "chain", "--config", str(config)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    check_checkpoints(tmp_path / "out", host_kind(env), hidden)


def test_criterion_5_baseline_trend(tmp_path):
    t0 = time.perf_counter()
    fractions = (0.0025, 0.01, 0.05, 0.20)
    cfg = ExperimentConfig(fractions=fractions, out_dir=str(tmp_path / "out"))
    summary = run_baseline_sweep(cfg)
    means = {
        c.fraction: c.mean
        for c in summary.cells
        if c.mode == "baseline" and c.metric == "val_accuracy"
    }
    ordered = [means[f] for f in fractions]
    counts = {c.fraction: c.n for c in summary.cells if c.metric == "val_accuracy"}
    inversions = sum(1 for a, b in zip(ordered, ordered[1:]) if b < a)
    elapsed = time.perf_counter() - t0
    check(
        "5 baseline-accuracy-trend",
        inversions <= 1 and all(n == 5 for n in counts.values()) and elapsed < 300.0,
        f"means {[round(v, 4) for v in ordered]}, {inversions} inversion(s), {elapsed:.0f}s",
    )


def test_criterion_6_chain_benefit(tmp_path):
    t0 = time.perf_counter()
    spec = SyntheticSpec()
    n_train = spec.classes * (spec.per_class * 8 // 10)
    n_early = int(0.01 * n_train)
    n_labelled = int(0.01 * n_train)
    pool_size = n_train - n_early - n_labelled
    cap = round(0.8 * pool_size / spec.classes)
    cfg = ExperimentConfig(
        fractions=(0.01,),
        out_dir=str(tmp_path / "out"),
        chain=ChainConfig(
            distill=DistillConfig(per_class_cap=cap),
            finetune=ExperimentConfig().chain.finetune,
        ),
    )
    run_chain_experiment(cfg)
    traces = read_rows(tmp_path / "out" / "traces.csv", TraceRow)
    rows = read_rows(tmp_path / "out" / "runs.csv", RunRow)
    teacher_val = {t.run: t.val_accuracy for t in traces if t.iteration == 0}
    teacher_test = [t.test_accuracy for t in traces if t.iteration == 0]
    best_rows = [r for r in rows if r.mode == "chain_best"]
    best_test = [r.test_accuracy for r in best_rows]

    dominated = all(r.val_accuracy >= teacher_val[r.run] for r in best_rows)
    gap = float(np.mean(best_test) - np.mean(teacher_test))
    retained = {t.pseudo_count for t in traces if t.iteration > 0}
    coverage = max(retained) / pool_size
    elapsed = time.perf_counter() - t0
    check(
        "6 chain-benefit",
        dominated and gap > 0.0 and elapsed < 300.0,
        f"teacher mean {np.mean(teacher_test):.4f} -> best mean {np.mean(best_test):.4f}, "
        f"gap {gap:+.4f}, cap covers {coverage:.0%} of pool, {elapsed:.0f}s",
    )


def test_criterion_7_retention_heuristic():
    # pools where every predicted class holds 5000 members: a 4000-per-class
    # cap keeps exactly 80%
    catalog = ClassCatalog(tuple(f"t{i}" for i in range(9)))
    rng = np.random.default_rng(0)
    soft = np.full((45000, 9), 0.02)
    for cls in range(9):
        soft[cls * 5000 : (cls + 1) * 5000, cls] = 0.84 + rng.uniform(0.0, 1e-6, 5000)
    soft /= soft.sum(axis=1, keepdims=True)
    labels = PseudoLabels(np.arange(45000), soft)
    kept = keep_most_confident_per_class(labels, 4000, catalog)
    fraction_kept = len(kept) / len(labels)
    check(
        "7 retention-cap-80-percent",
        len(labels) == 45000 and len(kept) == 36000 and fraction_kept == 0.8,
        f"{len(kept)}/{len(labels)} retained = {fraction_kept:.0%}",
    )
