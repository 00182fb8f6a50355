#!/usr/bin/env python3
"""Run the default synthetic benchmark end to end.

Baseline labelled-fraction sweep, then the teacher-student chain sweep with
the baseline's best mean as the chart reference, into <out>/baseline and
<out>/chain. The printed table gives, per fraction, the mean test accuracy of
the baseline, of the chain's teacher and of the best selected chain
iteration, and the best chain's gap over the baseline and over the teacher;
the line under it gives the baseline at the largest fraction, the paper's
full-label comparison. The last lines name the host kind (numpy's
highest enabled dispatch target and OpenBLAS's core, scripts/host_kind.py)
and the output hashes that pin the results byte for byte (first 16 hex
digits of sha256).
"""

import argparse
import hashlib
import time
from pathlib import Path

import numpy as np

from distillchain import ExperimentConfig, SyntheticSpec, run_baseline_sweep, run_chain_experiment
from distillchain.reports import RunRow, SummaryCell, TraceRow, read_rows
from host_kind import host_kind

# The outputs whose hashes are the byte-identity oracle of a seeded run.
HASHED = (
    "baseline/summary.csv",
    "baseline/runs.csv",
    "chain/summary.csv",
    "chain/runs.csv",
    "chain/traces.csv",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root (default: results)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel cells (default: 1)")
    parser.add_argument(
        "--fast", action="store_true", help="smoke-scale benchmark (smaller dataset, fewer runs)"
    )
    args = parser.parse_args()

    out = Path(args.out)
    common = dict(seed=args.seed, jobs=args.jobs)
    if args.fast:
        common.update(
            source=SyntheticSpec(classes=4, per_class=100, dim=8, spread=0.9),
            fractions=(0.05, 0.2, 1.0),
            runs=2,
            early_stop_fraction=0.05,
        )

    t0 = time.perf_counter()
    base_cfg = ExperimentConfig(out_dir=str(out / "baseline"), **common)
    run_baseline_sweep(base_cfg)
    print(f"baseline sweep: {time.perf_counter() - t0:.2f}s -> {out / 'baseline'}")

    t1 = time.perf_counter()
    chain_cfg = ExperimentConfig(out_dir=str(out / "chain"), **common)
    run_chain_experiment(chain_cfg, baseline_summary=out / "baseline" / "summary.csv")
    print(f"chain sweep:    {time.perf_counter() - t1:.2f}s -> {out / 'chain'}")

    baseline = {
        cell.fraction: cell.mean
        for cell in read_rows(out / "baseline" / "summary.csv", SummaryCell)
        if cell.metric == "test_accuracy" and cell.mean is not None
    }
    traces = read_rows(out / "chain" / "traces.csv", TraceRow)
    best = {}
    for row in read_rows(out / "chain" / "runs.csv", RunRow):
        if row.mode == "chain_best" and row.ok:
            best.setdefault(row.fraction, []).append(row.test_accuracy)
    print("\nfraction  baseline-test  teacher-test  best-chain-test  gap-vs-baseline  gap-vs-teacher")
    for fraction in sorted(best):
        teacher = [t.test_accuracy for t in traces if t.fraction == fraction and t.iteration == 0]
        t_mean, b_mean = float(np.mean(teacher)), float(np.mean(best[fraction]))
        base = baseline[fraction]
        print(f"{fraction:8g}  {base:13.4f}  {t_mean:12.4f}  {b_mean:15.4f}  {b_mean - base:+15.4f}  {b_mean - t_mean:+14.4f}")
    largest = max(baseline)
    print(f"baseline-test at the largest fraction, {largest:g}: {baseline[largest]:.4f}")

    # trained weights differ between host kinds, so the hashes name theirs
    print("\nhost: numpy {}, OpenBLAS {}".format(*host_kind()))
    print("output hashes:")
    for name in HASHED:
        print(f"  {name}: {hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]}")


if __name__ == "__main__":
    main()
