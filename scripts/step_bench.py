#!/usr/bin/env python3
"""Time the lockstep training step: microseconds per stacked step and per
model-step of in-process ``train_lockstep``, per architecture and stack
size K.

One repetition trains K jobs together for ``--epochs`` epochs of
``--steps`` minibatches of 32 rows, each epoch's early-stop scoring
included. The data are 9 synthetic classes in 16 features; the jobs share a
5% labelled set of the 8,100 train rows, normalized on itself, and its
early-stop set, and differ in seed. Patience equals the epoch count, so no
member stops early and every repetition runs epochs x steps stacked steps
(checked against the histories). Prints, per (arch, K), the min and median
over ``--reps`` repetitions of the time per stacked step and per
model-step (a stacked step over K), then the host kind
(scripts/host_kind.py). Kept out of Tier-1, like ``kernel_gate.py``; about
20 s on a 2-core x86 host with the defaults:

    OPENBLAS_NUM_THREADS=1 python scripts/step_bench.py
    python scripts/step_bench.py --ks 1 --epochs 1 --steps 5 --reps 1
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from distillchain import (  # noqa: E402
    ArchSpec,
    SplitResult,
    SplitSpec,
    TrainConfig,
    TrainJob,
    generate_synthetic,
    make_splits,
    normalize_splits,
    one_hot,
    train_lockstep,
)
from host_kind import host_kind  # noqa: E402

CLASSES, DIM = 9, 16
ARCHS = {"none": (), "32,16": (32, 16)}


def split_once() -> SplitResult:
    """The normalized splits every job trains and scores on."""
    train, _, _ = generate_synthetic(classes=CLASSES, per_class=1125, dim=DIM, spread=1.0, seed=0)
    return normalize_splits(make_splits(train, SplitSpec(labelled_fraction=0.05, seed=0))[0])


def seconds_per_run(hidden: tuple[int, ...], jobs: list[TrainJob], reps: int) -> list[float]:
    """Wall time of each of ``reps`` lockstep runs of ``jobs``."""
    arch = ArchSpec(input_dim=DIM, hidden=hidden, output_dim=CLASSES)
    config = jobs[0].config
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        outcomes = train_lockstep(arch, jobs)
        times.append(time.perf_counter() - start)
        for outcome in outcomes:
            if not isinstance(outcome, tuple) or len(outcome[1].epochs) != config.max_epochs:
                raise SystemExit(f"a member did not train every epoch: {outcome!r}")
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ks", default="1,8,25", help="stack sizes K, comma-separated (default: 1,8,25)")
    parser.add_argument("--epochs", type=int, default=10, help="epochs per repetition (default: 10)")
    parser.add_argument("--steps", type=int, default=100, help="steps per epoch (default: 100)")
    parser.add_argument("--reps", type=int, default=9, help="repetitions per row (default: 9)")
    args = parser.parse_args()
    ks = [int(k) for k in args.ks.split(",")]
    stacked = args.epochs * args.steps
    splits = split_once()
    config = TrainConfig(batch_size=32, steps_per_epoch=args.steps, max_epochs=args.epochs, patience=args.epochs)
    targets = one_hot(splits.labelled.labels, CLASSES)

    print(f"{stacked} stacked steps of batch 32 per repetition, {args.reps} repetitions")
    print(f"{'hidden':>6} {'K':>3} {'min_us_step':>12} {'median_us_step':>15} "
          f"{'min_us_model_step':>18} {'median_us_model_step':>21}")
    for name, hidden in ARCHS.items():
        for k in ks:
            # K jobs on one labelled set that differ only in seed
            jobs = [
                TrainJob(splits.labelled.features, targets, splits.early_stop, config, seed=seed)
                for seed in range(k)
            ]
            times = seconds_per_run(hidden, jobs, args.reps)
            low, mid = min(times) / stacked * 1e6, statistics.median(times) / stacked * 1e6
            print(f"{name:>6} {k:>3} {low:>12.2f} {mid:>15.2f} {low / k:>18.2f} {mid / k:>21.2f}")
    print("\nhost: numpy {}, OpenBLAS {}".format(*host_kind()))


if __name__ == "__main__":
    main()
