"""The benchmark's workloads: each turns a seed into the program's inputs and
an ExperimentConfig.

Each workload puts most of the sweep's work in one layer and leaves another
nearly idle, so that a gain in one layer shows on one workload and the
prediction "no change" can be checked on another:

- chain_scarce: the paper's headline regime (default table, scarce labels,
  default 5-iteration chains). The learner does most of the work; dataset
  work is done in set-up and is nearly idle during the sweep.
- chain_wide_pool: the "your own table" path with a big pool read from CSV.
  Pool-proportional work in distill and dataset dominates; the learner is
  a small share.

There are two workloads so that each run can be a minute long within the
benchmark's total time: shorter runs were too noisy on a shared 2-core host.
Both time the sweep at jobs=1; the process-pool path (jobs=2) is checked
for identical output bytes in the traced run of each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    csv_inputs: bool  # True when the sweep reads generated CSV files


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain_scarce", csv_inputs=False),
        Workload("chain_wide_pool", csv_inputs=True),
    )
}

# The wide-pool table: 9 classes x 4000 per class x 16 features, written as
# train/validation/test CSVs (28.8k train rows).
WIDE_POOL_TABLE = dict(classes=9, per_class=4000, dim=16, spread=0.9)


def data_files(data_dir: Path) -> tuple[Path, Path, Path]:
    return data_dir / "train.csv", data_dir / "validation.csv", data_dir / "test.csv"


def write_inputs(workload: Workload, seed: int, data_dir: Path) -> tuple[int, float]:
    """Generate the workload's CSV inputs from ``seed`` into ``data_dir``.

    Returns (rows written, seconds spent in ``write_table``); (0, 0.0) for
    workloads that generate their table inside the program.
    """
    import time

    from distillchain import generate_synthetic, write_table
    from distillchain.experiment import derive_seed

    if not workload.csv_inputs:
        return 0, 0.0
    data_dir.mkdir(parents=True, exist_ok=True)
    tables = generate_synthetic(**WIDE_POOL_TABLE, seed=derive_seed(seed, 101))
    rows, seconds = 0, 0.0
    for path, table in zip(data_files(data_dir), tables):
        t0 = time.perf_counter()
        write_table(path, table)
        seconds += time.perf_counter() - t0
        rows += len(table)
    return rows, seconds


def experiment_config(workload: Workload, seed: int, out_dir: str, data_dir: str, jobs: int):
    """The ExperimentConfig the program runs; paths are relative to the
    checkout root so that output bytes do not depend on where it lives."""
    from distillchain import DataFiles, ExperimentConfig
    from distillchain.learner import TrainConfig

    base = ExperimentConfig(seed=seed, out_dir=out_dir, jobs=jobs)
    if workload.name == "chain_scarce":
        return replace(base, fractions=(0.005, 0.01, 0.05), runs=1)
    if workload.name == "chain_wide_pool":
        short = TrainConfig(max_epochs=4, patience=2, steps_per_epoch=25)
        train, validation, test = (str(p) for p in data_files(Path(data_dir)))
        chain = replace(
            base.chain,
            iterations=3,
            distill=replace(base.chain.distill, top_probs=3, per_class_cap=2000),
            pretrain=short,
            finetune=replace(short, learning_rate=base.chain.finetune.learning_rate),
        )
        return replace(
            base,
            source=DataFiles(train=train, validation=validation, test=test),
            fractions=(0.01,),
            runs=2,
            early_stop_fraction=0.005,
            chain=chain,
        )
    raise KeyError(workload.name)

