#!/usr/bin/env python3
"""distillchain benchmark: seeded labelled-fraction sweeps, measured end to
end and layer by layer.

    python3 perfbench/run.py --workload chain_scarce --seed 0 --seconds 60 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are defined in ``workloads.py``; ``--workload all`` runs each in
turn and prints one combined result line. Metric names, units and bounds
are declared in ``BENCHMARK.json`` at the root.

``--trace 0`` measures the end-to-end metrics. Each repetition runs at
jobs=1 in a fresh child process with one BLAS thread, timing set-up
(interpreter start, import and one ``prepare_dataset``) and the sweep call;
repetitions continue while the next one fits in ``--seconds``, and a few
set-up-only children add set-up samples. Timings are medians over the whole
run: on a shared host, speed drifts over tens of seconds, so a long run of
short repetitions is steadier than a few long ones, and the fastest
repetition is less steady still.

``--trace 1`` measures the per-layer metrics: two traced in-process children
at jobs=1, whose exact work counts must agree, around one untraced child at
jobs=1, plus one untraced child at jobs=2 whose outputs must be the same
bytes. Per-layer times are the mean of the two traced sweeps. A layer's self
time is its spans' time minus the time of their child spans; ``*.ms`` and
``*.s`` metrics without ``per_call`` are totals over one sweep.

Every repetition's outputs go through the oracle in ``oracle.py``; all
repetitions must write the same bytes, and for seed 0 those bytes must match
the hashes pinned in ``reference.json``. The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (in (fraction,
run) cells) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import check_outputs
from workloads import WORKLOADS, experiment_config, write_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path("perfbench")
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

MIN_REPS = 2  # sweep repetitions per untraced run, however short --seconds is
SETUP_PROBES = 4  # extra set-up-only children per untraced run
RUN_LIMIT_S = 175.0  # a run must end within 180 s

# Metrics whose value is exact: two traced runs of one seed must agree on them.
_EXACT_KEYS = ("calls", "rows", "rows_in", "rows_out", "epochs", "steps", "useful_epochs", "iterations", "bytes")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


class Runner:
    """Spawns the children of one benchmark run and keeps their results."""

    def __init__(self, workload, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.dir = WORK / workload.name
        self.out_dir = self.dir / "out"
        self.data_dir = self.dir / "data"
        cfg = experiment_config(workload, seed, str(self.out_dir), str(self.data_dir), 1)
        self.cells = len(cfg.fractions) * cfg.runs
        # runs.csv has a chain_best and a chain_final row per cell.
        self.expected_rows = self.cells * 2
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONPATH=str(ROOT / "src"),
        )
        self.outcomes = []  # oracle outcome per sweep child

    def child(self, *, jobs: int, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one child to completion and, for a sweep, check its outputs."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        result_path = self.dir / "child.json"
        result_path.unlink(missing_ok=True)
        spec = {
            "workload": self.workload.name,
            "seed": self.seed,
            "out_dir": str(self.out_dir),
            "data_dir": str(self.data_dir),
            "jobs": jobs,
            "trace": trace,
            "setup_only": setup_only,
            "result": str(result_path),
            "spans": str(self.dir / f"spans_{len(self.outcomes)}.json"),
        }
        budget = RUN_LIMIT_S - (_clock() - self.started)
        if budget <= 0:
            raise TimeoutError("run time limit reached")
        spec["t_spawn"] = _clock()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=self.env,
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise TimeoutError(f"{self.workload.name} child exceeded the run time limit") from None
        finally:
            # The sweep's own process pool is shut down by the program; this
            # catches anything a failed child left behind in its session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if code != 0:
            raise RuntimeError(f"{self.workload.name} child exited with code {code}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not setup_only:
            outcome = check_outputs(self.out_dir, self.expected_rows)
            self.outcomes.append(outcome)
        return result

    def verdict(self) -> tuple[list[str], int, int]:
        """(problems, cells attempted, cells failed) over all sweep children.

        A child fails as a whole when its outputs fail a consistency check or
        differ from the reference bytes: the pinned hashes for seed 0,
        otherwise the first child's. Otherwise its non-ok rows count.
        """
        problems = [p for o in self.outcomes for p in o.problems]
        reference = self.outcomes[0].hashes
        if self.seed == 0:
            pins = json.loads(REFERENCE.read_text(encoding="utf-8"))["pinned_seed0"]
            reference = pins.get(self.workload.name)
        failed = 0
        for i, o in enumerate(self.outcomes):
            if o.hashes != reference:
                problems.append(f"child {i} wrote other bytes than the reference")
            if o.problems or o.hashes != reference:
                failed += self.cells
            else:
                failed += (o.rows - o.rows_ok) * self.cells // self.expected_rows
        return problems, self.cells * len(self.outcomes), failed


def _describe(name: str, samples: list[float]) -> str:
    listed = ", ".join(f"{v:.4f}" for v in samples)
    return f"{name}: median {statistics.median(samples):.4f} over n={len(samples)} [{listed}]"


def _report(names: list[dict], values: dict[str, float]) -> dict:
    """Metrics in the order and with the units BENCHMARK.json declares. A
    value that could not be measured (NaN) is reported as 0; the run is then
    already marked incorrect."""
    return {
        m["name"]: {"value": values[m["name"]] if math.isfinite(values[m["name"]]) else 0.0, "unit": m["unit"]}
        for m in names
    }


def _print_metrics(declared: list[dict], values: dict[str, float]) -> None:
    for m in declared:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")


def untraced_run(runner: Runner, seconds: int, declared: list[dict]) -> dict:
    sweeps, setups, rss = [], [], []
    t_loop = _clock()
    for _ in range(SETUP_PROBES):
        setups.append(runner.child(jobs=1, setup_only=True)["setup_s"])
    while True:
        r = runner.child(jobs=1)
        sweeps.append(r["sweep_s"])
        setups.append(r["setup_s"])
        rss.append(r["maxrss_kb"] / 1024.0)
        elapsed = _clock() - t_loop
        if len(sweeps) >= MIN_REPS and elapsed * (len(sweeps) + 1) / len(sweeps) > seconds:
            break
    for name, samples in (("sweep_s", sweeps), ("setup_s", setups), ("peak_rss_mb", rss)):
        print(_describe(name, samples))

    problems, attempted, failed = runner.verdict()
    sweep_s = statistics.median(sweeps)
    values = {
        "sweep_s": sweep_s,
        "setup_s": statistics.median(setups),
        "cells_per_s": runner.cells / sweep_s,
        "peak_rss_mb": statistics.median(rss),
        "cells_ok_ratio": (attempted - failed) / attempted,
        "outputs_ok": 0 if problems else 1,
    }
    _print_metrics(declared, values)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": _report(declared, values),
        "problems": problems,
    }


def _layer_metrics(summary: dict, sweep_s: float) -> dict[str, float]:
    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    train = "learner.train_with_early_stopping"
    m = {
        "dataset.read_table.rows_per_s": per(get("dataset.read_table", "rows"), get("dataset.read_table", "total_s")),
        "dataset.read_table.calls": get("dataset.read_table", "calls"),
        "dataset.make_splits.ms_per_call": 1e3 * per(get("dataset.make_splits", "total_s"), get("dataset.make_splits", "calls")),
        "dataset.normalize.ms_per_call": 1e3 * per(get("dataset.normalize", "total_s"), get("dataset.normalize", "calls")),
        "dataset.generate_synthetic.ms": 1e3 * get("dataset.generate_synthetic", "total_s"),
        "learner.train.calls": get(train, "calls"),
        "learner.train.epochs": get(train, "epochs"),
        "learner.train.steps": get(train, "steps"),
        "learner.train.self_s": get(train, "self_s"),
        "learner.step_us": 1e6 * per(get(train, "self_s"), get(train, "steps")),
        "learner.useful_epoch_ratio": per(get(train, "useful_epochs"), get(train, "epochs")),
        "learner.evaluate.calls": get("learner.evaluate", "calls"),
        "learner.forward.rows": get("learner.forward", "rows"),
        "learner.forward.rows_per_s": per(get("learner.forward", "rows"), get("learner.forward", "total_s")),
        "distill.pseudo_label_pool.rows": get("distill.pseudo_label_pool", "rows"),
        "distill.pseudo_label_pool.us_per_row": 1e6 * per(get("distill.pseudo_label_pool", "total_s"), get("distill.pseudo_label_pool", "rows")),
        "distill.filter.us_per_row": 1e6 * per(get("distill.filter_pseudo_labels", "total_s"), get("distill.filter_pseudo_labels", "rows_in")),
        "distill.kept_ratio": per(get("distill.filter_pseudo_labels", "rows_out"), get("distill.filter_pseudo_labels", "rows_in")),
        "distill.quality.ms": 1e3 * get("distill.pseudo_label_quality", "total_s"),
        "chain.run_chain.self_s": get("chain.run_chain", "self_s"),
        "chain.train_student.self_s": get("chain.train_student", "self_s"),
        "chain.iterations": get("chain.run_chain", "iterations"),
        "experiment.prepare_dataset.calls": get("experiment.prepare_dataset", "calls"),
        "experiment.prepare_dataset.s": get("experiment.prepare_dataset", "total_s"),
        "experiment.self_s": get("experiment.sweep", "self_s"),
        "experiment.aggregate_runs.ms": 1e3 * get("experiment.aggregate_runs", "total_s"),
        "reports.emit_outputs.ms": 1e3 * get("experiment.emit_outputs", "total_s"),
        "reports.bytes_written": get("experiment.emit_outputs", "bytes"),
    }
    # Self-time share of the traced sweep per layer. emit_outputs lives in
    # experiment.py but is the reports layer's entry point.
    shares: dict[str, float] = {}
    for name, entry in summary.items():
        layer = "reports" if name == "experiment.emit_outputs" else name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + entry["self_s"]
    for layer in ("dataset", "learner", "distill", "chain", "experiment", "reports"):
        m[f"{layer}.self_share"] = per(shares.get(layer, 0.0), sweep_s)
    return m


def traced_run(runner: Runner, write_rows: int, write_s: float, declared: list[dict]) -> dict:
    # The untraced jobs=1 run sits between the two traced ones so that drift
    # in machine speed hits both sides of the overhead ratio alike.
    traced = [runner.child(jobs=1, trace=True)]
    untraced = runner.child(jobs=1)["sweep_s"]
    traced.append(runner.child(jobs=1, trace=True))
    runner.child(jobs=2)  # the process-pool path, for byte identity across jobs

    problems, attempted, failed = runner.verdict()
    a, b = (t["trace"] for t in traced)
    for name in sorted(set(a) | set(b)):
        for key in _EXACT_KEYS:
            if a.get(name, {}).get(key) != b.get(name, {}).get(key):
                problems.append(f"work count {name}.{key} differs between two traced runs")

    per_run = [_layer_metrics(t["trace"], t["sweep_s"]) for t in traced]
    values = {name: (per_run[0][name] + per_run[1][name]) / 2 for name in per_run[0]}
    values["dataset.write_table.rows_per_s"] = write_rows / write_s if write_s else 0.0
    traced_sweep = (traced[0]["sweep_s"] + traced[1]["sweep_s"]) / 2
    values["trace.overhead_ratio"] = traced_sweep / untraced - 1
    values["experiment.test_acc_mean"] = runner.outcomes[0].test_acc_mean
    values["chain.gap"] = runner.outcomes[0].chain_gap
    _print_metrics(declared, values)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": _report(declared, values),
        "problems": problems,
    }


def run_workload(workload, args, declared: dict) -> dict:
    runner = Runner(workload, args.seed, _clock())
    shutil.rmtree(runner.dir, ignore_errors=True)
    runner.dir.mkdir(parents=True)
    # Seeded inputs are generated before anything is timed.
    write_rows, write_s = write_inputs(workload, args.seed, runner.data_dir)
    if args.trace:
        result = traced_run(runner, write_rows, write_s, declared["per_layer"])
    else:
        result = untraced_run(runner, args.seconds, declared["end_to_end"])
    print("hashes " + json.dumps(runner.outcomes[0].hashes))
    for p in result.pop("problems"):
        print(f"oracle: {p}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not (Path("src") / "distillchain" / "__init__.py").is_file():
        print("perfbench: src/distillchain not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; one of {list(WORKLOADS)} or all", file=sys.stderr)
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    print("machine " + json.dumps(machine_block()))

    results = {}
    for name in names:
        print(f"workload {name}")
        results[name] = run_workload(WORKLOADS[name], args, declared)
    if len(results) == 1:
        result = results[names[0]]
    else:
        # One line for all workloads: metric names are prefixed by workload.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
