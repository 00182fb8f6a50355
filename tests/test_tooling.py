"""Guards for the tools that drive the package from outside it."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from distillchain.experiment import build_config, config_to_lines
from distillchain.reports import SummaryCell, TraceRow, read_rows

from conftest import host_kind, numpy_x86_v3, simulated_avx2_host, tiny_config

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# The benchmark's code that imports distillchain by name. The oracle catches
# only OSError and ValueError, so a renamed import crashes the benchmark
# instead of failing its check.
IMPORTERS = (
    "perfbench/oracle.py", "perfbench/child.py", "perfbench/workloads.py", "scripts/run_benchmark.py",
)


def load_by_path(name, path):
    """The module of the file at ``path``, registered as ``name`` first: a
    dataclass looks its module up in sys.modules while it is built."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_by_path("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def test_traced_benchmark_targets_resolve():
    # perfbench's tracer looks each target up by name in its module when it
    # installs, so a deleted or renamed function breaks the traced benchmark
    tracing = load_by_path("perfbench_tracing", TRACING)
    assert tracing.TARGETS
    for module_name, names in tracing.TARGETS.items():
        module = importlib.import_module(f"distillchain.{module_name}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"distillchain.{module_name} lacks {missing}"


# A chain sweep of the config echoed in argv[1], traced as perfbench traces
# it; prints the trace summary as JSON.
TRACED_SWEEP = """
import json, sys
from distillchain.experiment import build_config, run_chain_experiment
from tracing import Tracer, summarize
cfg = build_config(dict(line.split(" = ", 1) for line in json.loads(sys.argv[1])))
tracer = Tracer()
tracer.install()
run_chain_experiment(cfg)
print(json.dumps(summarize(tracer.spans)))
"""


def test_traced_benchmark_counters_read_the_sweep(tmp_path):
    # the tracer's counters bind the traced functions' arguments by name and
    # size their results, so a renamed parameter or a lost __len__ crashes
    # the traced benchmark; a subprocess, as install rebinds module globals
    # for the rest of its process
    lines = config_to_lines(tiny_config(tmp_path))
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_SWEEP, json.dumps(lines)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(done.stdout)
    assert trace["distill.pseudo_label_pool"]["rows"] > 0
    assert trace["distill.filter_pseudo_labels"]["rows_in"] > 0
    assert trace["distill.filter_pseudo_labels"]["rows_out"] > 0
    assert trace["experiment.emit_outputs"]["bytes"] > 0
    # every member is scored twice and every student pseudo-labels the pool
    # once, so a traced function called where the tracer cannot rebind it
    # shows as a missing call
    traces = read_rows(tmp_path / "out" / "traces.csv", TraceRow)
    students = sum(row.iteration > 0 for row in traces)
    assert trace["learner.evaluate"]["calls"] == 2 * len(traces)
    assert trace["distill.pseudo_label_pool"]["calls"] == students
    assert trace["distill.pseudo_label_quality"]["calls"] == students


# The output hashes `scripts/run_benchmark.py --fast --seed 0` prints: the
# first 16 hex digits of the sha256 of each file it writes.
FAST_HASHES = {
    "baseline/summary.csv": "23f1e85a50a8ceef",
    "baseline/runs.csv": "318ab6efa6ce4e50",
    "chain/summary.csv": "718f78e31e3c95f6",
    "chain/runs.csv": "f123f18bbc20a5e6",
    "chain/traces.csv": "98d6692123441a64",
}


def fast_benchmark_hashes(out, host_env=None):
    """The output hashes `scripts/run_benchmark.py --fast --seed 0` prints
    when run in a child process with ``host_env`` added to its environment,
    each checked against the file it names, after the host kind it prints
    is checked against the one a child with ``host_env`` reports and each
    baseline mean it prints against the baseline summary."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_benchmark.py"), "--fast", "--seed", "0", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **(host_env or {})},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    host = re.search(r"^host: numpy (\S+), OpenBLAS (\S+)$", done.stdout, re.MULTILINE)
    assert host and host.groups() == host_kind(host_env), done.stdout
    means = {
        cell.fraction: f"{cell.mean:.4f}"
        for cell in read_rows(out / "baseline" / "summary.csv", SummaryCell)
        if cell.metric == "test_accuracy"
    }
    *table, largest = done.stdout.partition("gap-vs-teacher\n")[2].partition("\n\n")[0].splitlines()
    shown = {float(fraction): base for fraction, base, *_ in map(str.split, table)}
    assert shown and all(base == means[fraction] for fraction, base in shown.items()), done.stdout
    assert largest == f"baseline-test at the largest fraction, {max(means):g}: {means[max(means)]}"
    hashes = done.stdout.partition("output hashes:\n")[2].splitlines()
    printed = dict(line.strip().split(": ") for line in hashes)
    for name, digest in printed.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest()[:16] == digest
    return printed


def test_fast_benchmark_prints_the_hashes_of_its_files(tmp_path):
    assert fast_benchmark_hashes(tmp_path) == FAST_HASHES


def test_openblas_reports_the_core_it_runs():
    # OPENBLAS_CORETYPE is a request that a DYNAMIC_ARCH OpenBLAS may map to
    # another core; what runs is read back from the library in the child
    if numpy_x86_v3() is None:
        pytest.skip("needs an x86-64 host with numpy's X86_V3 dispatch target")
    core = host_kind({"OPENBLAS_CORETYPE": "Haswell"})[1]
    if core == "unknown":
        pytest.skip("numpy's OpenBLAS does not report its core")
    assert core == "Haswell"


def test_fast_benchmark_hashes_hold_on_a_simulated_avx2_host(tmp_path):
    # the weights depend on numpy's dispatch level and OpenBLAS's kernel;
    # the pinned CSVs must not
    env = simulated_avx2_host()
    if env is None:
        pytest.skip("needs an x86-64 host with numpy's X86_V3 dispatch target and OpenBLAS's Haswell kernels")
    # the child must see the targets as off, or it checks this host again
    seen = subprocess.run(
        [sys.executable, "-c", "import json, numpy._core._multiarray_umath as m; print(json.dumps(m.__cpu_features__))"],
        env={**os.environ, **env}, capture_output=True, text=True, timeout=60,
    )
    assert seen.returncode == 0, seen.stderr
    features = json.loads(seen.stdout)
    off = [name for name in env["NPY_DISABLE_CPU_FEATURES"].split(",") if name]
    assert features["X86_V3"] and not any(features[name] for name in off)
    # so the hashes come from a process on X86_V3 with Haswell kernels
    assert host_kind(env) == ("X86_V3", "Haswell")
    assert fast_benchmark_hashes(tmp_path, env) == FAST_HASHES


@pytest.mark.parametrize("importer", IMPORTERS)
def test_benchmark_imports_resolve(importer):
    tree = ast.parse((ROOT / importer).read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "distillchain"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{importer} imports {missing}"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_workload_configs_build_and_echo(name, jobs):
    # every benchmark child builds its workload's ExperimentConfig, so a
    # validation rule that refuses one crashes the whole benchmark
    cfg = WORKLOADS.experiment_config(WORKLOADS.WORKLOADS[name], 0, "out", "data", jobs)
    assert cfg.jobs == jobs
    assert build_config(dict(line.split(" = ", 1) for line in config_to_lines(cfg))) == cfg


def test_numpy_floor_has_the_array_attributes_the_code_uses():
    # ndarray.mT arrived in NumPy 2.0; read with a regex, as tomllib is
    # missing before Python 3.11
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor, "pyproject.toml declares no numpy floor"
    uses_mt = any(".mT" in path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py"))
    assert not uses_mt or (int(floor[1]), int(floor[2])) >= (2, 0)


def test_unrun_lines_lists_what_a_test_file_leaves_unrun():
    # on one test file: it exits with pytest's code and lists, by file, line
    # and source, the statements that file never runs, among them the three
    # row-file wrappers only the benchmark's oracle calls; then their count
    wrappers = {
        "write_rows(path, SummaryCell, summary.cells)", "return read_rows(path, RunRow)",
        "return read_rows(path, TraceRow)",
    }
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "unrun_lines.py"),
            "-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_reports.py"),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    listed = re.findall(r"^(src/distillchain/\w+\.py):(\d+): (.+)$", done.stdout, re.MULTILINE)
    for path, lineno, source in listed:
        assert (ROOT / path).read_text(encoding="utf-8").splitlines()[int(lineno) - 1].strip() == source
    assert wrappers <= {source for path, _, source in listed if path.endswith("/reports.py")}
    assert re.fullmatch(rf"{len(listed)} statements never ran: .*reports \d+", done.stdout.splitlines()[-1])


def test_step_bench_prints_a_row_per_arch_and_stack_size():
    # one short epoch at K = 1: a row per architecture with its four
    # timings, model-step equal to stacked step, then the host kind
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "step_bench.py"),
            "--ks", "1", "--epochs", "1", "--steps", "5", "--reps", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    rows = re.findall(r"^ *(none|32,16) +1 +([\d.]+) +([\d.]+) +([\d.]+) +([\d.]+)$", done.stdout, re.MULTILINE)
    assert [row[0] for row in rows] == ["none", "32,16"], done.stdout
    for _, low, mid, low_model, mid_model in rows:
        assert 0 < float(low) <= float(mid) and (low, mid) == (low_model, mid_model)
    assert done.stdout.splitlines()[-1] == "host: numpy {}, OpenBLAS {}".format(*host_kind())
