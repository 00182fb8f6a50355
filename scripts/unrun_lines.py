#!/usr/bin/env python3
"""List the statements of ``src/distillchain`` that no test runs.

Runs pytest in this process under a line tracer, installed with
``sys.settrace`` and ``threading.settrace`` and limited to the package's
files (stdlib only), then prints ``file:line: source`` for every statement
that never ran, and a count per module. Docstrings, ``def`` and ``class``
lines (with their decorators) and imports are not listed.

It cannot see code that runs in another process: the tests that run the
CLI or ``scripts/run_benchmark.py`` as a subprocess, and the workers of a
``jobs > 1`` sweep. A statement only those reach is listed as unrun.

Arguments are passed to pytest. Without any, it runs ``tests/`` less the
five tests that run full benchmark sweeps: the three in-process ones are
the slowest under the tracer, and the two that run ``run_benchmark.py
--fast`` are subprocesses it cannot see. Kept out of Tier-1, like
``kernel_gate.py``; about a minute on a 2-core x86 host:

    python scripts/unrun_lines.py
    python scripts/unrun_lines.py tests/test_learner.py
"""

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "distillchain"
FULL_SWEEPS = (
    "tests/test_acceptance.py::test_criterion_4_experiment_determinism",
    "tests/test_acceptance.py::test_criterion_5_baseline_trend",
    "tests/test_acceptance.py::test_criterion_6_chain_benefit",
    "tests/test_tooling.py::test_fast_benchmark_prints_the_hashes_of_its_files",
    "tests/test_tooling.py::test_fast_benchmark_hashes_hold_on_a_simulated_avx2_host",
)
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *(f"--deselect={t}" for t in FULL_SWEEPS)]
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(tree: ast.Module) -> list[tuple[int, range]]:
    """Per listed statement, its first line and the lines a run of it can
    report: the whole of a simple statement, the header of a compound one."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, SKIPPED) and id(node) not in docstrings:
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            found.append((node.lineno, range(node.lineno, end + 1)))
    return found


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # the tests' own subprocesses import the package too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    import pytest

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    per_module = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        for first, span in sorted(statements(ast.parse(source))):
            if seen.isdisjoint(span):
                per_module[path.stem] += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    counts = ", ".join(f"{name} {n}" for name, n in sorted(per_module.items()))
    print(f"{sum(per_module.values())} statements never ran" + (f": {counts}" if counts else ""))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
