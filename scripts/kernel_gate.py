#!/usr/bin/env python3
"""Run the learner and chain tests once per OpenBLAS kernel and numpy level.

The multi-kernel gate for any change to a kernel, an array layout or the
lockstep stacking: ``tests/test_learner.py`` and ``tests/test_chain.py`` run
in a child process under each ``OPENBLAS_CORETYPE`` of SkylakeX, Haswell,
Sandybridge and Prescott, then once with numpy's dispatch capped at X86_V3
(and OpenBLAS on the host's own core). Each row names the core requested,
the core the child's OpenBLAS reports it runs, and the test counts. A
request that runs another core (a DYNAMIC_ARCH build maps some names to
others) is shown as such and does not cover the core requested. Exits 1 on
any test failure. About 6-8 s per kernel on a 2-core x86 host:

    python scripts/kernel_gate.py
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import host_kind, numpy_x86_v3  # noqa: E402

CORES = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
TESTS = ("tests/test_learner.py", "tests/test_chain.py")


def run_tests(host_env: dict[str, str]) -> tuple[str, bool]:
    """Pytest's summary line for TESTS in a child with ``host_env`` (its
    pass and fail counts), and whether every test passed."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **host_env},
        capture_output=True, text=True,
    )
    lines = (done.stdout + done.stderr).strip().splitlines()
    return (lines[-1] if lines else "no output"), done.returncode == 0


def main() -> int:
    # the host's own settings would leak into every child
    for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        os.environ.pop(name, None)
    hosts = [(core, {"OPENBLAS_CORETYPE": core}) for core in CORES]
    numpy_env = numpy_x86_v3()
    if numpy_env is None:
        print("numpy X86_V3: skipped (needs an x86-64 host with numpy's X86_V3 dispatch target)")
    else:
        hosts.append(("numpy X86_V3", numpy_env))

    print(f"{'requested':<14} {'reported':<12} {'coverage':<40} tests")
    any_failed, uncovered = False, []
    for requested, env in hosts:
        reported = host_kind(env)[1]
        summary, ok = run_tests(env)
        any_failed |= not ok
        if "OPENBLAS_CORETYPE" not in env:
            coverage = f"numpy at X86_V3, OpenBLAS on {reported}"
        elif reported == requested:
            coverage = requested
        else:
            coverage = f"none: {requested} -> {reported}"
            uncovered.append(requested)
        print(f"{requested:<14} {reported:<12} {coverage:<40} {summary}", flush=True)
    if uncovered:
        print(f"not covered: {', '.join(uncovered)}")
    print("FAIL" if any_failed else "PASS")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
