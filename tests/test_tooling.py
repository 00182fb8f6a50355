"""Guards for the tools that drive the package from outside it."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# The benchmark's code that imports distillchain by name. The oracle catches
# only OSError and ValueError, so a renamed import crashes the benchmark
# instead of failing its check.
IMPORTERS = (
    "perfbench/oracle.py", "perfbench/child.py", "perfbench/workloads.py", "scripts/run_benchmark.py",
)


def test_traced_benchmark_targets_resolve():
    # perfbench's tracer looks each target up by name in its module when it
    # installs, so a deleted or renamed function breaks the traced benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, names in tracing.TARGETS.items():
        module = importlib.import_module(f"distillchain.{module_name}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"distillchain.{module_name} lacks {missing}"


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


def test_numpy_floor_has_the_array_attributes_the_code_uses():
    # ndarray.mT arrived in NumPy 2.0; read with a regex, as tomllib is
    # missing before Python 3.11
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor, "pyproject.toml declares no numpy floor"
    uses_mt = any(".mT" in path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py"))
    assert not uses_mt or (int(floor[1]), int(floor[2])) >= (2, 0)
