"""Guards for the tools that drive the package from outside it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
