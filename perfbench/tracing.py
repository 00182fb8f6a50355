"""Outside-in span tracing of the distillchain layers.

The program is not instrumented. Instead, the public functions of each
package module are replaced, for the life of one process, by wrappers that
record a span per call: name, start, end and the span that was open when the
call began. Modules bind some of these functions by name
(``from .learner import train_with_early_stopping``), so every binding of a
function object across ``distillchain.*`` is replaced, not only the one in
the defining module. Per-sample helpers such as ``keep_top_probabilities``
are deliberately left alone: wrapping them would swamp the trace.

Spans stay in memory; ``summarize`` turns them into per-function totals.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

# The layer boundaries that are timed, by module.
TARGETS = {
    "dataset": ("generate_synthetic", "read_table", "write_table", "make_splits", "normalize"),
    "learner": ("train_with_early_stopping", "evaluate", "forward"),
    "distill": ("pseudo_label_pool", "filter_pseudo_labels", "pseudo_label_quality"),
    "chain": ("run_chain", "train_student"),
    "experiment": ("prepare_dataset", "aggregate_runs", "emit_outputs"),
}


def _train_counts(args: dict, result) -> dict:
    history = result[1]
    epochs = len(history.epochs)
    useful = 0 if history.best_epoch is None else history.best_epoch + 1
    return {
        "epochs": epochs,
        "steps": epochs * args["config"].steps_per_epoch,
        "useful_epochs": useful,
    }


# Exact work counts taken at the boundary, from the call's arguments and
# result. Each hook receives the bound arguments (or None when the hook does
# not need them) and the return value.
_COUNTERS = {
    "dataset.read_table": (False, lambda a, r: {"rows": len(r)}),
    "dataset.write_table": (True, lambda a, r: {"rows": len(a["table"])}),
    "learner.train_with_early_stopping": (True, _train_counts),
    "learner.forward": (False, lambda a, r: {"rows": int(r.shape[0])}),
    "distill.pseudo_label_pool": (False, lambda a, r: {"rows": len(r)}),
    "distill.filter_pseudo_labels": (
        True,
        lambda a, r: {"rows_in": len(a["labels"]), "rows_out": len(r)},
    ),
    "chain.run_chain": (False, lambda a, r: {"iterations": len(r.records) - 1}),
    "experiment.emit_outputs": (
        False,
        lambda a, r: {"bytes": sum(p.stat().st_size for p in r)},
    ),
}


class Tracer:
    """Records spans for calls into the wrapped functions.

    A span is ``[name, start, end, parent, counters]``; ``parent`` is the index
    of the enclosing span or -1. Spans are appended when they open, so a
    parent always precedes its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span around code in the benchmark itself, such as the sweep call."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        needs_args, count = _COUNTERS.get(name, (False, None))
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments if needs_args else None
                self.spans[idx][4] = count(bound, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target function in ``distillchain.*``
        for the rest of the process."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "distillchain"]
        for module_name, functions in TARGETS.items():
            defining = sys.modules[f"distillchain.{module_name}"]
            for fname in functions:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds (inclusive minus
    the time covered by direct children) and the summed counters."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, counters) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        for key, value in counters.items():
            entry[key] = entry.get(key, 0) + value
    return out
