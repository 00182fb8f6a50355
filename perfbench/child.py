"""One measured repetition of a workload, run in a fresh process.

Invoked by run.py as ``python3 perfbench/child.py '<json spec>'`` with
``src/`` on PYTHONPATH. The spec names the workload, seed, paths, jobs,
whether to trace, and the monotonic clock reading taken just before this
process was spawned, so that set-up time counts interpreter start and imports.
The result is written as JSON to ``spec["result"]``.
"""

import json
import resource
import sys
import time
from contextlib import nullcontext


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    spec = json.loads(sys.argv[1])

    from distillchain import experiment

    from workloads import WORKLOADS, experiment_config

    workload = WORKLOADS[spec["workload"]]
    cfg = experiment_config(
        workload, spec["seed"], spec["out_dir"], spec["data_dir"], spec["jobs"]
    )
    experiment.prepare_dataset(cfg)
    result = {"setup_s": _clock() - spec["t_spawn"]}

    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer, summarize

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        with tracer.span("experiment.sweep") if tracer else nullcontext():
            experiment.run_chain_experiment(cfg)
        result["sweep_s"] = time.perf_counter() - t0
        if tracer:
            result["trace"] = summarize(tracer.spans)
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
