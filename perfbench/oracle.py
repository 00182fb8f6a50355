"""Output oracle: hashes of every output file, and the internal consistency
checks that hold for any seed."""

from __future__ import annotations

import hashlib
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path


def file_hashes(out_dir: Path) -> dict[str, str]:
    """First 16 hex digits of the sha256 of every file under ``out_dir``.

    ``config_resolved.cfg`` echoes ``jobs``, the one setting that by contract
    never changes results, so that line is left out of its hash; every other
    byte counts.
    """
    hashes = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "config_resolved.cfg":
            data = b"".join(
                line for line in data.splitlines(keepends=True) if not line.startswith(b"jobs = ")
            )
        hashes[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()[:16]
    return hashes


@dataclass
class Outcome:
    """What one repetition's outputs say."""

    rows: int = 0
    rows_ok: int = 0
    problems: list[str] = field(default_factory=list)
    test_acc_mean: float = math.nan
    chain_gap: float = math.nan
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_outputs(out_dir: Path, expected_rows: int) -> Outcome:
    """Consistency checks that hold for any seed:

    - summary.csv is what ``aggregate_runs(read_runs_csv(runs.csv))`` gives
      when written with ``write_summary_csv``, byte for byte;
    - every ``ok`` row has finite accuracies;
    - runs.csv has a chain_best and a chain_final row per (fraction, run).

    Also derives the scarcest-fraction accuracy figures.
    """
    from distillchain.experiment import aggregate_runs
    from distillchain.reports import read_runs_csv, read_traces_csv, write_summary_csv

    out = Outcome()
    try:
        out.hashes = file_hashes(out_dir)
        rows = read_runs_csv(out_dir / "runs.csv")
        with tempfile.TemporaryDirectory(dir=out_dir.parent) as tmp:
            rebuilt = Path(tmp) / "summary.csv"
            write_summary_csv(rebuilt, aggregate_runs(rows))
            if rebuilt.read_bytes() != (out_dir / "summary.csv").read_bytes():
                out.problems.append("summary.csv differs from the aggregate of runs.csv")
        traces = read_traces_csv(out_dir / "traces.csv")
    except (OSError, ValueError) as exc:
        out.problems.append(f"unreadable outputs: {exc}")
        return out

    out.rows = len(rows)
    out.rows_ok = sum(r.ok for r in rows)
    if len(rows) != expected_rows:
        out.problems.append(f"runs.csv has {len(rows)} rows, expected {expected_rows}")
    for r in rows:
        if r.ok and not all(
            v is not None and math.isfinite(v) for v in (r.val_accuracy, r.test_accuracy)
        ):
            out.problems.append(f"ok row {r.mode} {r.fraction} {r.run} has a non-finite accuracy")

    if rows:
        scarcest = min(r.fraction for r in rows)
        best = [
            r.test_accuracy for r in rows if r.ok and r.mode == "chain_best" and r.fraction == scarcest
        ]
        if best:
            out.test_acc_mean = sum(best) / len(best)
        teacher = [t.test_accuracy for t in traces if t.iteration == 0 and t.fraction == scarcest]
        if best and teacher:
            out.chain_gap = out.test_acc_mean - sum(teacher) / len(teacher)
    if not math.isfinite(out.test_acc_mean):
        out.problems.append("no ok row at the scarcest fraction")
    return out
