"""Result row schema and deterministic file emission.

Every writer formats floats with ``repr`` and sorts rows canonically, so two
runs with the same configuration and master seed produce byte-identical
files regardless of worker parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ClassCatalog

TRACES_HEADER = "run,fraction,iteration,val_accuracy,test_accuracy,pseudo_count,pseudo_agreement"
RUNS_HEADER = "mode,fraction,run,seed,status,iteration,val_accuracy,test_accuracy"
SUMMARY_HEADER = "mode,fraction,metric,mean,std,min,max,n,note"

_SVG_PALETTE = ("#1f77b4", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


@dataclass(frozen=True)
class RunRow:
    """One per-run result cell; skipped cells keep their status instead of
    vanishing."""

    mode: str
    fraction: float
    run: int
    seed: int
    status: str = "ok"
    iteration: int | None = None
    val_accuracy: float | None = None
    test_accuracy: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class TraceRow:
    run: int
    fraction: float
    iteration: int
    val_accuracy: float
    test_accuracy: float
    pseudo_count: int
    pseudo_agreement: float | None


@dataclass(frozen=True)
class SummaryCell:
    mode: str
    fraction: float
    metric: str
    mean: float | None
    std: float | None
    min: float | None
    max: float | None
    n: int
    note: str = ""


@dataclass(frozen=True)
class RunSummary:
    """Aggregated mean/std/min/max cells plus the per-run detail rows they
    came from."""

    cells: tuple[SummaryCell, ...]
    details: tuple[RunRow, ...]


def _fmt(x: float | int | None) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def fraction_tag(fraction: float) -> str:
    return format(fraction, "g")


def write_summary_csv(path: Path | str, summary: RunSummary) -> None:
    lines = [SUMMARY_HEADER]
    for c in summary.cells:
        lines.append(
            f"{c.mode},{_fmt(c.fraction)},{c.metric},{_fmt(c.mean)},{_fmt(c.std)},"
            f"{_fmt(c.min)},{_fmt(c.max)},{c.n},{c.note}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_runs_csv(path: Path | str, rows: list[RunRow] | tuple[RunRow, ...]) -> None:
    ordered = sorted(rows, key=lambda r: (r.fraction, r.mode, r.run))
    lines = [RUNS_HEADER]
    for r in ordered:
        iteration = "" if r.iteration is None else str(r.iteration)
        lines.append(
            f"{r.mode},{_fmt(r.fraction)},{r.run},{r.seed},{r.status},{iteration},"
            f"{_fmt(r.val_accuracy)},{_fmt(r.test_accuracy)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_traces_csv(path: Path | str, traces: list[TraceRow] | tuple[TraceRow, ...]) -> None:
    ordered = sorted(traces, key=lambda t: (t.fraction, t.run, t.iteration))
    lines = [TRACES_HEADER]
    for t in ordered:
        lines.append(
            f"{t.run},{_fmt(t.fraction)},{t.iteration},{_fmt(t.val_accuracy)},"
            f"{_fmt(t.test_accuracy)},{t.pseudo_count},{_fmt(t.pseudo_agreement)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_confusion_csv(path: Path | str, catalog: ClassCatalog, confusion: np.ndarray) -> None:
    lines = ["true_class," + ",".join(catalog.names)]
    for i, name in enumerate(catalog.names):
        lines.append(name + "," + ",".join(str(int(v)) for v in confusion[i]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _data_lines(path: Path | str, header: str, kind: str) -> list[list[str]]:
    """The fields of each non-blank line after ``header``, the file's first."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: unexpected {kind} header")
    return [line.split(",") for line in lines[1:] if line]


def read_runs_csv(path: Path | str) -> list[RunRow]:
    rows = []
    for fields in _data_lines(path, RUNS_HEADER, "runs"):
        mode, fraction, run, seed, status, iteration, val, test = fields
        rows.append(
            RunRow(
                mode=mode,
                fraction=float(fraction),
                run=int(run),
                seed=int(seed),
                status=status,
                iteration=None if iteration == "" else int(iteration),
                val_accuracy=None if val == "" else float(val),
                test_accuracy=None if test == "" else float(test),
            )
        )
    return rows


def read_traces_csv(path: Path | str) -> list[TraceRow]:
    rows = []
    for fields in _data_lines(path, TRACES_HEADER, "traces"):
        run, fraction, iteration, val, test, count, agreement = fields
        rows.append(
            TraceRow(
                run=int(run),
                fraction=float(fraction),
                iteration=int(iteration),
                val_accuracy=float(val),
                test_accuracy=float(test),
                pseudo_count=int(count),
                pseudo_agreement=None if agreement == "" else float(agreement),
            )
        )
    return rows


def best_baseline_mean(summary_path: Path | str) -> float | None:
    """Largest mean baseline test accuracy in a summary file, for the
    reference line of the chain chart; None when it has no such row."""
    means = [
        float(fields[3])
        for fields in _data_lines(summary_path, SUMMARY_HEADER, "summary")
        if fields[0] == "baseline" and fields[2] == "test_accuracy" and fields[3]
    ]
    return max(means, default=None)


def render_chain_svg(
    traces: list[TraceRow] | tuple[TraceRow, ...],
    baseline_reference: float | None = None,
) -> str:
    """Line chart of test accuracy per iteration: one panel per fraction, one
    polyline per run, plus an optional horizontal baseline reference."""
    fractions = sorted({t.fraction for t in traces})
    panel_w, panel_h, margin, gap = 280, 240, 46, 24
    width = margin + len(fractions) * (panel_w + gap)
    height = panel_h + 2 * margin
    max_iter = max((t.iteration for t in traces), default=1)

    def x_at(panel: int, iteration: int) -> float:
        x0 = margin + panel * (panel_w + gap)
        return x0 + panel_w * (iteration / max(max_iter, 1))

    def y_at(acc: float) -> float:
        return margin + panel_h * (1.0 - acc)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for p, fraction in enumerate(fractions):
        x0 = margin + p * (panel_w + gap)
        parts.append(
            f'<rect x="{x0}" y="{margin}" width="{panel_w}" height="{panel_h}" '
            'fill="none" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x0 + panel_w / 2:.1f}" y="{margin - 8}" text-anchor="middle">'
            f"labelled fraction {fraction_tag(fraction)}</text>"
        )
        for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
            y = y_at(tick)
            parts.append(
                f'<line x1="{x0}" y1="{y:.1f}" x2="{x0 + panel_w}" y2="{y:.1f}" '
                'stroke="#dddddd"/>'
            )
            if p == 0:
                parts.append(
                    f'<text x="{x0 - 6}" y="{y + 4:.1f}" text-anchor="end">{tick:g}</text>'
                )
        for it in range(max_iter + 1):
            parts.append(
                f'<text x="{x_at(p, it):.1f}" y="{margin + panel_h + 16}" '
                f'text-anchor="middle">{it}</text>'
            )
        if baseline_reference is not None:
            y = y_at(baseline_reference)
            parts.append(
                f'<line x1="{x0}" y1="{y:.1f}" x2="{x0 + panel_w}" y2="{y:.1f}" '
                'stroke="#2ca02c" stroke-width="1.5"/>'
            )
        runs = sorted({t.run for t in traces if t.fraction == fraction})
        for run in runs:
            series = sorted(
                (t for t in traces if t.fraction == fraction and t.run == run),
                key=lambda t: t.iteration,
            )
            points = " ".join(
                f"{x_at(p, t.iteration):.1f},{y_at(t.test_accuracy):.1f}" for t in series
            )
            color = _SVG_PALETTE[run % len(_SVG_PALETTE)]
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.3"/>'
            )
    if baseline_reference is not None:
        parts.append(
            f'<text x="{margin}" y="{height - 8}" fill="#2ca02c">'
            f"reference: best baseline mean test accuracy {baseline_reference:.4f}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
