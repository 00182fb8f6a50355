"""Result row schema and deterministic file emission.

Each row dataclass is its CSV file's schema: its field names, in order, are
the header and the columns. Floats are written with ``repr`` and rows sorted
canonically, so two runs with the same configuration and master seed
produce byte-identical files regardless of worker parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .dataset import ClassCatalog, TableParseError, read_lines

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

    def __post_init__(self) -> None:  # nan fails every comparison
        if self.ok and not all(a is not None and 0 <= a <= 1 for a in (self.val_accuracy, self.test_accuracy)):
            raise ValueError("an ok row needs val and test accuracies in [0, 1]")

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

    def __post_init__(self) -> None:
        shares = (self.val_accuracy, self.test_accuracy, self.pseudo_agreement)
        if not all(0 <= x <= 1 for x in shares if x is not None) or min(self.iteration, self.pseudo_count) < 0:
            raise ValueError("accuracies and agreement must be in [0, 1], iteration and pseudo count >= 0")


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

    def __post_init__(self) -> None:
        shares = (self.mean, self.min, self.max)
        if not all(0 <= x <= 1 for x in shares if x is not None) or not 0 <= (self.std or 0) < np.inf or self.n < 0:
            raise ValueError("mean, min and max must be in [0, 1], std finite and >= 0, n >= 0")


@dataclass(frozen=True)
class RunSummary:
    """Aggregated mean/std/min/max cells plus the per-run detail rows they
    came from, sorted by (fraction, mode, run)."""

    cells: tuple[SummaryCell, ...]
    details: tuple[RunRow, ...]


SUMMARY_HEADER = ",".join(f.name for f in fields(SummaryCell))


def _fmt(x: str | float | int | None) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _parser(hint):
    """The parser of a column's text for a field typed ``hint``; an optional
    field reads the empty text as None."""
    args = get_args(hint)
    if type(None) not in args:
        return hint
    (base,) = (a for a in args if a is not type(None))
    return lambda text: None if text == "" else base(text)


def fraction_tag(fraction: float) -> str:
    return format(fraction, "g")


def write_csv(path: Path | str, header, rows) -> None:
    """The ``header`` line, then one line per row, each value formatted by ``_fmt``."""
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_rows(path: Path | str, cls, rows) -> None:
    """Write ``rows``, instances of the row dataclass ``cls``, in the given
    order under ``cls``'s header, through :func:`write_csv`."""
    names = [f.name for f in fields(cls)]
    write_csv(path, names, ([getattr(r, name) for name in names] for r in rows))


def read_rows(path: Path | str, cls) -> list:
    """The ``cls`` rows of a file ``write_rows`` wrote, read by read_lines:
    each column parsed by its field's declared type, blank lines skipped. A bad
    header, field count or value raises TableParseError naming the file and line."""
    hints = get_type_hints(cls)
    header = ",".join(f.name for f in fields(cls))
    parsers = [_parser(hints[f.name]) for f in fields(cls)]
    lines = read_lines(path)
    if not lines or lines[0] != header:
        raise TableParseError(f"{path}: line 1: expected the header {header}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        texts = line.split(",")
        if len(texts) != len(parsers):
            raise TableParseError(f"{path}: line {lineno}: expected {len(parsers)} fields, got {len(texts)}")
        try:
            rows.append(cls(*(parse(text) for parse, text in zip(parsers, texts))))
        except ValueError as exc:
            raise TableParseError(f"{path}: line {lineno}: {exc}") from None
    return rows


# perfbench/oracle.py imports these three by name; the package itself
# reads and writes every row file through read_rows and write_rows.
def write_summary_csv(path: Path | str, summary: RunSummary) -> None:
    write_rows(path, SummaryCell, summary.cells)


def read_runs_csv(path: Path | str) -> list[RunRow]:
    return read_rows(path, RunRow)


def read_traces_csv(path: Path | str) -> list[TraceRow]:
    return read_rows(path, TraceRow)


def write_confusion_csv(path: Path | str, catalog: ClassCatalog, confusion: np.ndarray) -> None:
    rows = ([name, *counts] for name, counts in zip(catalog.names, confusion.tolist()))
    write_csv(path, ["true_class", *catalog.names], rows)


def best_baseline_mean(summary_path: Path | str) -> float:
    """Largest mean baseline test accuracy in a summary file, for the
    reference line of the chain chart; a summary without one, such as a
    chain sweep's own, raises TableParseError naming the file."""
    means = [
        c.mean
        for c in read_rows(summary_path, SummaryCell)
        if c.mode == "baseline" and c.metric == "test_accuracy" and c.mean is not None
    ]
    if not means:
        raise TableParseError(f"{summary_path}: no baseline test_accuracy mean; not a baseline sweep's summary")
    return max(means)


def render_chain_svg(
    traces: list[TraceRow] | tuple[TraceRow, ...],
    baseline_reference: float | None = None,
) -> str:
    """Line chart of test accuracy per iteration: one panel per fraction, one
    polyline per run, plus a horizontal reference line at
    ``baseline_reference``, the best mean baseline test accuracy of a
    summary, when given, else at the best mean teacher test accuracy of
    ``traces``, when they hold a teacher."""
    if baseline_reference is None:
        by_fraction: dict[float, list[float]] = {}
        for t in traces:
            if t.iteration == 0:
                by_fraction.setdefault(t.fraction, []).append(t.test_accuracy)
        baseline_reference = max((float(np.mean(v)) for v in by_fraction.values()), default=None)
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
