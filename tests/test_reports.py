"""The results files: each row dataclass is its file's schema, written by
``write_rows`` and read back by ``read_rows``."""

import re

import pytest

from distillchain.cli import main
from distillchain.experiment import aggregate_runs
from distillchain.reports import (
    RunRow,
    SummaryCell,
    TraceRow,
    best_baseline_mean,
    read_rows,
    write_rows,
)

from conftest import SUMMARY_HEADER

ROWS = {
    RunRow: [
        RunRow("baseline", 0.0025, 0, 123456789012345678, "ok", None, 0.5, 0.25),
        RunRow("chain_best", 0.05, 3, 7, "ok", 2, 0.1 + 0.2, 1.0),
        RunRow("chain_final", 1.0, 4, 0, "skipped: empty pool; nothing to label"),
    ],
    TraceRow: [
        TraceRow(0, 0.0025, 0, 0.4, 0.35, 0, None),
        TraceRow(1, 1.0, 2, 1.0, 0.0, 6300, 0.9123456789),
    ],
    SummaryCell: [
        SummaryCell("baseline", 0.0025, "val_accuracy", 0.5, 0.0, 0.5, 0.5, 1, "n=1"),
        SummaryCell("chain_best", 0.05, "test_accuracy", 0.7, 0.1414213562373095, 0.6, 0.8, 5),
        SummaryCell("chain_final", 1.0, "test_accuracy", None, None, None, None, 0, "no data"),
    ],
}


@pytest.mark.parametrize("cls", ROWS)
def test_rows_round_trip_to_the_same_bytes(tmp_path, cls):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_rows(first, cls, ROWS[cls])
    back = read_rows(first, cls)
    assert back == ROWS[cls]
    write_rows(second, cls, back)
    assert second.read_bytes() == first.read_bytes()


GOOD_RUNS = (
    "mode,fraction,run,seed,status,iteration,val_accuracy,test_accuracy\n"
    "chain_best,0.01,0,5,ok,1,0.5,0.5\n"
)
GOOD_TRACES = (
    "run,fraction,iteration,val_accuracy,test_accuracy,pseudo_count,pseudo_agreement\n"
    "0,0.01,0,0.5,0.5,0,\n"
)
NOT_OK_RUN = "line 3: an ok row needs val and test accuracies in [0, 1]"
NOT_A_TRACE = "line 3: accuracies and agreement must be in [0, 1], fraction in (0, 1], iteration, pseudo count and run >= 0"


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("runs.csv", GOOD_RUNS + "chain_best,0.01\n", "line 3: expected 8 fields, got 2"),
        (
            "runs.csv", GOOD_RUNS + "chain_best,0.01,1,5,ok,1,high,0.5\n",
            "line 3: could not convert string to float: 'high'",
        ),
        (
            "runs.csv", GOOD_RUNS + "chain_best,0.01,1,5,ok,two,0.5,0\n",
            "line 3: invalid literal for int() with base 10: 'two'",
        ),
        (
            "runs.csv", GOOD_RUNS + "chain_best,0.01,,5,ok,,0.5,\n",
            "line 3: invalid literal for int() with base 10: ''",
        ),
        ("runs.csv", GOOD_RUNS.replace("seed", "sead"), "line 1: expected the header"),
        ("runs.csv", "", "line 1: expected the header"),
        ("runs.csv", GOOD_RUNS + "chain_best,0.01,1,5,ok,1,,0.5\n", NOT_OK_RUN),
        ("runs.csv", GOOD_RUNS + "chain_best,0.01,1,5,ok,1,0.5,nan\n", NOT_OK_RUN),
        ("runs.csv", GOOD_RUNS + "chain_best,0.01,1,5,ok,1,7.5,0.5\n", NOT_OK_RUN),
        ("traces.csv", GOOD_TRACES + "0,0.01,-2,0.5,0.5,3,0.5\n", NOT_A_TRACE),
        ("traces.csv", GOOD_TRACES + "0,0.01,1,3.0,0.5,3,0.5\n", NOT_A_TRACE),
        ("traces.csv", GOOD_TRACES + "0,0.01,1,0.5,nan,3,0.5\n", NOT_A_TRACE),
        ("traces.csv", GOOD_TRACES + "0,0.01,1,0.5,0.5,-5,0.5\n", NOT_A_TRACE),
        ("traces.csv", GOOD_TRACES + "0,0.01,1,0.5,0.5,3,1.5\n", NOT_A_TRACE),
    ],
    ids=[
        "short row", "non-numeric float", "non-numeric int", "empty required", "bad header", "empty file",
        "ok without accuracy", "ok with nan accuracy", "ok with accuracy above 1",
        "negative iteration", "accuracy above 1", "nan accuracy", "negative pseudo count", "agreement above 1",
    ],
)
def test_malformed_results_name_the_file_and_line(tmp_path, capsys, name, text, where):
    out = tmp_path / "out"
    out.mkdir()
    (out / "runs.csv").write_text(GOOD_RUNS, encoding="utf-8")
    path = out / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_rows(path, TraceRow if name == "traces.csv" else RunRow)
    assert str(excinfo.value).startswith(f"{path}: {where}")
    assert main(["report", "--out", str(out)]) == 1
    assert f"{path}: {where}" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_a_byte_order_mark_is_read_past(tmp_path):
    # as spreadsheet programs write one; the header still parses
    path = tmp_path / "runs.csv"
    path.write_text("\ufeff" + GOOD_RUNS, encoding="utf-8")
    assert read_rows(path, RunRow) == [RunRow("chain_best", 0.01, 0, 5, "ok", 1, 0.5, 0.5)]


def test_report_refuses_a_repeated_run(tmp_path, capsys):
    # two identical rows would each count toward their cell's mean
    out = tmp_path / "out"
    out.mkdir()
    runs = out / "runs.csv"
    runs.write_text(GOOD_RUNS + GOOD_RUNS.splitlines()[1] + "\n", encoding="utf-8")
    repeated = "repeated (mode, fraction, run) ('chain_best', 0.01, 0)"
    with pytest.raises(ValueError, match=re.escape(repeated)):
        aggregate_runs(read_rows(runs, RunRow))
    assert main(["report", "--out", str(out)]) == 1
    assert f"{runs}: {repeated}" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["runs.csv"]


@pytest.mark.parametrize(
    "values",
    [
        (float("nan"), 0.0, 0.5, 0.5, 2), (7.5, 0.0, 0.5, 0.5, 2), (0.5, 0.0, -0.1, 0.5, 2),
        (0.5, float("nan"), 0.5, 0.5, 2), (0.5, float("inf"), 0.5, 0.5, 2), (0.5, -1.0, 0.5, 0.5, 2),
        (0.5, 0.0, 0.5, 0.5, -1),
    ],
    ids=["nan mean", "mean above 1", "negative min", "nan std", "infinite std", "negative std", "negative n"],
)
def test_a_summary_cell_holds_only_what_aggregate_runs_writes(tmp_path, values):
    path = tmp_path / "summary.csv"
    path.write_text(f"{SUMMARY_HEADER}\nbaseline,0.2,test_accuracy,{','.join(map(str, values))},\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: mean, min and max must be in"):
        read_rows(path, SummaryCell)


def test_best_baseline_mean_needs_a_baseline_row(tmp_path):
    path = tmp_path / "summary.csv"
    write_rows(path, SummaryCell, ROWS[SummaryCell])
    with pytest.raises(ValueError, match="no baseline test_accuracy mean") as excinfo:
        best_baseline_mean(path)
    assert str(path) in str(excinfo.value)
    cells = [*ROWS[SummaryCell], SummaryCell("baseline", 0.2, "test_accuracy", 0.625, 0.0, 0.6, 0.65, 2)]
    write_rows(path, SummaryCell, cells)
    assert best_baseline_mean(path) == 0.625
