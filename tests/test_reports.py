"""The results files: each row dataclass is its file's schema, written by
``write_rows`` and read back by ``read_rows``."""

import pytest

from distillchain.cli import main
from distillchain.reports import (
    RunRow,
    SummaryCell,
    TraceRow,
    best_baseline_mean,
    read_rows,
    write_rows,
)

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


@pytest.mark.parametrize(
    "text, where",
    [
        (GOOD_RUNS + "chain_best,0.01\n", "line 3: expected 8 fields, got 2"),
        (GOOD_RUNS + "chain_best,0.01,1,5,ok,1,high,0.5\n", "line 3: could not convert string to float: 'high'"),
        (GOOD_RUNS + "chain_best,0.01,1,5,ok,two,0.5,0\n", "line 3: invalid literal for int() with base 10: 'two'"),
        (GOOD_RUNS + "chain_best,0.01,,5,ok,,0.5,\n", "line 3: invalid literal for int() with base 10: ''"),
        (GOOD_RUNS.replace("seed", "sead"), "line 1: expected the header"),
        ("", "line 1: expected the header"),
    ],
    ids=["short row", "non-numeric float", "non-numeric int", "empty required", "bad header", "empty file"],
)
def test_malformed_results_name_the_file_and_line(tmp_path, capsys, text, where):
    out = tmp_path / "out"
    out.mkdir()
    runs = out / "runs.csv"
    runs.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_rows(runs, RunRow)
    assert str(excinfo.value).startswith(f"{runs}: {where}")
    assert main(["report", "--out", str(out)]) == 1
    assert f"{runs}: {where}" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_best_baseline_mean_needs_a_baseline_row(tmp_path):
    path = tmp_path / "summary.csv"
    write_rows(path, SummaryCell, ROWS[SummaryCell])
    with pytest.raises(ValueError, match="no baseline test_accuracy mean") as excinfo:
        best_baseline_mean(path)
    assert str(path) in str(excinfo.value)
    cells = [*ROWS[SummaryCell], SummaryCell("baseline", 0.2, "test_accuracy", 0.625, 0.0, 0.6, 0.65, 2)]
    write_rows(path, SummaryCell, cells)
    assert best_baseline_mean(path) == 0.625
