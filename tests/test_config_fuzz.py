"""A config-space fuzzer. Hypothesis draws edge values for one to three
configuration keys on top of a tiny baseline or chain sweep, from a tiny
synthetic source or a tiny files source, and runs the CLI in-process; a
``data.*`` key may also draw a table with an extra feature column or one
with a header and no rows. The draws are pinned by a fixed seed, so that
editing the test does not change them. Every
config either fails before any cell trains (exit 1, no out dir, and an
``error: invalid configuration: `` line or one naming a data file) or runs
cleanly (exit 0, no warning or stderr text, every row ``ok`` or skipped with
a reason, and a ``report`` over the out dir rewrites it byte for byte, again
once the rows of its ``runs.csv`` are reversed); the
CLI never exits 2. A skip reason shared by every row of a sweep of two runs
is a suspect config fault, and must be a training blow-up: a config no cell
can train with is to fail before the sweep instead.

Work-size keys (``synthetic.per_class``, ``*.steps_per_epoch``,
``*.max_epochs``, ``*.batch_size``, ``arch.hidden``, ``runs``) draw no giant
values: those measure run time and memory, not validation. ``out`` is not
drawn, as the oracle reads the out dir it sets.
"""

import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, event, given, seed, settings
from hypothesis import strategies as st

from distillchain import chain, generate_synthetic, write_table
from distillchain.cli import main
from distillchain.experiment import CONFIG_KEYS, _parse_bool, _parse_int_or_none
from distillchain.reports import RunRow, read_rows

from conftest import reverse_rows

CLASSES = 3
FLOAT_EDGES = ("0", "1", "-1", "1e-300", "1.7976931348623157e308", "nan", "inf", "-inf")
INT_EDGES = ("0", "1", "-1", "2", str(CLASSES + 1))
TEXT_EDGES = ("", "none", "1,,x", "3,1")  # empty, none, a bad list, a decreasing list
TABLE_EDGES = ("wide.csv", "empty.csv")  # files of the data dir: an extra feature column; no rows
DATA_KEYS = ("data.train", "data.validation", "data.test")


def edges(key):
    parse = CONFIG_KEYS[key][0]
    if parse is float:
        return FLOAT_EDGES
    if parse is int:
        return INT_EDGES
    if parse is _parse_int_or_none:
        return (*INT_EDGES, "none")
    if parse is _parse_bool:
        return ("true", "false", *TEXT_EDGES)
    if key in DATA_KEYS:
        return (*TEXT_EDGES, *TABLE_EDGES)
    return TEXT_EDGES  # the source's kind or a list


TINY = {
    "fractions": "0.5", "runs": "2", "early_stop_fraction": "0.2", "chain.iterations": "1",
    **{f"{phase}.{name}": "2" for phase in ("train", "chain.pretrain", "chain.finetune")
       for name in ("max_epochs", "steps_per_epoch")},
}
SYNTHETIC = {"synthetic.classes": str(CLASSES), "synthetic.per_class": "10", "synthetic.dim": "2"}

EDGE_VALUES = [(key, value) for key in CONFIG_KEYS if key != "out" for value in edges(key)]
overrides = st.lists(st.sampled_from(EDGE_VALUES), min_size=1, max_size=3, unique_by=lambda kv: kv[0]).map(dict)


@given(
    command=st.sampled_from(["baseline", "chain"]),
    source=st.sampled_from(["synthetic", "files"]),
    drawn=overrides,
)
@seed(30)
@settings(
    max_examples=400, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_config_fails_before_training_or_runs_cleanly(tmp_path_factory, capfd, command, source, drawn):
    data = tmp_path_factory.getbasetemp() / "fuzz_data"
    if not data.exists():
        data.mkdir()
        tables = generate_synthetic(CLASSES, 10, 2, 0.5, seed=3)
        for name, table in zip(("train", "validation", "test"), tables):
            write_table(data / f"{name}.csv", table)
        val = tables[1]
        write_table(data / "wide.csv", replace(val, features=np.hstack([val.features, val.features[:, :1]])))
        write_table(data / "empty.csv", replace(val, ids=val.ids[:0], features=val.features[:0], labels=val.labels[:0]))
    files = {"source": "files", **{f"data.{name}": str(data / f"{name}.csv") for name in ("train", "validation", "test")}}
    drawn = {key: str(data / value) if value in TABLE_EDGES else value for key, value in drawn.items()}
    values = {**TINY, **(SYNTHETIC if source == "synthetic" else files), **drawn}
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        out = Path(work) / "out"
        argv = [command, *(f"--{key}={value}" for key, value in values.items()), f"--out={out}"]
        capfd.readouterr()
        with mock.patch.object(chain, "train_lockstep", wraps=chain.train_lockstep) as trainer, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capfd.readouterr().err
        event(f"exit {code}")
        assert code in (0, 1), err
        if code == 1:
            inputs = [values[key] for key in DATA_KEYS if values.get(key)]  # the data files, drawn or not
            named = err.startswith("error: ") and any(path in err for path in inputs)
            assert err.startswith("error: invalid configuration: ") or named, err
            assert not out.exists() and not trainer.called
            return
        assert err == "" and not caught, (err, [str(w.message) for w in caught])
        rows = read_rows(out / "runs.csv", RunRow)
        assert rows and all(r.status == "ok" or r.status.startswith("skipped: ") and r.status[9:].strip() for r in rows)
        statuses = {r.status for r in rows}
        if len(statuses) == 1 and not rows[0].ok:
            event("one skip reason in every cell")
            assert "non-finite" in rows[0].status, rows[0].status
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        for reorder in (False, True):  # runs.csv as written, then its rows reversed
            if reorder:
                reverse_rows(out / "runs.csv")
            assert main(["report", f"--out={out}"]) == 0
            assert capfd.readouterr().err == ""
            assert {p.name: p.read_bytes() for p in out.iterdir()} == written
