import errno
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from distillchain import (
    ChainConfig,
    DistillConfig,
    ExperimentConfig,
    TrainConfig,
    chain,
    experiment,
    generate_synthetic,
    read_table,
    run_baseline_sweep,
    write_table,
)
from distillchain.cli import ConfigError, _make_parser, _resolve_config, main, parse_config_file
from distillchain.experiment import CONFIG_KEYS, DataFiles, SyntheticSpec, build_config, config_to_lines
from distillchain.reports import SUMMARY_HEADER, RunRow, write_rows

from conftest import blank_label


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "distillchain.cli", *args], capture_output=True, text=True
    )


# A files source whose paths need not exist: build_config does not read them.
FILES = {"source": "files", "data.train": "a.csv", "data.validation": "b.csv", "data.test": "c.csv"}


def resolve(*argv):
    """The ExperimentConfig the CLI resolves for ``baseline`` with ``argv``."""
    return _resolve_config(_make_parser().parse_args(["baseline", *argv]))


FAST = [
    "--synthetic.classes", "3", "--synthetic.per_class", "40", "--synthetic.dim", "3",
    "--synthetic.spread", "0.4", "--fractions", "0.2", "--runs", "1",
    "--early_stop_fraction", "0.1", "--train.max_epochs", "2",
    "--chain.iterations", "1", "--chain.pretrain.max_epochs", "2",
    "--chain.finetune.max_epochs", "2", "--chain.per_class_cap", "none",
]


def spoil(path, lineno):
    """Put a byte that is not UTF-8 at the start of line ``lineno`` (from 1) of ``path``."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = b"\xff" + lines[lineno - 1]
    path.write_bytes(b"".join(lines))


# what every cell of a 3-class sweep with too small an early-stop reserve would hit
NO_RESERVE = "early-stop set of 0 cannot cover 3 classes; increase early_stop_fraction or the table size"
LR_FAULT = "learning_rate must be positive and finite"


class TestConfigFile:
    def test_parse_comments_and_dotted_keys(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            """
# benchmark settings
seed = 9
chain.iterations = 4   # short chain
fractions = 0.01,0.05
arch.hidden = 8,4
""".lstrip()
        )
        values = parse_config_file(cfg)
        assert values["seed"] == "9"
        assert values["chain.iterations"] == "4"
        assert values["arch.hidden"] == "8,4"

    def test_byte_order_mark_is_read_past(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfsource = synthetic\nseed = 9\n")
        assert parse_config_file(cfg) == {"source": "synthetic", "seed": "9"}

    def test_unknown_key_names_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed = 1\nnot_a_key = 2\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_file(cfg)

    def test_build_config_round_trips_defaults(self):
        cfg = build_config(dict(line.split(" = ") for line in config_to_lines(ExperimentConfig())))
        assert cfg == build_config({}) == resolve() == ExperimentConfig()
        assert isinstance(cfg.source, SyntheticSpec)
        assert cfg.fractions == (0.0025, 0.005, 0.01, 0.05, 0.20, 1.0)
        assert cfg.runs == 5
        assert cfg.chain.iterations == 5
        assert cfg.chain.distill.per_class_cap == 4000

    def test_files_source_requires_paths(self):
        with pytest.raises(ConfigError, match="data.train"):
            resolve("--source", "files")
        with pytest.raises(ConfigError, match="requires data.test$"):
            resolve("--source", "files", "--data.train", "a.csv", "--data.validation", "b.csv", "--data.test", "")
        cfg = resolve(
            "--source", "files", "--data.train", "a.csv", "--data.validation", "b.csv", "--data.test", "c.csv"
        )
        assert cfg.source == DataFiles("a.csv", "b.csv", "c.csv")

    @pytest.mark.parametrize("key", ["out", "data.train", "data.validation", "data.test"])
    @pytest.mark.parametrize("text", ["r#1", " r", "r\t", "r\n1", "r\u20281"])
    def test_texts_the_echo_cannot_carry_are_rejected_by_key(self, key, text):
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must hold no '#' or line break"):
            build_config({**FILES, key: text})

    @pytest.mark.parametrize("key", ["out", "data.train"])
    @pytest.mark.parametrize("text", ["r#1", "r 1", "a=b", "r/ü x", " r", "r\n1", "", "c:\\r;1"])
    def test_an_accepted_config_reads_back_from_its_echo(self, tmp_path, key, text):
        # the config file reader cuts a line at its first '#' and strips the
        # value, so the echo of any config built must survive both
        try:
            cfg = build_config({**FILES, key: text})
        except ValueError as exc:
            assert key in str(exc)
            return
        echo = tmp_path / "config_resolved.cfg"
        echo.write_text("\n".join(config_to_lines(cfg)) + "\n", encoding="utf-8")
        assert build_config(parse_config_file(echo)) == cfg

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--runs", "zero"), "bad value for runs"),
            (("--runs", "0"), "runs must be >= 1"),
            (("--fractions", "0.5,0.2"), "strictly increasing"),
            (("--fractions", "0.05,0.05000001"), "fractions must differ in their output tags"),
            (("--fractions", "0.99", "--early_stop_fraction", "0.05"), "must not exceed 1"),
            (("--fractions", ""), "bad value for fractions"),
            (("--source", "tables"), "source must be synthetic or files"),
            (("--balance_labelled", "maybe"), "expected a boolean"),
            (("--arch.hidden", "8,x"), "bad value for arch.hidden"),
            (("--arch.hidden", "8,0"), "arch.hidden widths must be positive"),
            (("--chain.per_class_cap", "0"), "per_class_cap must be positive"),
            (("--chain.pretrain.learning_rate", "-1"), "learning_rate must be positive"),
            (("--chain.iterations", "0"), "iterations must be >= 1"),
            (("--synthetic.dim", "2.5"), "bad value for synthetic.dim"),
            # every value is parsed, also a field of the source not selected
            (
                ("--source", "files", "--data.train", "a.csv", "--data.validation", "b.csv",
                 "--data.test", "c.csv", "--synthetic.spread", "wide"),
                "bad value for synthetic.spread",
            ),
            (("--no_such_key", "1"), "unrecognized arguments"),
        ],
    )
    def test_invalid_values_are_config_errors(self, argv, message):
        with pytest.raises(ConfigError, match=message):
            resolve(*argv)


# The default echo, byte for byte: config_resolved.cfg of a run with no
# config file and no flags.
DEFAULT_ECHO = """\
source = synthetic
synthetic.classes = 9
synthetic.per_class = 900
synthetic.dim = 16
synthetic.spread = 0.9
fractions = 0.0025,0.005,0.01,0.05,0.2,1.0
runs = 5
early_stop_fraction = 0.01
balance_labelled = false
arch.hidden = none
seed = 0
out = results
jobs = 1
dump_pseudo_labels = false
save_models = false
chain.iterations = 5
chain.fresh_init = true
chain.per_class_cap = 4000
chain.top_probs = none
train.learning_rate = 0.001
train.batch_size = 32
train.steps_per_epoch = 100
train.max_epochs = 200
train.patience = 20
chain.pretrain.learning_rate = 0.001
chain.pretrain.batch_size = 32
chain.pretrain.steps_per_epoch = 100
chain.pretrain.max_epochs = 200
chain.pretrain.patience = 20
chain.finetune.learning_rate = 0.0003
chain.finetune.batch_size = 32
chain.finetune.steps_per_epoch = 100
chain.finetune.max_epochs = 60
chain.finetune.patience = 10
"""


class TestSchema:
    def test_default_echo(self):
        assert "\n".join(config_to_lines(ExperimentConfig())) + "\n" == DEFAULT_ECHO

    @pytest.mark.parametrize("command", ["synth", "baseline", "chain", "report"])
    def test_help_lists_every_key(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        flags = {word for word in capsys.readouterr().out.split() if word.startswith("--")}
        assert len(CONFIG_KEYS) == 37
        assert {f"--{key}" for key in CONFIG_KEYS} <= flags

    def test_every_key_round_trips_through_the_echo(self, tmp_path):
        # every key set away from its default under each source it applies
        # to, echoed by a sweep and read back through --config
        paths = [str(tmp_path / f"{name}.csv") for name in ("train", "validation", "test")]
        for path, table in zip(paths, generate_synthetic(3, 30, 3, 0.4, seed=2)):
            write_table(path, table)
        short = TrainConfig(learning_rate=2e-3, batch_size=8, steps_per_epoch=3, max_epochs=2, patience=1)
        common = dict(
            fractions=(0.2, 0.5),
            runs=1,
            early_stop_fraction=0.1,
            balance_labelled=True,
            arch_hidden=(4, 3),
            seed=7,
            jobs=2,
            dump_pseudo_labels=True,
            save_models=True,
            train=short,
            chain=ChainConfig(
                iterations=1,
                distill=DistillConfig(per_class_cap=None, top_probs=2),
                pretrain=TrainConfig(learning_rate=5e-4, batch_size=4, steps_per_epoch=2, max_epochs=3, patience=2),
                finetune=TrainConfig(learning_rate=1e-4, batch_size=16, steps_per_epoch=4, max_epochs=1, patience=3),
                fresh_init_per_student=False,
            ),
        )
        defaults = dict(line.split(" = ") for line in DEFAULT_ECHO.splitlines())
        echoed = set()
        for name, source in (
            ("synthetic", SyntheticSpec(classes=3, per_class=30, dim=3, spread=0.4)),
            ("files", DataFiles(*paths)),
        ):
            cfg = ExperimentConfig(source=source, out_dir=str(tmp_path / name), **common)
            run_baseline_sweep(cfg)
            written = tmp_path / name / "config_resolved.cfg"
            lines = written.read_text().splitlines()
            assert lines == config_to_lines(cfg)
            values = dict(line.split(" = ") for line in lines)
            at_default = [key for key in values if values[key] == defaults.get(key)]
            assert at_default == (["source"] if name == "synthetic" else [])
            assert resolve("--config", str(written)) == cfg
            echoed |= values.keys()
        assert echoed == set(CONFIG_KEYS)


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if any cell trains."""
    def train_lockstep(*args, **kwargs):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(chain, "train_lockstep", train_lockstep)


class TestCliCommands:
    def test_synth_writes_tables(self, tmp_path):
        out = tmp_path / "data"
        result = run_cli(
            "synth", "--synthetic.classes", "3", "--synthetic.per_class", "20",
            "--synthetic.dim", "2", "--out", str(out), "--seed", "5",
        )
        assert result.returncode == 0, result.stderr
        train = read_table(out / "train.csv")
        assert len(train) == 48
        assert (out / "validation.classes").exists()
        assert len(read_table(out / "test.csv")) == 6

    def test_synth_then_files_matches_synthetic_run(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli(
            "synth", "--synthetic.classes", "3", "--synthetic.per_class", "40",
            "--synthetic.dim", "3", "--synthetic.spread", "0.4",
            "--out", str(out), "--seed", "5",
        ).returncode == 0
        a = run_cli(
            "baseline", *FAST, "--seed", "5", "--out", str(tmp_path / "inmem"),
        )
        b = run_cli(
            "baseline", *FAST, "--seed", "5", "--out", str(tmp_path / "fromfile"),
            "--source", "files",
            "--data.train", str(out / "train.csv"),
            "--data.validation", str(out / "validation.csv"),
            "--data.test", str(out / "test.csv"),
        )
        assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
        a_text = (tmp_path / "inmem" / "summary.csv").read_text()
        b_text = (tmp_path / "fromfile" / "summary.csv").read_text()
        assert a_text == b_text

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("synthetic.per_class = 20\nseed = 1\n")
        out = tmp_path / "data"
        result = run_cli("synth", "--config", str(cfg), "--synthetic.per_class", "30", "--out", str(out))
        assert result.returncode == 0
        assert len(read_table(out / "train.csv")) == 9 * 24

    def test_invalid_config_exits_one(self, tmp_path):
        assert run_cli("baseline", "--runs", "zero").returncode == 1
        assert run_cli("baseline", "--config", str(tmp_path / "missing.cfg")).returncode == 1
        assert run_cli("baseline", "--fractions", "0.5,0.2").returncode == 1
        assert run_cli("nonsense").returncode == 1
        out = tmp_path / "out"  # a bad value fails before the sweep makes its out dir
        assert run_cli("baseline", "--arch.hidden", "0", "--out", str(out)).returncode == 1
        no_reserve = ("--fractions", "0.99", "--early_stop_fraction", "0.05")
        assert run_cli("chain", *no_reserve, "--out", str(out)).returncode == 1
        assert run_cli("chain", "--early_stop_fraction", "1.0", "--out", str(out)).returncode == 1
        assert not out.exists()
        # a config path that is no file, or a file that is not UTF-8 text, is named
        result = run_cli("baseline", "--config", str(tmp_path))
        assert (result.returncode, result.stderr) == (1, f"error: invalid configuration: no config file at {tmp_path}\n")
        undecodable = tmp_path / "exp.cfg"
        undecodable.write_text("seed = 1\nruns = 2\n")
        spoil(undecodable, 2)
        result = run_cli("baseline", "--config", str(undecodable))
        assert (result.returncode, result.stderr) == (1, f"error: {undecodable}: line 2: not UTF-8 text\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("chain", "--chain.finetune.learning_rate", "inf"), f"invalid configuration: {LR_FAULT}"),
            (("chain", "--chain.pretrain.learning_rate", "nan"), f"invalid configuration: {LR_FAULT}"),
            (("baseline", "--train.learning_rate", "inf"), f"invalid configuration: {LR_FAULT}"),
            # the table has 3 classes
            (("chain", "--chain.top_probs", "4"), "invalid configuration: chain.top_probs (4) exceeds the 3 classes"),
            (("chain", "--early_stop_fraction", "0"), f"invalid configuration: {NO_RESERVE}"),
            (("baseline", "--early_stop_fraction", "1e-300"), f"invalid configuration: {NO_RESERVE}"),
        ],
        ids=["finetune_inf", "pretrain_nan", "train_inf", "top_probs", "chain_no_reserve", "baseline_tiny_reserve"],
    )
    def test_a_config_no_cell_can_train_on_exits_one_first(self, tmp_path, no_training, capsys, argv, message):
        out = tmp_path / "out"
        assert main([argv[0], *FAST, *argv[1:], "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["baseline", "chain"])
    @pytest.mark.parametrize("fault", ["no reserve", "missing class"])
    def test_a_train_file_no_cell_can_split_exits_one_first(self, tmp_path, no_training, capsys, command, fault):
        paths = [tmp_path / f"{name}.csv" for name in ("train", "validation", "test")]
        train, validation, test = generate_synthetic(3, 40, 3, 0.4, seed=11)
        if fault == "missing class":
            train = replace(train, labels=np.where(train.labels == 2, 0, train.labels))
            message = f"{paths[0]} has no samples for classes ['c2']"  # a fault of the file
        else:
            message = f"invalid configuration: {NO_RESERVE}"
        for path, table in zip(paths, (train, validation, test)):
            write_table(path, table)
        files = ["--source", "files", *(f"--data.{n}={p}" for n, p in zip(("train", "validation", "test"), paths))]
        reserve = "0.01" if fault == "no reserve" else "0.1"
        out = tmp_path / "out"
        assert main([command, *FAST, *files, "--early_stop_fraction", reserve, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_the_cell_count_counts_cells_not_rows(self, tmp_path, capsys):
        for command in ("baseline", "chain"):
            out = tmp_path / command
            assert main([command, *FAST, "--fractions", "0.2,0.5", "--runs", "2", "--out", str(out)]) == 0
            assert capsys.readouterr().out == f"{command} sweep done: 4 cells -> {out}\n"

    def test_a_one_job_sweep_imports_no_unused_module(self, tmp_path):
        # numpy.ma (from np.unique and np.setdiff1d) and the process pool
        # cost a jobs = 1 sweep import time and serve it nothing
        unused = ("numpy.ma", "concurrent.futures.process")
        script = (
            "import sys\n"
            "from distillchain.cli import main\n"
            "for command in ('baseline', 'chain'):\n"
            f"    assert main([command, *{FAST!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            f"print(sorted(set({unused!r}) & set(sys.modules)))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_an_out_dir_the_echo_cannot_carry_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["chain", *FAST, "--out", "r#1"]) == 1
        assert "error: invalid configuration: out must hold no '#'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("fault", ["no label", "catalog", "feature count", "no rows"])
    def test_bad_input_file_exits_one_naming_it(self, tmp_path, no_training, capsys, fault):
        paths = [tmp_path / f"{name}.csv" for name in ("train", "validation", "test")]
        tables = generate_synthetic(3, 40, 3, 0.4, seed=11)
        for path, table in zip(paths, tables):
            write_table(path, table)
        train, validation, test = paths
        if fault == "no label":
            blank_label(train, 3)
            want = f"error: {train}: line 3: no label; every row must be labelled\n"
        elif fault == "catalog":
            test.with_suffix(".classes").write_text("c2,c1,c0\n")
            want = f"error: {test} has {len(tables[2])} rows of 3 features in classes c2,c1,c0; "
        elif fault == "feature count":
            wide = replace(tables[1], features=np.hstack([tables[1].features, tables[1].features[:, :1]]))
            write_table(validation, wide)
            want = f"error: {validation} has {len(wide)} rows of 4 features in classes c0,c1,c2; "
        else:
            test.write_text(test.read_text().splitlines(keepends=True)[0])
            want = f"error: {test} has 0 rows of 3 features in classes c0,c1,c2; "
        if fault != "no label":
            want += f"{train} has 3 features in classes c0,c1,c2\n"
        files = ["--data.train", str(train), "--data.validation", str(validation), "--data.test", str(test)]
        out = tmp_path / "out"
        for command in ("baseline", "chain"):
            assert main([command, *FAST, "--source", "files", *files, "--out", str(out)]) == 1
            assert capsys.readouterr().err == want  # not "invalid configuration"
            assert not out.exists()

    @pytest.mark.parametrize("fault", ["train line 90", "sidecar", "runs for report", "baseline summary"])
    def test_an_input_file_that_is_not_utf8_exits_one_naming_it(self, tmp_path, capsys, fault):
        paths = [tmp_path / f"{name}.csv" for name in ("train", "validation", "test")]
        # 30 features: line 90 lies past the first 8 KiB a text reader decodes
        for path, table in zip(paths, generate_synthetic(3, 40, 30, 0.4, seed=11)):
            write_table(path, table)
        files = ["--source", "files", *(f"--data.{n}={p}" for n, p in zip(("train", "validation", "test"), paths))]
        argv = ["chain", *FAST, *files, "--out", str(tmp_path / "out")]
        bad, lineno = paths[0], 90
        if fault == "sidecar":
            bad, lineno = paths[1].with_suffix(".classes"), 1
        elif fault != "train line 90":
            done = tmp_path / "done"
            assert main(["chain", *FAST, "--out", str(done)]) == 0
            bad, lineno = done / "runs.csv", 2
            argv = ["report", "--out", str(done)]
            if fault == "baseline summary":
                assert main(["baseline", *FAST, "--out", str(tmp_path / "base")]) == 0
                bad, lineno = tmp_path / "base" / "summary.csv", 3
                argv = ["chain", *FAST, "--out", str(tmp_path / "out"), "--baseline-summary", str(bad)]
        spoil(bad, lineno)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: line {lineno}: not UTF-8 text\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fault", ["train missing", "sidecar a directory", "baseline summary missing", "no runs", "traces a directory"]
    )
    def test_an_input_file_that_cannot_be_read_exits_one_naming_it(self, tmp_path, no_training, capsys, fault):
        paths = [tmp_path / f"{name}.csv" for name in ("train", "validation", "test")]
        for path, table in zip(paths, generate_synthetic(3, 40, 3, 0.4, seed=11)):
            write_table(path, table)
        files = ["--source", "files", *(f"--data.{n}={p}" for n, p in zip(("train", "validation", "test"), paths))]
        out, reason = tmp_path / "out", os.strerror(errno.ENOENT)
        argv = ["baseline", *FAST, *files, "--out", str(out)]
        if fault == "train missing":  # its sidecar is kept
            bad = paths[0]
            bad.unlink()
        elif fault == "sidecar a directory":
            bad, reason = paths[1].with_suffix(".classes"), os.strerror(errno.EISDIR)
            bad.unlink()
            bad.mkdir()
        elif fault == "baseline summary missing":
            bad = tmp_path / "base" / "summary.csv"
            argv = ["chain", *FAST, "--out", str(out), "--baseline-summary", str(bad)]
        else:  # report over a sweep's out dir
            done = tmp_path / "done"
            done.mkdir()
            argv = ["report", "--out", str(done)]
            bad = done / "runs.csv"
            if fault == "traces a directory":
                write_rows(bad, RunRow, [RunRow("chain_best", 0.2, 0, 5, "ok", 1, 0.5, 0.5)])
                bad, reason = done / "traces.csv", os.strerror(errno.EISDIR)
                bad.mkdir()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: cannot read: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "baseline"])
    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_an_out_dir_that_cannot_be_made_is_invalid_configuration(self, tmp_path, no_training, capsys, command, where):
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory")
        out, reason = blocker, os.strerror(errno.EEXIST)
        if where == "under a file":
            out, reason = blocker / "sub", os.strerror(errno.ENOTDIR)
        assert main([command, *FAST, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: invalid configuration: out: cannot make {out}: {reason}\n"
        assert blocker.read_text() == "not a directory"

    def test_runtime_failure_exits_two(self, tmp_path):
        out = tmp_path / "out"  # a file the sweep must write is blocked once the out dir exists
        (out / "summary.csv").mkdir(parents=True)
        result = run_cli("baseline", *FAST, "--out", str(out), "--seed", "1")
        assert result.returncode == 2, result.stdout + result.stderr
        assert result.stderr.startswith(f"error: OSError: cannot write outputs under {out}: ")

    def test_a_fault_once_the_out_dir_exists_is_a_runtime_failure(self, tmp_path, monkeypatch, capsys):
        # a ValueError after cells have trained is no config fault, whatever its type
        def aggregate_runs(rows):
            raise ValueError("late fault")

        monkeypatch.setattr(experiment, "aggregate_runs", aggregate_runs)
        out = tmp_path / "out"
        assert main(["chain", *FAST, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: ValueError: late fault\n"
        assert (out / "confusion_0.2_0.csv").exists()

    def test_report_rebuilds_summary(self, tmp_path):
        out = tmp_path / "out"
        first = run_cli("chain", *FAST, "--seed", "3", "--out", str(out))
        assert first.returncode == 0, first.stderr
        original = (out / "summary.csv").read_bytes()
        original_svg = (out / "chain_curves.svg").read_bytes()
        (out / "summary.csv").unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == original
        assert (out / "chain_curves.svg").read_bytes() == original_svg

    def test_report_without_traces_writes_their_header_and_no_chart(self, tmp_path):
        # a missing traces.csv counts as no traces: report writes the
        # header-only file a baseline sweep writes and draws no chart
        out = tmp_path / "out"
        assert main(["chain", *FAST, "--seed", "3", "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in ("runs.csv", "summary.csv", "traces.csv")}
        for name in ("traces.csv", "chain_curves.svg"):
            (out / name).unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "traces.csv").read_bytes() == before.pop("traces.csv").splitlines(keepends=True)[0]
        assert not (out / "chain_curves.svg").exists()
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_report_without_runs_exits_one(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "nothing")]) == 1

    def test_baseline_summary_sets_the_reference_line(self, tmp_path):
        base, out = tmp_path / "base", tmp_path / "out"
        assert main(["baseline", *FAST, "--fractions", "0.2,0.5", "--seed", "3", "--out", str(base)]) == 0
        rows = [line.split(",") for line in (base / "summary.csv").read_text().splitlines()[1:]]
        best = max(float(r[3]) for r in rows if r[0] == "baseline" and r[2] == "test_accuracy")
        for command in ("chain", "report"):
            assert main([command, *FAST, "--seed", "3", "--out", str(out), "--baseline-summary", str(base / "summary.csv")]) == 0
            assert f"best baseline mean test accuracy {best:.4f}<" in (out / "chain_curves.svg").read_text()

    @pytest.mark.parametrize("command", ["chain", "report"])
    def test_bad_baseline_summary_exits_one_naming_it(self, tmp_path, capsys, command):
        # a path that is missing, is not a summary.csv or is a summary
        # without baseline rows (a chain sweep's own) fails before the sweep
        # instead of falling back to the teacher mean
        done = tmp_path / "done"
        assert main(["chain", *FAST, "--seed", "3", "--out", str(done)]) == 0
        out = tmp_path / "fresh" if command == "chain" else done
        capsys.readouterr()
        bads = (tmp_path / "does_not_exist.csv", *(done / name for name in ("runs.csv", "traces.csv", "summary.csv")))
        for bad in bads:
            assert main([command, *FAST, "--seed", "3", "--out", str(out), "--baseline-summary", str(bad)]) == 1
            assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()
        assert (done / "runs.csv").read_text().splitlines()[0] != SUMMARY_HEADER

    @pytest.mark.parametrize("fault", ["repeated run", "nan trace", "runs as baseline summary"])
    def test_results_file_fault_names_the_file_not_the_config(self, tmp_path, capsys, fault):
        # a fault in a file a sweep writes is reported as an input table's
        # is, by its path, and not as invalid configuration
        done = tmp_path / "done"
        assert main(["chain", *FAST, "--seed", "3", "--out", str(done)]) == 0
        bad, argv = done / "runs.csv", ["report", "--out", str(done)]
        if fault == "repeated run":
            bad.write_text(bad.read_text() + bad.read_text().splitlines()[-1] + "\n")
        elif fault == "nan trace":
            bad = done / "traces.csv"
            header, first, *rest = bad.read_text().splitlines()
            fields = first.split(",")
            fields[3] = "nan"  # val_accuracy
            bad.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        else:
            argv = ["chain", *FAST, "--seed", "3", "--out", str(tmp_path / "fresh"), "--baseline-summary", str(bad)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "invalid configuration" not in err
