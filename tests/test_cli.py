import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from igkeywords import checks, model, pipeline, rundir
from igkeywords.cli import (_build_parser, main, parse_args,
                            pipeline_config, synth_config)
from igkeywords.corpus import SynthConfig, ValidationError
from igkeywords.pipeline import PipelineConfig
from igkeywords.rundir import load_aggregates, load_config
from reference_round import (aggregate_records, first_row_archive,
                             same_table, table_from_json)

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
SMALL_RUN = ("--rounds", "2", "--epochs", "4",
             "--embedding-dim", "8", "--hidden-dim", "8",
             "--min-doc-frequency", "1")
REPORT_FILES = ("keywords.tsv", "keywords.json", "keywords.md",
                "uniqueness.json", "f1_summary.tsv", "recovery.json")


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def synth_files(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    code = run_cli("synth", "--out", str(corpus_path),
                   "--num-classes", "3", "--docs-per-class", "25",
                   "--background-vocab-size", "300",
                   "--doc-length-min", "10", "--doc-length-max", "20",
                   "--seed", "5")
    assert code == 0
    return corpus_path, tmp_path / "corpus.jsonl.markers.json"


class TestParse:
    def test_no_options_give_the_config_defaults(self):
        assert synth_config(parse_args(["synth", "--out", "x"])) == SynthConfig()
        assert (pipeline_config(parse_args(["run", "--corpus", "x"]))
                == PipelineConfig())

    def test_options_set_their_fields(self):
        config = pipeline_config(parse_args(
            ["run", "--corpus", "x", "--embedding-dim", "8", "--dump-scores",
             "--selection-target", "false-negative", "--learning-rate",
             "0.1"]))
        assert config.train_config.d == 8
        assert config.train_config.learning_rate == 0.1
        assert config.dump_scores
        assert config.selection_target == "false-negative"
        synth = synth_config(parse_args(
            ["synth", "--out", "x", "--doc-length-min", "3",
             "--doc-length-max", "9", "--zipf-exponent", "1.5"]))
        assert synth.doc_length == (3, 9) and synth.zipf_exponent == 1.5

    def test_options_are_the_scalar_fields(self):
        # Each field that holds a number, a string or a boolean is the
        # option of its name with dashes (d and h are spelt out), of its
        # default and type; the other options are listed here.
        renamed = {"d": "--embedding-dim", "h": "--hidden-dim"}
        _, commands = _build_parser()
        for command, classes, others in (
                ("synth", (SynthConfig,),
                 {"--doc-length-min", "--doc-length-max", "--seed", "--out",
                  "--markers-out"}),
                ("run", (PipelineConfig, model.TrainConfig),
                 {"--corpus", "--classes", "--markers", "--out-dir",
                  "--ig-steps"})):
            actions = {action.option_strings[0]: action
                       for action in commands[command]._actions
                       if action.option_strings != ["-h", "--help"]}
            fields = {renamed.get(f.name, "--" + f.name.replace("_", "-")):
                      getattr(cls(), f.name)
                      for cls in classes for f in dataclasses.fields(cls)
                      if f.type in ("int", "float", "str", "bool")}
            assert set(actions) == set(fields) | others, command
            for option, default in fields.items():
                action = actions[option]
                assert (action.default, action.type) == (
                    default, None if type(default) is bool
                    else type(default)), option
        # each round draws its own seeds from --master-seed
        assert "--seed" not in actions

    def test_benchmark_workload_flags(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        spec = importlib.util.spec_from_file_location(
            "bench_run", BENCH_DIR / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        for workload in bench.WORKLOADS.values():
            args = parse_args(["run", "--corpus", "c", "--markers", "m",
                               "--out-dir", "o", "--master-seed", "3",
                               "--sf-threshold", "0.6",
                               "--min-doc-frequency", "5", "--top-m", "15",
                               *workload["flags"]])
            config = pipeline_config(args)
            flags = workload["flags"]
            assert config.rounds == int(flags[flags.index("--rounds") + 1])
            assert config.dump_scores == ("--dump-scores" in flags)
            assert config.master_seed == 3 and config.top_m == 15

    def test_config_checks_reject_bad_values(self):
        for argv, build in (
                (["run", "--corpus", "x", "--activation", "relu"],
                 pipeline_config),
                (["run", "--corpus", "x", "--selection-target", "all"],
                 pipeline_config),
                (["run", "--corpus", "x", "--ratio", "1.5"], pipeline_config),
                (["synth", "--out", "x", "--doc-length-min", "9",
                  "--doc-length-max", "3"], synth_config)):
            with pytest.raises(ValidationError):
                build(parse_args(argv))


class TestSynth:
    def test_creates_corpus_and_markers(self, synth_files):
        corpus_path, markers_path = synth_files
        lines = corpus_path.read_text().strip().splitlines()
        assert len(lines) == 75
        record = json.loads(lines[0])
        assert set(record) == {"id", "text", "labels"}
        markers = json.loads(markers_path.read_text())
        assert len(markers) == 3

    def test_invalid_config_exit_code(self, tmp_path):
        code = run_cli("synth", "--out", str(tmp_path / "x.jsonl"),
                       "--num-classes", "10", "--markers-per-class", "5",
                       "--background-vocab-size", "10")
        assert code == 1

    @pytest.mark.parametrize("exponent", ["nan", "-inf", "-1e308", "-83"])
    def test_zipf_weights_without_a_finite_sum_exit_code(
            self, tmp_path, capsys, exponent):
        # -83 over the default 5,000 words: finite weights, infinite sum
        out = tmp_path / "x.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("synth", "--out", str(out),
                           f"--zipf-exponent={exponent}")
        assert code == 1
        assert "zipf_exponent" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_config_key_for_the_output_exit_code(self, tmp_path,
                                                 monkeypatch, capsys):
        # The file may not set the required --out: the key exits 1, named,
        # and neither path gets a file.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "synth.conf").write_text("out = other.jsonl\n")
        assert run_cli("--config", "synth.conf", "synth",
                       "--docs-per-class", "5", "--out", "c.jsonl") == 1
        assert "unknown or required config key 'out'" in \
            capsys.readouterr().err
        assert os.listdir(tmp_path) == ["synth.conf"]

    @pytest.mark.parametrize("argv,message", [
        (("--out", "c.jsonl", "--markers-out", "dir"),
         "Is a directory: 'dir'"),
        (("--out", "dir"), "Is a directory: 'dir'"),
        # one file for both: they would share a temporary file
        (("--out", "c.jsonl", "--markers-out", "c.jsonl"),
         "--out c.jsonl and --markers-out c.jsonl are the same file"),
        (("--out", "c.jsonl", "--markers-out", "./c.jsonl"),
         "--out c.jsonl and --markers-out ./c.jsonl are the same file")],
        ids=["markers-out", "out", "same-path", "same-file"])
    def test_directory_destination_writes_neither_file(
            self, tmp_path, monkeypatch, capsys, argv, message):
        (tmp_path / "dir").mkdir()
        monkeypatch.chdir(tmp_path)
        assert run_cli("synth", "--docs-per-class", "5", *argv) == 1
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["dir"]
        assert not os.listdir(tmp_path / "dir")


class TestRun:
    def test_full_run_emits_reports(self, synth_files, tmp_path):
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        code = run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir),
                       "--rounds", "2", "--epochs", "8",
                       "--embedding-dim", "8", "--hidden-dim", "8",
                       "--min-doc-frequency", "1",
                       "--dump-scores")
        assert code == 0
        for name in ("keywords.tsv", "keywords.json", "keywords.md",
                     "f1_summary.tsv", "uniqueness.json", "recovery.json",
                     "aggregates.npz", "aggregates.tsv", "aggregates.json",
                     "config.json", "round_0000.json", "round_0001.json"):
            assert (out_dir / name).exists(), name

    def test_missing_corpus_exit_code(self, tmp_path):
        code = run_cli("run", "--corpus", str(tmp_path / "nope.jsonl"),
                       "--rounds", "1")
        assert code == 1

    @pytest.mark.parametrize("flag,value", [
        ("--learning-rate", "nan"), ("--learning-rate", "inf"),
        ("--weight-init-scale", "nan"), ("--weight-init-scale", "inf"),
        ("--weight-init-scale", "-0.1")])
    def test_non_finite_setting_exit_code(self, synth_files, tmp_path, capsys,
                                          flag, value):
        corpus_path, _ = synth_files
        out_dir = tmp_path / "run"
        code = run_cli("run", "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), flag, value, *SMALL_RUN)
        assert code == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out_dir.exists()

    def test_every_round_failing_leaves_no_report(self, synth_files,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        corpus_path, markers_path = synth_files

        def diverging(*args):
            raise model.TrainingDivergedError("non-finite loss at epoch 1")
        monkeypatch.setattr(model, "train", diverging)
        out_dir = tmp_path / "run"
        with pytest.warns(UserWarning, match=r"round \d failed"):
            code = run_cli("run", "--corpus", str(corpus_path),
                           "--markers", str(markers_path),
                           "--out-dir", str(out_dir), *SMALL_RUN)
        assert code == 1
        assert "no successful rounds" in capsys.readouterr().err
        assert "round_0001.json" in os.listdir(out_dir)
        assert run_cli("report", "--run-dir", str(out_dir)) == 1
        assert not set(rundir.REPORT_FILES) & set(os.listdir(out_dir))

    def test_failed_round_warns_in_one_line(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        corpus_path = tmp_path / "corpus.jsonl"
        subprocess.run(
            [sys.executable, "-m", "igkeywords", "synth",
             "--out", str(corpus_path), "--num-classes", "2",
             "--docs-per-class", "20", "--background-vocab-size", "100",
             "--markers-per-class", "1"], env=env, check=True,
            capture_output=True)
        done = subprocess.run(
            [sys.executable, "-m", "igkeywords", "run",
             "--corpus", str(corpus_path), "--out-dir", str(tmp_path / "run"),
             "--rounds", "3", "--epochs", "3", "--learning-rate", "1e308",
             "--weight-init-scale", "10"], env=env, capture_output=True,
            text=True, check=False)
        assert done.returncode == 1, done.stderr
        lines = done.stderr.splitlines()
        assert [line for line in lines if line.startswith("warning: ")] == [
            f"warning: round {i} failed: non-finite loss at epoch 2 "
            f"(learning_rate=1e+308)" for i in range(3)]
        assert "pipeline.py" not in done.stderr
        assert lines[-1] == "error: no successful rounds to summarize"

    def test_config_file_with_cli_override(self, synth_files, tmp_path):
        corpus_path, _ = synth_files
        cfg = tmp_path / "run.conf"
        cfg.write_text("rounds = 2\nepochs = 8\nembedding-dim = 8\n"
                       "hidden-dim = 8\nmin-doc-frequency = 1\n")
        out_dir = tmp_path / "run2"
        # CLI --rounds 1 must beat the file's rounds = 2
        code = run_cli("--config", str(cfg), "run",
                       "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), "--rounds", "1")
        assert code == 0
        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["rounds"] == 1
        assert not (out_dir / "round_0001.json").exists()

    def test_malformed_json_exit_code(self, tmp_path):
        corpus_path = tmp_path / "bad.jsonl"
        corpus_path.write_text('{"id": "a", "text": "x", "labels": ["p"]}\n'
                               '{"id": "b", "text": \n')
        for extra in ((), ("--classes", "p")):
            code = run_cli("run", "--corpus", str(corpus_path),
                           "--out-dir", str(tmp_path / "run"),
                           "--rounds", "1", *extra)
            assert code == 1, extra

    @pytest.mark.parametrize("field, value, problem", [
        ("text", 5, "text is int, not a string"),
        ("labels", "sports", "labels must be a list of strings"),
        ("labels", ["sports", 3], "labels must be a list of strings")])
    def test_malformed_record_exit_code(self, tmp_path, capsys, field, value,
                                        problem):
        record = {"id": "b", "text": "a game", "labels": ["sports"]}
        record[field] = value
        corpus_path = tmp_path / "bad.jsonl"
        corpus_path.write_text(
            '{"id": "a", "text": "the match", "labels": ["sports"]}\n'
            + json.dumps(record) + "\n")
        for extra in ((), ("--classes", "sports")):
            code = run_cli("run", "--corpus", str(corpus_path),
                           "--out-dir", str(tmp_path / "run"),
                           "--rounds", "1", *extra)
            assert code == 1, extra
            assert (f"malformed record on line 2: {problem}"
                    in capsys.readouterr().err), extra
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["x\ty", "z\nw", "r\r", ""],
                             ids=["tab", "newline", "carriage-return",
                                  "empty"])
    def test_class_name_that_breaks_a_tsv_row_exit_code(self, tmp_path,
                                                        capsys, name):
        def run_on(name, labels):
            path = tmp_path / name
            path.write_text("".join(
                json.dumps({"id": f"d{i}", "text": "some words here",
                            "labels": [label]}) + "\n"
                for i, label in enumerate(labels * 4)))
            return ["run", "--corpus", str(path),
                    "--out-dir", str(tmp_path / "run"), "--rounds", "1"]
        run = run_on("corpus.jsonl", ["ok", name])
        # the name given as the only class, to a corpus without it
        named = [*run_on("ok.jsonl", ["ok"]), "--classes", name]
        argvs = [run, [*run, "--classes", f"ok,{name}"], named]
        if not {"\n", "\r"} & set(name):  # a config line holds no break
            config = tmp_path / "run.conf"
            config.write_text(f"classes = {name}\n")
            argvs.append(["--config", str(config), *named[:-2]])
        for argv in argvs:
            assert run_cli(*argv) == 1, argv
            assert (f"class name {name!r} is empty or holds a tab or a "
                    f"line break" in capsys.readouterr().err), argv
        assert not (tmp_path / "run").exists()

    def test_non_utf8_corpus_line_exit_code(self, tmp_path, capsys):
        corpus_path = tmp_path / "bad.jsonl"
        corpus_path.write_bytes(
            b'{"id": "a", "text": "the match", "labels": ["sports"]}\n'
            b'{"id": "b", "text": "caf\xe9", "labels": ["sports"]}\n')
        for extra in ((), ("--classes", "sports")):
            code = run_cli("run", "--corpus", str(corpus_path),
                           "--out-dir", str(tmp_path / "run"),
                           "--rounds", "1", *extra)
            assert code == 1, extra
            assert "line 2 is not UTF-8" in capsys.readouterr().err, extra
        assert not (tmp_path / "run").exists()

    def test_non_utf8_config_file_exit_code(self, synth_files, tmp_path,
                                            capsys):
        corpus_path, _ = synth_files
        cfg = tmp_path / "run.conf"
        cfg.write_bytes(b"rounds = 1\n# caf\xe9\n")
        code = run_cli("--config", str(cfg), "run",
                       "--corpus", str(corpus_path),
                       "--out-dir", str(tmp_path / "run"))
        assert code == 1
        assert "line 2 is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("content", [b"[1,2", b'["c0"]', b'{"c0": "qaa"}',
                                         b'{"c0": [1]}', b'{"c0": ["q\xe9"]}'],
                             ids=["truncated", "list", "string-value",
                                  "number-word", "not-utf8"])
    def test_malformed_markers_exit_code(self, synth_files, tmp_path, capsys,
                                         content):
        corpus_path, _ = synth_files
        markers_path = tmp_path / "markers.json"
        markers_path.write_bytes(content)
        code = run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(tmp_path / "run"), *SMALL_RUN)
        assert code == 1
        assert "malformed markers file" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_top_m_is_rejected_before_the_rounds(self, synth_files,
                                                     tmp_path):
        corpus_path, _ = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path), "--top-m", "0",
                       "--out-dir", str(out_dir), *SMALL_RUN) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("value, expected", [
        ("true", True), ("YES", True), ("On", True), ("1", True),
        ("False", False), ("no", False), ("OFF", False), ("0", False),
        ("ture", None), ("", None), ("2", None), ("y", None)])
    def test_config_file_booleans(self, tmp_path, capsys, value, expected):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"dump-scores = {value}\n")
        argv = ["--config", str(cfg), "run", "--corpus", "x"]
        if expected is None:  # a typo must not read as false
            assert run_cli(*argv) == 1
            assert "'dump_scores'" in capsys.readouterr().err
        else:
            assert pipeline_config(parse_args(argv)).dump_scores is expected

    @pytest.mark.parametrize("argv, target", [
        (["run", "--out-dir", "{file}"], "{file}"),
        (["run", "--out-dir", "{file}/sub"], "{file}/sub"),
        (["report", "--run-dir", "{file}"], "{file}")],
        ids=["run-into-a-file", "run-under-a-file", "report-of-a-file"])
    def test_run_directory_that_is_a_file_exit_code(
            self, synth_files, tmp_path, capsys, argv, target):
        corpus_path, _ = synth_files
        file = tmp_path / "file"
        file.write_text("x")
        argv = [arg.format(file=file) for arg in argv]
        if argv[0] == "run":
            argv += ["--corpus", str(corpus_path), *SMALL_RUN]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert (f"{target.format(file=file)}: not a directory"
                in capsys.readouterr().err)
        assert file.read_text() == "x"

    def test_document_without_subwords_leaves_no_run_directory(
            self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        records = [{"id": f"d{i}", "text": "some words here",
                    "labels": [f"c{i % 2}"]} for i in range(8)]
        records.append({"id": "a", "text": "?!", "labels": ["c0"]})
        corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records))
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), "--rounds", "1") == 1
        assert "document 'a' has no subwords" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_key_for_the_corpus_exit_code(self, synth_files,
                                                 tmp_path, capsys):
        # The file may not set the required --corpus, even to the path the
        # command line gives.
        corpus_path, _ = synth_files
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"corpus = {corpus_path}\n")
        out_dir = tmp_path / "run"
        assert run_cli("--config", str(cfg), "run",
                       "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), *SMALL_RUN) == 1
        assert "unknown or required config key 'corpus'" in \
            capsys.readouterr().err
        assert not out_dir.exists()

    def test_markers_of_an_unknown_class_leave_no_run_directory(
            self, synth_files, tmp_path, capsys):
        # Markers planted in a class the run does not have would be scored
        # as missed (recall 0.0, precision 1.0); they exit 1 instead.
        corpus_path, markers_path = synth_files
        markers = json.loads(markers_path.read_text())
        markers["zz"] = ["qaa"]
        markers_path.write_text(json.dumps(markers))
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir), *SMALL_RUN) == 1
        assert "markers of classes the run does not have: ['zz']" in \
            capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_config_key(self, synth_files, tmp_path):
        corpus_path, _ = synth_files
        cfg = tmp_path / "bad.conf"
        cfg.write_text("bogus-flag = 1\n")
        code = run_cli("--config", str(cfg), "run",
                       "--corpus", str(corpus_path))
        assert code == 1

    def test_ig_steps_is_ignored(self, synth_files, tmp_path, capsys):
        # --ig-steps, in the arguments or a --config file, prints one note
        # and leaves every byte of the run directory as without it.
        corpus_path, markers_path = synth_files
        cfg = tmp_path / "run.conf"
        cfg.write_text("ig-steps = 7\n")
        argv = ["run", "--corpus", str(corpus_path), "--markers",
                str(markers_path), "--dump-scores", *SMALL_RUN]
        runs = {"plain": argv, "flag": argv + ["--ig-steps", "7"],
                "file": ["--config", str(cfg)] + argv}
        notes = {}
        for name, args in runs.items():
            capsys.readouterr()
            assert run_cli(*args, "--out-dir", str(tmp_path / name)) == 0
            notes[name] = [line for line in
                           capsys.readouterr().err.splitlines() if line]
        assert notes["plain"] == []
        assert notes["flag"] == notes["file"] == [
            "note: ig-steps is ignored; integrated gradients take the exact "
            "path integral"]
        plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert "round_0001.json" in plain
        for name in ("flag", "file"):
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == plain
            for file_name in plain:
                assert ((tmp_path / name / file_name).read_bytes()
                        == (tmp_path / "plain" / file_name).read_bytes())

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "corpus.jsonl"
        done = subprocess.run(
            [sys.executable, "-m", "igkeywords", "synth", "--out", str(out),
             "--num-classes", "2", "--docs-per-class", "5", "--seed", "1"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, check=False)
        assert done.returncode == 0, done.stderr
        assert len(out.read_text().splitlines()) == 10
        bad = subprocess.run(
            [sys.executable, "-m", "igkeywords", "frobnicate"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            check=False)
        assert bad.returncode == 1

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # only a run with workers > 1 imports the pool, and only check
        # imports the self-checks
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", "import sys, igkeywords.cli; "
             "print('concurrent.futures' in sys.modules, "
             "'igkeywords.checks' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, check=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False False"


def report_files(run_dir) -> dict:
    """Each report file's bytes and modification time."""
    return {name: ((run_dir / name).read_bytes(),
                   (run_dir / name).stat().st_mtime_ns)
            for name in REPORT_FILES if (run_dir / name).exists()}


def round_file_damages(intact: bytes) -> list[bytes]:
    """Damaged copies of a successful round's dumped ``round_NNNN.json``
    that all stay JSON, but the first two: a record line that is not
    UTF-8 or does not end in ``,``; the hash altered or removed, one score
    digit changed, the selections under another key; and records with a
    field missing, of a wrong type, a successful round without a class,
    the index of another round and a key that is not a field."""
    record_line, _, tail = intact.partition(b"\n")
    record = json.loads(record_line[:-1] + b"}")
    assert not record["failed"]

    def edited(**changes):
        line = json.dumps({k: v for k, v in dict(record, **changes).items()
                           if v is not None})
        return line[:-1].encode() + b",\n" + tail

    digest = record["selections_sha256"]
    # the last digit of the last score, before "]]}"
    digit = intact[-4:-3]
    assert digit.isdigit()
    changed_score = intact[:-4] + str((int(digit) + 1) % 10).encode() + \
        intact[-3:]
    assert json.loads(changed_score)["selections"] != \
        json.loads(intact)["selections"]
    missing_class = dict(record["per_class"])
    del missing_class["c1"]
    return [
        intact.replace(b'"c0"', b'"c\xe9"', 1),
        record_line[:-1] + b"}\n" + tail,
        edited(selections_sha256=digest[:-1] + ("0" if digest[-1] != "0"
                                                else "1")),
        edited(selections_sha256=None),
        changed_score,
        intact.replace(b'\n"selections": ', b'\n"dumped": '),
        edited(round_index=None),
        edited(per_class={"c0": 5}), edited(micro_f1="x"),
        edited(failed="no"), edited(per_class=missing_class),
        edited(val_doc_count=12.5), edited(val_doc_count=True),
        edited(round_index=str(record["round_index"])),
        edited(loss=[0.7, 0.5])]


def aggregates_npz_damages(run_dir) -> list[bytes]:
    """Damaged copies of ``aggregates.npz``: truncated, empty, not an
    archive, and archives with a column missing, of the wrong dtype kind,
    shape or length, an id or code out of range, or words that are not a
    JSON list of strings."""
    intact = (run_dir / "aggregates.npz").read_bytes()
    with np.load(run_dir / "aggregates.npz", allow_pickle=False) as archive:
        arrays = dict(archive)

    def archive_of(**changes):
        columns = {k: v for k, v in dict(arrays, **changes).items()
                   if v is not None}
        buffer = io.BytesIO()
        np.savez(buffer, **columns)
        return buffer.getvalue()

    words = len(json.loads(arrays["word_values"].tobytes()))
    return [intact[:len(intact) // 2], b"",
            archive_of(word=None), archive_of(class_id=None),
            archive_of(rounds_selected=arrays["rounds_selected"] + 0.5),
            archive_of(word=arrays["word"].astype(np.float64)),
            archive_of(mean_score=arrays["mean_score"][:, None]),
            archive_of(doc_frequency=arrays["doc_frequency"][:-1]),
            archive_of(class_id=arrays["class_id"][:-1]),
            archive_of(word=np.full_like(arrays["word"], words)),
            archive_of(class_id=arrays["class_id"] - 1),
            archive_of(word_values=np.frombuffer(b'["w0", ', np.uint8)),
            archive_of(word_values=np.frombuffer(b'[1, 2]', np.uint8)),
            b"not an archive"]


class TestReport:
    def test_rerender_from_artifacts(self, synth_files, tmp_path):
        corpus_path, _ = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), "--rounds", "2",
                       "--epochs", "8",
                       "--embedding-dim", "8", "--hidden-dim", "8",
                       "--min-doc-frequency", "1", "--dump-scores") == 0
        before = (out_dir / "keywords.tsv").read_bytes()
        (out_dir / "keywords.tsv").unlink()
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        assert (out_dir / "keywords.tsv").read_bytes() == before

    def test_reused_run_dir_describes_the_latest_run(self, synth_files,
                                                     tmp_path):
        corpus_path, _ = synth_files
        out_dir = tmp_path / "run"
        flags = ["--corpus", str(corpus_path), "--out-dir", str(out_dir),
                 "--epochs", "4", "--embedding-dim", "8",
                 "--hidden-dim", "8", "--min-doc-frequency", "1"]
        assert run_cli("run", *flags, "--rounds", "4") == 0
        assert run_cli("run", *flags, "--rounds", "2") == 0
        assert sorted(p.name for p in out_dir.glob("round_*.json")) == [
            "round_0000.json", "round_0001.json"]
        before = (out_dir / "f1_summary.tsv").read_bytes()
        # a round file that is not part of the run is not read back
        stale = json.loads((out_dir / "round_0001.json").read_text())
        stale.update(round_index=2, micro_f1=0.0)
        (out_dir / "round_0002.json").write_text(json.dumps(stale))
        # nor is one line break after a record without a dump an error
        with open(out_dir / "round_0001.json", "a") as fh:
            fh.write("\n")
        (out_dir / "f1_summary.tsv").unlink()
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        assert (out_dir / "f1_summary.tsv").read_bytes() == before

    def test_report_reproduces_every_report_file(self, synth_files,
                                                 tmp_path):
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir), "--top-m", "2",
                       "--learning-rate", "0.1", "--sf-threshold", "0.4",
                       *SMALL_RUN) == 0
        before = {name: (out_dir / name).read_bytes() for name in REPORT_FILES}
        keywords = json.loads(before["keywords.json"])
        assert [len(rows) for rows in keywords.values()] == [2, 2, 2]
        # The table report reads is the one the JSON export spells, and
        # the exports are not read back.
        assert same_table(load_aggregates(out_dir, load_config(out_dir)[1]),
                          table_from_json(out_dir))
        for name in REPORT_FILES + ("aggregates.json", "aggregates.tsv"):
            (out_dir / name).unlink()
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        for name in REPORT_FILES:
            assert (out_dir / name).read_bytes() == before[name], name

    def test_config_json_holds_the_run_config(self, synth_files, tmp_path):
        corpus_path, markers_path = synth_files
        argv = ["run", "--corpus", str(corpus_path),
                "--markers", str(markers_path), "--learning-rate", "0.05",
                "--selection-target", "false-negative", *SMALL_RUN]
        for name in ("a", "b"):
            assert run_cli(*argv, "--out-dir", str(tmp_path / name)) == 0
        config, classes, markers = load_config(tmp_path / "a")
        assert config == pipeline_config(parse_args(argv))
        assert config.train_config.learning_rate == 0.05
        assert (classes, config.top_m) == (["c0", "c1", "c2"], 15)
        planted = json.loads(markers_path.read_text())
        assert markers == {c: set(words) for c, words in planted.items()}
        assert ((tmp_path / "a" / "config.json").read_bytes()
                == (tmp_path / "b" / "config.json").read_bytes())
        saved = json.loads((tmp_path / "a" / "config.json").read_text())
        assert "ig_steps" not in saved
        assert list(saved.items())[0] == ("format", 4)
        # each round's seeds come from master_seed and the round index
        assert "seed" not in saved["train_config"]

    def test_report_refuses_another_format(self, synth_files, tmp_path,
                                           capsys):
        # config.json without a format is what earlier versions wrote;
        # format 1 also held train_config's seed, format 2 wrote a dumped
        # round's selections on its record's line, without a hash, and
        # format 3's aggregates.npz held a class table of its own
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir), *SMALL_RUN) == 0
        saved = json.loads((out_dir / "config.json").read_text())
        for found, edit in (
                ("None", lambda saved: saved.pop("format")),
                ("None", lambda saved: saved.update(format=None)),
                ("1", lambda saved: (saved.update(format=1),
                                     saved["train_config"].update(seed=0))),
                ("1", lambda saved: saved.update(format=1)),
                ("2", lambda saved: saved.update(format=2)),
                ("3", lambda saved: saved.update(format=3)),
                ("5", lambda saved: saved.update(format=5)),
                ("0", lambda saved: saved.update(format=0)),
                ("'4'", lambda saved: saved.update(format="4")),
                ("True", lambda saved: saved.update(format=True)),
                ("4.0", lambda saved: saved.update(format=4.0))):
            edited = json.loads(json.dumps(saved))
            edit(edited)
            (out_dir / "config.json").write_text(json.dumps(edited))
            files = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                     for p in out_dir.iterdir()}
            capsys.readouterr()
            assert run_cli("report", "--run-dir", str(out_dir)) == 1, found
            err = capsys.readouterr().err
            assert (f"{out_dir / 'config.json'}: format {found}, not 4"
                    in err), err
            assert "run the pipeline again" in err
            assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                    for p in out_dir.iterdir()} == files, found

    @pytest.mark.parametrize("edit", [
        lambda saved: saved.pop("top_n"),
        lambda saved: saved["train_config"].pop("epochs"),
        lambda saved: saved.pop("classes"),
        lambda saved: saved.update(bogus=1),
        lambda saved: saved["train_config"].update(bogus=1),
        lambda saved: saved.update(ratio=1.5),
        lambda saved: saved.update(top_m=0),
        lambda saved: saved.update(classes=5),
        lambda saved: saved.update(top_m="3"),
        lambda saved: saved.update(classes=["c0", "c1", "c\t2"]),
    ], ids=["missing-field", "missing-train-field", "missing-classes",
            "unknown-field", "unknown-train-field", "out-of-range",
            "top-m-out-of-range", "classes-not-a-list", "top-m-a-string",
            "class-name-with-a-tab"])
    def test_malformed_config_json_exit_code(self, synth_files, tmp_path,
                                             capsys, edit):
        corpus_path, _ = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), *SMALL_RUN) == 0
        keywords = (out_dir / "keywords.tsv").read_bytes()
        saved = json.loads((out_dir / "config.json").read_text())
        edit(saved)
        (out_dir / "config.json").write_text(json.dumps(saved))
        capsys.readouterr()
        assert run_cli("report", "--run-dir", str(out_dir)) == 1
        assert "error:" in capsys.readouterr().err
        assert (out_dir / "keywords.tsv").read_bytes() == keywords

    def test_non_utf8_config_json_exit_code(self, synth_files, tmp_path,
                                            capsys):
        corpus_path, _ = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), *SMALL_RUN) == 0
        config = out_dir / "config.json"
        config.write_bytes(config.read_bytes().replace(b'"c0"', b'"c\xe9"'))
        capsys.readouterr()
        assert run_cli("report", "--run-dir", str(out_dir)) == 1
        assert "malformed run config" in capsys.readouterr().err

    def test_malformed_run_artifact_exit_code(self, synth_files, tmp_path,
                                              capsys):
        corpus_path, _ = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), "--dump-scores",
                       "--learning-rate", "0.1", *SMALL_RUN) == 0
        reports = report_files(out_dir)
        damages = {"aggregates.npz": aggregates_npz_damages(out_dir)}
        names = ("round_0000.json", "round_0001.json")
        for name, other in zip(names, reversed(names)):
            intact = (out_dir / name).read_bytes()
            damages[name] = [intact[:len(intact) // 2],
                             # the file of the other round copied over it
                             (out_dir / other).read_bytes()]
            damages[name] += round_file_damages(intact)
        for name, named_damages in damages.items():
            intact = (out_dir / name).read_bytes()
            for damaged in named_damages:
                (out_dir / name).write_bytes(damaged)
                capsys.readouterr()
                assert run_cli("report", "--run-dir", str(out_dir)) == 1
                assert f"{name}: malformed" in capsys.readouterr().err
                assert report_files(out_dir) == reports
            (out_dir / name).write_bytes(intact)
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        # A run directory written before aggregates.npz existed
        (out_dir / "aggregates.npz").unlink()
        assert run_cli("report", "--run-dir", str(out_dir)) == 1
        assert "aggregates.npz" in capsys.readouterr().err
        assert (out_dir / "keywords.tsv").read_bytes() == reports[
            "keywords.tsv"][0]

    def test_report_parses_no_dumped_selections(self, synth_files, tmp_path,
                                                monkeypatch):
        corpus_path, _ = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), "--dump-scores",
                       "--learning-rate", "0.1", *SMALL_RUN) == 0
        selections = [(out_dir / f"round_000{i}.json").read_bytes()
                      .partition(b"\n")[2] for i in range(2)]
        parsed = []
        loads = json.loads

        def spy(text, *args, **kwargs):
            parsed.append(text.encode() if isinstance(text, str) else text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(rundir.json, "loads", spy)
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        monkeypatch.undo()
        assert sum(b'"round_index"' in text for text in parsed) == 2
        # the config, the rounds' records and the aggregates' string
        # tables, under 1 KB each here, and never the dumps after them
        assert max(map(len, parsed)) < 2 * 1024 < min(map(len, selections))
        assert not any(b'"selections"' in text for text in parsed)

    @pytest.mark.parametrize("name, edit", [
        ("config.json", lambda saved: saved.update(markers={"c0": "qaa"})),
        ("config.json", lambda saved: saved.update(top_m=True)),
        ("config.json", lambda saved: saved.update(rounds=True)),
        ("config.json", lambda saved: saved.update(rounds=2.5)),
        ("config.json", lambda saved: saved["train_config"].update(
            epochs=1.5)),
        ("config.json", lambda saved: saved.update(ratio="0.6")),
        ("config.json", lambda saved: saved.update(dump_scores=0)),
        ("config.json", lambda saved: saved.update(
            classes=["c0", "c1", "c0"])),
        ("config.json", lambda saved: saved.update(classes=[])),
        ("config.json", lambda saved: saved.update(
            classes=saved["classes"] + [""])),
        ("config.json", lambda saved: saved["markers"].update(zz=["qaa"])),
        ("round_0000.json", lambda saved: saved.update(micro_f1=True)),
        ("round_0001.json", lambda saved: saved["per_class"]["c1"].update(
            f1=False)),
        ("round_0000.json", lambda saved: saved["per_class"]["c2"].update(
            support=True)),
        # a round's record holds neither its selections nor, without
        # their dump after it, their hash
        ("round_0000.json", lambda saved: saved.update(selections=[])),
        ("round_0001.json", lambda saved: saved.update(
            selections_sha256=hashlib.sha256(b"[]").hexdigest())),
    ], ids=["markers-a-string", "top-m-a-bool", "rounds-a-bool",
            "rounds-a-float", "epochs-a-float", "ratio-a-string",
            "dump-scores-an-int", "duplicate-classes", "no-classes",
            "empty-class-name", "markers-of-an-unknown-class",
            "micro-f1-a-bool", "f1-a-bool", "support-a-bool",
            "selections-in-the-record", "hash-without-a-dump"])
    def test_wrongly_typed_field_exit_code(self, synth_files, tmp_path,
                                           capsys, name, edit):
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir), *SMALL_RUN) == 0
        before = {report: (out_dir / report).read_bytes()
                  for report in REPORT_FILES}
        saved = json.loads((out_dir / name).read_text())
        edit(saved)
        (out_dir / name).write_text(json.dumps(saved))
        capsys.readouterr()
        assert run_cli("report", "--run-dir", str(out_dir)) == 1
        assert f"{out_dir / name}: malformed" in capsys.readouterr().err
        for report in REPORT_FILES:
            assert (out_dir / report).read_bytes() == before[report], report

    def test_float_fields_take_integers(self, synth_files, tmp_path):
        corpus_path, _ = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--out-dir", str(out_dir), "--sf-threshold", "0.0",
                       *SMALL_RUN) == 0
        keywords = (out_dir / "keywords.tsv").read_bytes()
        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["sf_threshold"] == 0.0
        (out_dir / "config.json").write_text(
            json.dumps(dict(saved, sf_threshold=0)))
        assert load_config(out_dir)[0].sf_threshold == 0
        (out_dir / "keywords.tsv").unlink()
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        assert (out_dir / "keywords.tsv").read_bytes() == keywords

    def test_run_without_markers_removes_recovery_json(self, synth_files,
                                                       tmp_path):
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        flags = ["--corpus", str(corpus_path), "--out-dir", str(out_dir),
                 *SMALL_RUN]
        assert run_cli("run", *flags, "--markers", str(markers_path)) == 0
        assert (out_dir / "recovery.json").exists()
        assert run_cli("run", *flags) == 0
        assert "markers" not in json.loads(
            (out_dir / "config.json").read_text())
        assert not (out_dir / "recovery.json").exists()
        # nor does report bring one back, or mind one left over
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        assert not (out_dir / "recovery.json").exists()
        (out_dir / "recovery.json").write_text("{}")
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        assert not (out_dir / "recovery.json").exists()

    def test_reads_string_tables_in_first_row_order(self, synth_files,
                                                    tmp_path):
        # aggregates.npz as written when its word table held the words in
        # order of first row
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir), "--top-m", "3",
                       "--learning-rate", "0.1", "--sf-threshold", "0.4",
                       *SMALL_RUN) == 0
        before = {name: (out_dir / name).read_bytes() for name in REPORT_FILES}
        classes = load_config(out_dir)[1]
        table = load_aggregates(out_dir, classes)
        archive = first_row_archive(table)
        with np.load(out_dir / "aggregates.npz") as written:
            assert set(written) == set(archive)
            assert all(written[key].dtype == archive[key].dtype
                       for key in archive)
            # the layouts differ, so the test reads another numbering
            assert not np.array_equal(written["word"], archive["word"])
        np.savez(out_dir / "aggregates.npz", **archive)
        loaded = load_aggregates(out_dir, classes)
        assert same_table(loaded, table)
        assert aggregate_records(loaded) == aggregate_records(table)
        assert same_table(loaded, table_from_json(out_dir))
        for name in REPORT_FILES:
            (out_dir / name).unlink()
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        for name in REPORT_FILES:
            assert (out_dir / name).read_bytes() == before[name], name

    def test_class_not_in_config_json_exit_code(self, synth_files, tmp_path,
                                                capsys):
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir), "--learning-rate", "0.1",
                       *SMALL_RUN) == 0
        before = {name: (out_dir / name).read_bytes() for name in REPORT_FILES}
        with np.load(out_dir / "aggregates.npz") as archive:
            arrays = dict(archive)
        # class ids index config.json's three classes
        for class_id in (-1, 3):
            ids = arrays["class_id"].copy()
            ids[-1] = class_id
            np.savez(out_dir / "aggregates.npz", **dict(arrays, class_id=ids))
            capsys.readouterr()
            assert run_cli("report", "--run-dir", str(out_dir)) == 1
            err = capsys.readouterr().err
            assert f"{out_dir / 'aggregates.npz'}: malformed" in err, err
            assert "class_id holds an id outside range(3)" in err, err
            for name in REPORT_FILES:
                assert (out_dir / name).read_bytes() == before[name], name

    def test_aggregates_keep_the_runs_class_order(self, synth_files,
                                                  tmp_path):
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--classes", "c2,c0,c1", "--out-dir", str(out_dir),
                       "--learning-rate", "0.1", *SMALL_RUN) == 0
        rows = json.loads((out_dir / "aggregates.json").read_text())
        tsv = (out_dir / "aggregates.tsv").read_text().splitlines()[1:]
        for classes in ([row["class"] for row in rows],
                        [line.split("\t")[0] for line in tsv]):
            assert list(dict.fromkeys(classes)) == ["c2", "c0", "c1"]
            assert classes == sorted(classes, key=["c2", "c0", "c1"].index)
        before = {name: (out_dir / name).read_bytes() for name in REPORT_FILES}
        assert list(dict.fromkeys(
            line.split("\t")[0] for line in
            before["keywords.tsv"].decode().splitlines())) == [
                "c2", "c0", "c1"]
        for name in REPORT_FILES:
            (out_dir / name).unlink()
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        for name in REPORT_FILES:
            assert (out_dir / name).read_bytes() == before[name], name

    def test_permuted_classes_exit_code(self, synth_files, tmp_path, capsys):
        # the aggregates' class ids would name other classes
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir), *SMALL_RUN) == 0
        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["classes"] == ["c0", "c1", "c2"]
        (out_dir / "config.json").write_text(json.dumps(
            dict(saved, classes=["c1", "c0", "c2"])))
        files = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                 for p in out_dir.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "--run-dir", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert f"{out_dir / 'round_0000.json'}: malformed" in err, err
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in out_dir.iterdir()} == files

    def test_stopped_run_leaves_only_its_finished_rounds(
            self, synth_files, tmp_path, capsys, monkeypatch):
        corpus_path, markers_path = synth_files
        out_dir, fresh = tmp_path / "run", tmp_path / "fresh"
        argv = ["run", "--corpus", str(corpus_path), *SMALL_RUN,
                "--rounds", "3"]
        # a finished earlier run, with more rounds and every report file
        assert run_cli(*argv, "--out-dir", str(out_dir), "--rounds", "4",
                       "--markers", str(markers_path), "--dump-scores") == 0
        run_round = pipeline.run_round

        def stop_at_round_2(corpus, config, round_index):
            if round_index == 2:
                raise RuntimeError("stopped at round 2")
            return run_round(corpus, config, round_index)

        monkeypatch.setattr(pipeline, "run_round", stop_at_round_2)
        capsys.readouterr()
        assert run_cli(*argv, "--out-dir", str(out_dir)) == 2
        assert "stopped at round 2" in capsys.readouterr().err
        assert sorted(os.listdir(out_dir)) == [
            "config.json", "round_0000.json", "round_0001.json"]
        stopped = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert run_cli("report", "--run-dir", str(out_dir)) == 1
        assert "round_0002.json" in capsys.readouterr().err
        assert sorted(os.listdir(out_dir)) == sorted(stopped)
        monkeypatch.undo()
        assert run_cli(*argv, "--out-dir", str(fresh)) == 0
        for name, data in stopped.items():
            assert (fresh / name).read_bytes() == data, name
        assert run_cli(*argv, "--out-dir", str(out_dir)) == 0
        assert sorted(os.listdir(out_dir)) == sorted(os.listdir(fresh))
        for name in os.listdir(fresh):
            assert ((out_dir / name).read_bytes()
                    == (fresh / name).read_bytes()), name

    def test_missing_run_dir(self, tmp_path):
        assert run_cli("report", "--run-dir", str(tmp_path / "none")) == 1


class TestCheck:
    def test_self_checks_pass(self, capsys, monkeypatch):
        measured = {}

        def recorded(name, check):
            return lambda *args: measured.setdefault(name, check(*args))
        names = ("gradient_error", "completeness_ratios", "oracle_error",
                 "path_mean_error")
        for name in names:
            monkeypatch.setattr(checks, name,
                                recorded(name, getattr(checks, name)))
        assert run_cli("check") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line[:5] for line in lines] == ["PASS:"] * 4
        for line, value in zip(lines, (
                measured["gradient_error"],
                measured["completeness_ratios"].max(),
                measured["oracle_error"],
                measured["path_mean_error"][0])):
            assert f"{value:.2e}" in line, line

        # A gradient error over its bound and a differing aggregate fail.
        def differs():
            raise checks.CheckFailure("instance counts differ")
        monkeypatch.setattr(checks, "gradient_error", lambda: 2e-4)
        monkeypatch.setattr(checks, "oracle_error", differs)
        assert run_cli("check") == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line[:5] for line in lines] == ["FAIL:", "PASS:", "FAIL:",
                                                "PASS:"]
        assert "2.00e-04 (bound 1e-04)" in lines[0]
        assert lines[2].endswith("instance counts differ")

        # A residual over its bound, a path-mean error over its bound and
        # a slope that is not finite and >= 0 beyond quadrature fail.
        monkeypatch.setattr(checks, "completeness_ratios",
                            lambda: np.array([0.0, 2e-10]))
        for path_mean in ((2e-12, True), (0.0, False)):
            monkeypatch.setattr(checks, "path_mean_error",
                                lambda: path_mean)
            assert run_cli("check") == 2
            lines = capsys.readouterr().out.splitlines()
            assert [line[:5] for line in lines[1::2]] == ["FAIL:", "FAIL:"]
        assert "50.0% of documents within 1e-10" in lines[1]

    def test_gradient_check_catches_a_class_mix_up(self, monkeypatch):
        # every row of a batch gets the first row's class, in the gradient
        # that integrated gradients takes
        correct = model.path_mean_gradients

        def mixed_up(params, pooled, class_index):
            first = np.asarray(class_index).flat[0]
            return correct(params, pooled, np.full_like(class_index, first))
        monkeypatch.setattr(model, "path_mean_gradients", mixed_up)
        assert checks.gradient_error() > checks.GRADIENT_BOUND


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--corpus", "{dir}"],
        ["run", "--corpus", "{corpus}", "--markers", "{dir}"],
        ["--config", "{dir}", "run", "--corpus", "{corpus}"],
        ["synth", "--out", "{dir}"],
        ["synth", "--out", "{tmp}/c.jsonl", "--markers-out", "{dir}"],
        ["run", "--corpus", "{corpus}/x"]],
        ids=["run-corpus", "run-markers", "config", "synth-out",
             "synth-markers-out", "run-corpus-under-a-file"])
    def test_path_that_is_a_directory_exit_code(self, synth_files, tmp_path,
                                                capsys, argv):
        # an input or output file that is a directory, or that lies under
        # a regular file, is a usage error
        corpus_path, _ = synth_files
        directory = tmp_path / "dir"
        directory.mkdir()
        argv = [arg.format(dir=directory, corpus=corpus_path, tmp=tmp_path)
                for arg in argv]
        argv += (["--out-dir", str(tmp_path / "run"), *SMALL_RUN]
                 if "run" in argv else ["--docs-per-class", "5"])
        capsys.readouterr()
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and (
            "Is a directory" in err or "Not a directory" in err), err
        assert not (tmp_path / "run").exists()

    def test_bad_flag_value(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "x"),
                       "--num-classes", "not-a-number") == 1
