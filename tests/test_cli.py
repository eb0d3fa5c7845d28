import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from igkeywords import checks, model, pipeline, report
from igkeywords.cli import (load_run_config, main, parse_args,
                            pipeline_config, synth_config)
from igkeywords.corpus import SynthConfig, ValidationError
from igkeywords.pipeline import PipelineConfig, load_aggregates
from reference_round import (aggregate_records, first_row_archive,
                             table_from_json)

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
            assert config.master_seed == 3 and args.top_m == 15

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
        ("--weight-init-scale", "nan"), ("--weight-init-scale", "inf")])
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
        assert not set(report.REPORT_FILES) & set(os.listdir(out_dir))

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


def aggregates_npz_damages(run_dir) -> list[bytes]:
    """Damaged copies of ``aggregates.npz``: truncated, empty, not an
    archive, and archives with a column missing, of the wrong dtype kind,
    shape or length, a code out of range, or values that are not a JSON
    list of strings."""
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
            archive_of(word=None), archive_of(class_name_values=None),
            archive_of(rounds_selected=arrays["rounds_selected"] + 0.5),
            archive_of(word=arrays["word"].astype(np.float64)),
            archive_of(mean_score=arrays["mean_score"][:, None]),
            archive_of(doc_frequency=arrays["doc_frequency"][:-1]),
            archive_of(class_name=arrays["class_name"][:-1]),
            archive_of(word=np.full_like(arrays["word"], words)),
            archive_of(class_name=arrays["class_name"] - 1),
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
        assert load_aggregates(out_dir) == table_from_json(out_dir)
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
        config, classes, top_m, markers = load_run_config(tmp_path / "a")
        assert config == pipeline_config(parse_args(argv))
        assert config.train_config.learning_rate == 0.05
        assert (classes, top_m) == (["c0", "c1", "c2"], 15)
        planted = json.loads(markers_path.read_text())
        assert markers == {c: set(words) for c, words in planted.items()}
        assert ((tmp_path / "a" / "config.json").read_bytes()
                == (tmp_path / "b" / "config.json").read_bytes())
        assert "ig_steps" not in json.loads(
            (tmp_path / "a" / "config.json").read_text())

    def test_report_reads_a_config_json_with_ig_steps(self, synth_files,
                                                      tmp_path):
        # config.json as written when IG took a step count, and when the
        # aggregate mean, the optimizer and Adam's constants were fields
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir), *SMALL_RUN) == 0
        before = {name: (out_dir / name).read_bytes() for name in REPORT_FILES}
        saved = json.loads((out_dir / "config.json").read_text())
        for retired in ("ig_steps", "mean_mode", "optimizer", "adam_beta1",
                        "adam_beta2", "adam_eps"):
            assert retired not in saved and retired not in saved[
                "train_config"]
        saved.update(ig_steps=50, mean_mode="pooled")
        saved["train_config"].update(optimizer="adam", adam_beta1=0.9,
                                     adam_beta2=0.999, adam_eps=1e-8)
        (out_dir / "config.json").write_text(json.dumps(saved))
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        for name in REPORT_FILES:
            assert (out_dir / name).read_bytes() == before[name], name

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
    ], ids=["missing-field", "missing-train-field", "missing-classes",
            "unknown-field", "unknown-train-field", "out-of-range",
            "top-m-out-of-range", "classes-not-a-list", "top-m-a-string"])
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
        keywords = (out_dir / "keywords.tsv").read_bytes()
        damages = {"aggregates.npz": aggregates_npz_damages(out_dir)}
        names = ("round_0000.json", "round_0001.json")
        for name, other in zip(names, reversed(names)):
            intact = (out_dir / name).read_bytes()
            value = json.loads(intact)
            assert not value["failed"]
            missing_class = dict(value["per_class"])
            del missing_class["c1"]
            # wrong types, a successful round without a class, and the
            # index of another round
            edits = [("per_class", {"c0": 5}), ("micro_f1", "x"),
                     ("failed", "no"), ("per_class", missing_class),
                     ("val_doc_count", 12.5), ("val_doc_count", True),
                     ("round_index", str(value["round_index"]))]
            value.pop(next(iter(value)))  # a missing field
            damages[name] = [intact[:len(intact) // 2],
                             json.dumps(value).encode(),
                             # the file of the other round copied over it
                             (out_dir / other).read_bytes()] + [
                json.dumps(dict(json.loads(intact), **{k: v})).encode()
                for k, v in edits]
        for name, named_damages in damages.items():
            intact = (out_dir / name).read_bytes()
            for damaged in named_damages:
                (out_dir / name).write_bytes(damaged)
                capsys.readouterr()
                assert run_cli("report", "--run-dir", str(out_dir)) == 1
                assert f"{name}: malformed" in capsys.readouterr().err
                assert (out_dir / "keywords.tsv").read_bytes() == keywords
            (out_dir / name).write_bytes(intact)
        assert run_cli("report", "--run-dir", str(out_dir)) == 0
        # A run directory written before aggregates.npz existed
        (out_dir / "aggregates.npz").unlink()
        assert run_cli("report", "--run-dir", str(out_dir)) == 1
        assert "aggregates.npz" in capsys.readouterr().err
        assert (out_dir / "keywords.tsv").read_bytes() == keywords

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
        ("round_0000.json", lambda saved: saved.update(micro_f1=True)),
        ("round_0001.json", lambda saved: saved["per_class"]["c1"].update(
            f1=False)),
        ("round_0000.json", lambda saved: saved["per_class"]["c2"].update(
            support=True)),
    ], ids=["markers-a-string", "top-m-a-bool", "rounds-a-bool",
            "rounds-a-float", "epochs-a-float", "ratio-a-string",
            "dump-scores-an-int", "duplicate-classes", "no-classes",
            "micro-f1-a-bool", "f1-a-bool", "support-a-bool"])
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
        assert load_run_config(out_dir)[0].sf_threshold == 0
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
        # aggregates.npz as written when each string table held a column's
        # distinct values in order of first row
        corpus_path, markers_path = synth_files
        out_dir = tmp_path / "run"
        assert run_cli("run", "--corpus", str(corpus_path),
                       "--markers", str(markers_path),
                       "--out-dir", str(out_dir), "--top-m", "3",
                       "--learning-rate", "0.1", "--sf-threshold", "0.4",
                       *SMALL_RUN) == 0
        before = {name: (out_dir / name).read_bytes() for name in REPORT_FILES}
        table = load_aggregates(out_dir)
        archive = first_row_archive(table)
        with np.load(out_dir / "aggregates.npz") as written:
            assert set(written) == set(archive)
            assert all(written[key].dtype == archive[key].dtype
                       for key in archive)
            # the layouts differ, so the test reads another numbering
            assert not np.array_equal(written["word"], archive["word"])
        np.savez(out_dir / "aggregates.npz", **archive)
        loaded = load_aggregates(out_dir)
        assert loaded == table
        assert aggregate_records(loaded) == aggregate_records(table)
        assert loaded == table_from_json(out_dir)
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
        names = json.loads(arrays["class_name_values"].tobytes())
        names[-1] = "zz"
        arrays["class_name_values"] = np.frombuffer(
            json.dumps(names).encode("ascii"), dtype=np.uint8)
        np.savez(out_dir / "aggregates.npz", **arrays)
        capsys.readouterr()
        assert run_cli("report", "--run-dir", str(out_dir)) == 1
        assert (f"{out_dir / 'aggregates.npz'}: malformed"
                in capsys.readouterr().err)
        for name in REPORT_FILES:
            assert (out_dir / name).read_bytes() == before[name], name

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
        # every row of a batch gets the first row's class
        correct = model.pooled_logit_gradients

        def mixed_up(params, pooled_batch, class_index):
            first = np.asarray(class_index).flat[0]
            return correct(params, pooled_batch,
                           np.full_like(class_index, first))
        monkeypatch.setattr(model, "pooled_logit_gradients", mixed_up)
        assert checks.gradient_error() > checks.GRADIENT_BOUND


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_bad_flag_value(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "x"),
                       "--num-classes", "not-a-number") == 1
