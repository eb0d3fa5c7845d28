"""Command-line entry point.

Subcommands: synth (emit a synthetic corpus), run (full pipeline),
report (re-render a run directory's reports), check (numerical self-checks).

The options of synth and run set fields of ``SynthConfig``,
``PipelineConfig`` and ``TrainConfig``: each takes its type and default
from its field, and the config's own checks reject bad values.  A plain
key=value file given with ``--config`` (keys are option names without the
leading dashes) may set any option of the command except the required
``--out``/``--corpus``; options on the command line win.  run still
accepts ``--ig-steps`` (or ``ig-steps`` in the file), which integrated
gradients no longer use: it prints one note to stderr and changes nothing.

Before round 0, run writes ``config.json`` into its output directory
(every ``PipelineConfig`` field, ``TrainConfig`` nested under
``train_config``, ``classes``, ``top_m`` and, if ``--markers`` was given,
``markers``, the planted words per class) and removes an earlier run's
reports.  report reads it back, ignoring the ``_RETIRED_FIELDS`` of
earlier versions, and rewrites every report file run wrote.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import checks, model, pipeline, report
from .corpus import (CorpusParseError, LabelSpace, SynthConfig,
                     ValidationError, _is_string_list, generate_synthetic,
                     load_corpus, load_markers, marker_sets, save_corpus,
                     save_markers)
from .fileio import atomic_write, malformed, utf8_lines

# Option -> the config field it sets.
_SYNTH_OPTIONS = {
    "--num-classes": "num_classes", "--docs-per-class": "docs_per_class",
    "--background-vocab-size": "background_vocab_size",
    "--markers-per-class": "markers_per_class",
    "--marker-injection-prob": "marker_injection_prob",
    "--multilabel-prob": "multilabel_prob", "--zipf-exponent": "zipf_exponent",
}
_PIPELINE_OPTIONS = {
    "--ratio": "ratio", "--top-n": "top_n", "--rounds": "rounds",
    "--sf-threshold": "sf_threshold",
    "--min-doc-frequency": "min_doc_frequency",
    "--selection-target": "selection_target", "--master-seed": "master_seed",
    "--workers": "workers", "--dump-scores": "dump_scores",
}
_TRAIN_OPTIONS = {
    "--epochs": "epochs", "--learning-rate": "learning_rate",
    "--batch-size": "batch_size", "--embedding-dim": "d", "--hidden-dim": "h",
    "--weight-init-scale": "weight_init_scale",
    "--decision-threshold": "decision_threshold", "--activation": "activation",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _add_options(parser, options, defaults) -> None:
    for option, name in options.items():
        default = getattr(defaults, name)
        if isinstance(default, bool):
            parser.add_argument(option, action="store_true", default=default)
        else:
            parser.add_argument(option, type=type(default), default=default)


def _config(cls, options, args, **fields):
    fields.update((name, getattr(args, option[2:].replace("-", "_")))
                  for option, name in options.items())
    return cls(**fields)


def synth_config(args) -> SynthConfig:
    """The ``SynthConfig`` that parsed synth options describe."""
    return _config(SynthConfig, _SYNTH_OPTIONS, args,
                   doc_length=(args.doc_length_min, args.doc_length_max))


def pipeline_config(args) -> pipeline.PipelineConfig:
    """The ``PipelineConfig`` that parsed run options describe."""
    return _config(pipeline.PipelineConfig, _PIPELINE_OPTIONS, args,
                   train_config=_config(model.TrainConfig, _TRAIN_OPTIONS,
                                        args))


def _build_parser():
    parser = _Parser(prog="igkeywords",
                     description="Class keyword extraction from repeated "
                                 "integrated-gradients attributions")
    parser.add_argument("--config", default=None,
                        help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_options(p_synth, _SYNTH_OPTIONS, SynthConfig())
    doc_length = SynthConfig().doc_length
    p_synth.add_argument("--doc-length-min", type=int, default=doc_length[0])
    p_synth.add_argument("--doc-length-max", type=int, default=doc_length[1])
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="corpus JSONL output")
    p_synth.add_argument("--markers-out", default=None,
                         help="marker sidecar output (default: <out>.markers.json)")

    p_run = sub.add_parser("run", help="run the full keyword pipeline")
    p_run.add_argument("--corpus", required=True, help="JSONL corpus path")
    p_run.add_argument("--classes", default=None,
                       help="comma-separated class names; default: scan corpus")
    p_run.add_argument("--markers", default=None,
                       help="planted-marker sidecar JSON for recovery scoring")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--top-m", type=int, default=15,
                       help="keywords per class in the report tables")
    defaults = pipeline.PipelineConfig()
    _add_options(p_run, _PIPELINE_OPTIONS, defaults)
    _add_options(p_run, _TRAIN_OPTIONS, defaults.train_config)
    p_run.add_argument("--ig-steps", type=int, default=None,
                       help="ignored: IG integrates its path exactly")

    p_report = sub.add_parser("report", help="re-render reports from a run dir")
    p_report.add_argument("--run-dir", required=True)

    sub.add_parser("check", help="run numerical self-checks")
    return parser, sub.choices


def _read_config_file(path) -> dict[str, str]:
    values = {}
    for lineno, line in utf8_lines(path, ValidationError):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def parse_args(argv) -> argparse.Namespace:
    """Parse a command line; a ``--config`` file's values become the
    command's defaults, converted like the options they set."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    values = _read_config_file(args.config)
    for key, raw in values.items():
        if key not in vars(args) or key in ("config", "command"):
            raise ValidationError(f"unknown config key {key!r}")
        if isinstance(getattr(args, key), bool):
            values[key] = raw.lower() in ("1", "true", "yes", "on")
    commands[args.command].set_defaults(**values)
    return parser.parse_args(argv)


def _cmd_synth(args) -> int:
    corpus, markers = generate_synthetic(synth_config(args), args.seed)
    save_corpus(corpus, args.out)
    markers_out = args.markers_out or args.out + ".markers.json"
    save_markers(markers, markers_out)
    print(f"wrote {len(corpus)} documents to {args.out}")
    print(f"wrote markers to {markers_out}")
    return 0


def _from_fields(cls, values):
    """``cls(**values)``; ``values`` must name every field of ``cls``, each
    with a value of its default's type (an int will do for a float)."""
    defaults = cls()
    for f in dataclasses.fields(cls):
        value, kind = values[f.name], type(getattr(defaults, f.name))
        if type(value) is not kind and (kind, type(value)) != (float, int):
            raise TypeError(f"{f.name} is {value!r}, not a {kind.__name__}")
    return cls(**values)


#: Fields that earlier versions saved in config.json, at its top level or
#: under train_config, and that no longer change what report writes
_RETIRED_FIELDS = ("ig_steps", "mean_mode", "optimizer", "adam_beta1",
                   "adam_beta2", "adam_eps")


def load_run_config(run_dir):
    """The ``PipelineConfig``, class order, ``top_m`` and planted markers
    (None if run had none) that ``run`` saved in ``config.json``."""
    path = os.path.join(run_dir, "config.json")
    with open(path, "rb") as fh, \
            malformed(path, "run config", ValidationError):
        saved = json.loads(fh.read().decode("utf-8"))
        classes, top_m = saved.pop("classes"), saved.pop("top_m")
        if not _is_string_list(classes):
            raise TypeError("classes is not a list of strings")
        LabelSpace(tuple(classes))  # rejects no classes and duplicates
        if type(top_m) is not int:
            raise TypeError("top_m is not an integer")
        train = saved.pop("train_config")
        for name in _RETIRED_FIELDS:
            saved.pop(name, None)
            train.pop(name, None)
        markers = saved.pop("markers", None)
        if markers is not None:
            markers = marker_sets(markers)
        train = _from_fields(model.TrainConfig, train)
        config = _from_fields(pipeline.PipelineConfig,
                              dict(saved, train_config=train))
    return config, classes, top_m, markers


def _cmd_run(args) -> int:
    config = pipeline_config(args)
    if args.ig_steps is not None:
        print("note: ig-steps is ignored; integrated gradients take the "
              "exact path integral", file=sys.stderr)
    if args.top_m < 1:
        raise ValidationError("top_m must be >= 1")
    # Without --classes, the classes are the labels the corpus holds.
    corpus = load_corpus(args.corpus, LabelSpace(tuple(
        args.classes.split(","))) if args.classes else None)
    classes = corpus.label_space.classes
    planted = load_markers(args.markers) if args.markers else None
    out_dir = args.out_dir or os.path.join(
        "runs", time.strftime("%Y%m%d-%H%M%S") + f"_{config.master_seed}")
    # Saved before round 0, which removes the earlier run's files, so that
    # a run that stops part way leaves only its own.
    saved = dict(dataclasses.asdict(config), classes=list(classes),
                 top_m=args.top_m)
    if planted is not None:
        saved["markers"] = {c: sorted(words) for c, words in planted.items()}
    os.makedirs(out_dir, exist_ok=True)
    with atomic_write(os.path.join(out_dir, "config.json")) as fh:
        json.dump(saved, fh, indent=2)
    result = pipeline.run_pipeline(corpus, config, out_dir=out_dir)
    report.write_reports(result, out_dir, top_m=args.top_m, planted=planted,
                         class_names=classes)
    print(f"run complete; reports in {out_dir}")
    return 0


def _cmd_report(args) -> int:
    run_dir = args.run_dir
    config, classes, top_m, planted = load_run_config(run_dir)
    rounds = pipeline.load_round_artifacts(run_dir, config.rounds, classes)
    aggregates = pipeline.load_aggregates(run_dir, classes)
    keywords = pipeline.filter_keywords(aggregates, config,
                                        class_order=classes)
    result = pipeline.PipelineResult(rounds=rounds, aggregates=aggregates,
                                     keywords=keywords, config=config)
    report.write_reports(result, run_dir, top_m=top_m, planted=planted,
                         class_names=classes)
    print(f"re-rendered reports in {run_dir}")
    return 0


def _cmd_check(_args) -> int:
    failed = 0
    for passed, line in checks.run_checks():
        print(f"{'PASS' if passed else 'FAIL'}: {line}", flush=True)
        failed += not passed
    return 2 if failed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        handler = {"synth": _cmd_synth, "run": _cmd_run,
                   "report": _cmd_report, "check": _cmd_check}[args.command]
        return handler(args)
    except (ValidationError, CorpusParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
