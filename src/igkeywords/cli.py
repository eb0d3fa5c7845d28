"""Command-line entry point.

Subcommands: synth (emit a synthetic corpus), run (full pipeline),
report (re-render a run directory's reports), check (numerical self-checks).

The options of synth and run are the fields of ``SynthConfig``,
``PipelineConfig`` and ``TrainConfig`` that hold a number, a string or a
boolean (``_options``): each takes its type and default from its field,
and the config's own checks reject bad values.  A plain key=value file
given with ``--config`` (keys are option names without the leading
dashes) may set any option of the command but a required one, such as
``--corpus``, which exits 1; options on the command line win.  run still
accepts ``--ig-steps`` (or ``ig-steps`` in the file), which integrated
gradients no longer use: it prints one note to stderr and changes nothing.
A boolean key takes true/false, yes/no, on/off or 1/0, in any case.  A
path that is a directory, or lies under a file, exits 1 as a missing one.

run and report hand their work to ``rundir.write_run`` and
``rundir.rewrite_reports``: ``rundir`` owns every file of a run directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import warnings

from . import model, pipeline, rundir
from .corpus import (CorpusParseError, LabelSpace, SynthConfig,
                     ValidationError, generate_synthetic, load_corpus,
                     load_markers, save_markers, write_corpus)
from .fileio import atomic_write, utf8_lines

#: the options not named after the field they set
_RENAMED = {"d": "--embedding-dim", "h": "--hidden-dim"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _options(cls):
    """``(option, field, default)`` of each field of ``cls`` that holds a
    number, a string or a boolean: ``--`` and its name with dashes."""
    defaults = cls()
    for f in dataclasses.fields(cls):
        default = getattr(defaults, f.name)
        if isinstance(default, (int, float, str)):
            yield (_RENAMED.get(f.name, "--" + f.name.replace("_", "-")),
                   f.name, default)


def _add_options(parser, cls) -> None:
    for option, _, default in _options(cls):
        if isinstance(default, bool):
            parser.add_argument(option, action="store_true", default=default)
        else:
            parser.add_argument(option, type=type(default), default=default)


def _config(cls, args, **fields):
    fields.update((name, getattr(args, option[2:].replace("-", "_")))
                  for option, name, _ in _options(cls))
    return cls(**fields)


def synth_config(args) -> SynthConfig:
    """The ``SynthConfig`` that parsed synth options describe."""
    return _config(SynthConfig, args,
                   doc_length=(args.doc_length_min, args.doc_length_max))


def pipeline_config(args) -> pipeline.PipelineConfig:
    """The ``PipelineConfig`` that parsed run options describe."""
    return _config(pipeline.PipelineConfig, args,
                   train_config=_config(model.TrainConfig, args))


def _build_parser():
    parser = _Parser(prog="igkeywords",
                     description="Class keyword extraction from repeated "
                                 "integrated-gradients attributions")
    parser.add_argument("--config", default=None,
                        help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_options(p_synth, SynthConfig)
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
    _add_options(p_run, pipeline.PipelineConfig)
    _add_options(p_run, model.TrainConfig)
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


#: the values a boolean key takes in a --config file, in any case
_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False,
             "on": True, "off": False, "1": True, "0": False}


def parse_args(argv) -> argparse.Namespace:
    """Parse a command line; a ``--config`` file's values become the
    command's defaults, converted like the options they set."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    values = _read_config_file(args.config)
    settable = {action.dest for action in commands[args.command]._actions
                if not action.required} & vars(args).keys()
    for key, raw in values.items():
        if key not in settable:
            raise ValidationError(f"unknown or required config key {key!r}")
        if isinstance(getattr(args, key), bool):
            if raw.lower() not in _BOOLEANS:
                raise ValidationError(
                    f"config key {key!r} is {raw!r}, not one of "
                    f"{'/'.join(_BOOLEANS)}")
            values[key] = _BOOLEANS[raw.lower()]
    commands[args.command].set_defaults(**values)
    return parser.parse_args(argv)


def _cmd_synth(args) -> int:
    markers_out = args.markers_out or args.out + ".markers.json"
    if os.path.realpath(args.out) == os.path.realpath(markers_out):
        raise ValidationError(f"--out {args.out} and --markers-out "
                              f"{markers_out} are the same file")
    corpus, markers = generate_synthetic(synth_config(args), args.seed)
    # Both files are written before the corpus replaces its path, which
    # atomic_write checked when it opened, so a failed synth leaves neither.
    with atomic_write(args.out) as fh:
        write_corpus(corpus, fh)
        save_markers(markers, markers_out)
    print(f"wrote {len(corpus)} documents to {args.out}")
    print(f"wrote markers to {markers_out}")
    return 0


def _cmd_run(args) -> int:
    config = pipeline_config(args)
    if args.ig_steps is not None:
        print("note: ig-steps is ignored; integrated gradients take the "
              "exact path integral", file=sys.stderr)
    # Without --classes, the classes are the labels the corpus holds.
    corpus = load_corpus(args.corpus, LabelSpace(tuple(
        args.classes.split(","))) if args.classes is not None else None)
    planted = (load_markers(args.markers, corpus.label_space.classes)
               if args.markers else None)
    out_dir = args.out_dir or os.path.join(
        "runs", time.strftime("%Y%m%d-%H%M%S") + f"_{config.master_seed}")
    rundir.write_run(corpus, config, out_dir, planted)
    print(f"run complete; reports in {out_dir}")
    return 0


def _cmd_report(args) -> int:
    rundir.rewrite_reports(args.run_dir)
    print(f"re-rendered reports in {args.run_dir}")
    return 0


def _cmd_check(_args) -> int:
    from . import checks  # imported here, as no other command uses it
    failed = 0
    for passed, line in checks.run_checks():
        print(f"{'PASS' if passed else 'FAIL'}: {line}", flush=True)
        failed += not passed
    return 2 if failed else 0


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI shows it: one line, without the file, line and
    source text that raised it."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # formatwarning rather than showwarning, so that a caller recording
    # warnings (warnings.catch_warnings(record=True)) still receives them
    shown, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = parse_args(argv)
        handler = {"synth": _cmd_synth, "run": _cmd_run,
                   "report": _cmd_report, "check": _cmd_check}[args.command]
        return handler(args)
    except (ValidationError, CorpusParseError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
