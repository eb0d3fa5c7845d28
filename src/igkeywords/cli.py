"""Command-line entry point.

Subcommands: synth (emit a synthetic corpus), run (full pipeline),
report (re-render from round artifacts), check (numerical self-checks).
A plain key=value config file may set any flag; command line wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import attribution, corpus as corpus_mod, model, pipeline, report
from .corpus import (Corpus, CorpusParseError, LabelSpace, SynthConfig,
                     ValidationError, generate_synthetic, load_corpus,
                     load_markers, save_corpus, save_markers)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _add_synth_options(p):
    p.add_argument("--num-classes", type=int, default=4)
    p.add_argument("--docs-per-class", type=int, default=500)
    p.add_argument("--background-vocab-size", type=int, default=5000)
    p.add_argument("--markers-per-class", type=int, default=3)
    p.add_argument("--marker-injection-prob", type=float, default=0.8)
    p.add_argument("--doc-length-min", type=int, default=30)
    p.add_argument("--doc-length-max", type=int, default=80)
    p.add_argument("--multilabel-prob", type=float, default=0.1)
    p.add_argument("--zipf-exponent", type=float, default=1.1)
    p.add_argument("--seed", type=int, default=0)


def _add_run_options(p):
    p.add_argument("--corpus", required=True, help="JSONL corpus path")
    p.add_argument("--classes", default=None,
                   help="comma-separated class names; default: scan corpus")
    p.add_argument("--markers", default=None,
                   help="planted-marker sidecar JSON for recovery scoring")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--top-m", type=int, default=15)
    # pipeline
    p.add_argument("--ratio", type=float, default=0.67)
    p.add_argument("--top-n", type=int, default=20)
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--sf-threshold", type=float, default=0.6)
    p.add_argument("--min-doc-frequency", type=int, default=5)
    p.add_argument("--ig-steps", type=int, default=50)
    p.add_argument("--selection-target", default="true-positive",
                   choices=pipeline.SELECTION_TARGETS)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--mean-mode", default="pooled",
                   choices=("pooled", "round-mean"))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dump-scores", action="store_true")
    # training
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--embedding-dim", type=int, default=16)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--weight-init-scale", type=float, default=0.1)
    p.add_argument("--optimizer", default="adam", choices=("sgd", "adam"))
    p.add_argument("--decision-threshold", type=float, default=0.5)
    p.add_argument("--activation", default="tanh",
                   choices=("tanh", "identity"))


def build_parser() -> _Parser:
    parser = _Parser(prog="igkeywords",
                     description="Class keyword extraction from repeated "
                                 "integrated-gradients attributions")
    parser.add_argument("--config", default=None,
                        help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_synth_options(p_synth)
    p_synth.add_argument("--out", required=True, help="corpus JSONL output")
    p_synth.add_argument("--markers-out", default=None,
                         help="marker sidecar output (default: <out>.markers.json)")

    p_run = sub.add_parser("run", help="run the full keyword pipeline")
    _add_run_options(p_run)

    p_report = sub.add_parser("report", help="re-render reports from a run dir")
    p_report.add_argument("--run-dir", required=True)
    p_report.add_argument("--top-m", type=int, default=15)

    sub.add_parser("check", help="run numerical self-checks")
    return parser


def _read_config_file(path) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_file(parser, args, argv):
    if args.config is None:
        return args
    values = _read_config_file(args.config)
    explicit = {a.lstrip("-").replace("-", "_").split("=")[0]
                for a in argv if a.startswith("--")}
    for key, raw in values.items():
        if not hasattr(args, key):
            raise ValidationError(f"unknown config key {key!r}")
        if key in explicit:
            continue  # command line wins
        current = getattr(args, key)
        if isinstance(current, bool):
            setattr(args, key, raw.lower() in ("1", "true", "yes", "on"))
        elif isinstance(current, int):
            setattr(args, key, int(raw))
        elif isinstance(current, float):
            setattr(args, key, float(raw))
        else:
            setattr(args, key, raw)
    return args


def _cmd_synth(args) -> int:
    config = SynthConfig(
        num_classes=args.num_classes, docs_per_class=args.docs_per_class,
        background_vocab_size=args.background_vocab_size,
        markers_per_class=args.markers_per_class,
        marker_injection_prob=args.marker_injection_prob,
        doc_length=(args.doc_length_min, args.doc_length_max),
        multilabel_prob=args.multilabel_prob,
        zipf_exponent=args.zipf_exponent)
    corpus, markers = generate_synthetic(config, args.seed)
    save_corpus(corpus, args.out)
    markers_out = args.markers_out or args.out + ".markers.json"
    save_markers(markers, markers_out)
    print(f"wrote {len(corpus.documents)} documents to {args.out}")
    print(f"wrote markers to {markers_out}")
    return 0


def _scan_classes(path) -> list[str]:
    labels = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                labels.update(json.loads(line).get("labels", []))
            except (json.JSONDecodeError, AttributeError, TypeError) as exc:
                raise CorpusParseError(
                    f"{path}: malformed record on line {lineno}: {exc}") from exc
    return sorted(labels)


def _configs_from_args(args):
    train_cfg = model.TrainConfig(
        epochs=args.epochs, learning_rate=args.learning_rate,
        batch_size=args.batch_size, d=args.embedding_dim, h=args.hidden_dim,
        weight_init_scale=args.weight_init_scale, optimizer=args.optimizer,
        decision_threshold=args.decision_threshold, activation=args.activation)
    pipe_cfg = pipeline.PipelineConfig(
        ratio=args.ratio, top_n=args.top_n, rounds=args.rounds,
        sf_threshold=args.sf_threshold,
        min_doc_frequency=args.min_doc_frequency, ig_steps=args.ig_steps,
        selection_target=args.selection_target, master_seed=args.master_seed,
        train_config=train_cfg, mean_mode=args.mean_mode,
        workers=args.workers, dump_scores=args.dump_scores)
    return pipe_cfg


def _cmd_run(args) -> int:
    classes = (args.classes.split(",") if args.classes
               else _scan_classes(args.corpus))
    label_space = LabelSpace(tuple(classes))
    corpus = load_corpus(args.corpus, label_space)
    config = _configs_from_args(args)
    out_dir = args.out_dir or os.path.join(
        "runs", time.strftime("%Y%m%d-%H%M%S") + f"_{args.master_seed}")
    result = pipeline.run_pipeline(corpus, config, out_dir=out_dir)
    planted = load_markers(args.markers) if args.markers else None
    report.write_reports(result, out_dir, top_m=args.top_m, planted=planted,
                         class_names=label_space.classes)
    with open(os.path.join(out_dir, "config.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"rounds": config.rounds, "sf_threshold": config.sf_threshold,
                   "min_doc_frequency": config.min_doc_frequency,
                   "mean_mode": config.mean_mode, "top_n": config.top_n,
                   "master_seed": config.master_seed,
                   "classes": list(label_space.classes)}, fh, indent=2)
    print(f"run complete; reports in {out_dir}")
    return 0


def _cmd_report(args) -> int:
    run_dir = args.run_dir
    with open(os.path.join(run_dir, "config.json"), encoding="utf-8") as fh:
        saved = json.load(fh)
    config = pipeline.PipelineConfig(
        rounds=saved["rounds"], sf_threshold=saved["sf_threshold"],
        min_doc_frequency=saved["min_doc_frequency"],
        mean_mode=saved["mean_mode"], top_n=saved["top_n"],
        master_seed=saved["master_seed"])
    rounds = pipeline.load_round_artifacts(run_dir, saved["rounds"])
    aggregates = pipeline.load_aggregates(run_dir)
    keywords = pipeline.filter_keywords(aggregates, config,
                                        class_order=saved["classes"])
    result = pipeline.PipelineResult(rounds=rounds, aggregates=aggregates,
                                     keywords=keywords, config=config)
    report.write_reports(result, run_dir, top_m=args.top_m,
                         class_names=saved["classes"])
    print(f"re-rendered reports in {run_dir}")
    return 0


def _check_gradients() -> bool:
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(20):
        label_space = LabelSpace(("a", "b"))
        text = " ".join("tok%d" % rng.integers(30) for _ in range(6))
        doc = corpus_mod.make_document(f"t{trial}", text, {"a"}, label_space)
        cfg = model.TrainConfig(d=4, h=4, seed=int(rng.integers(2**31)))
        vocab = {p: i for i, p in
                 enumerate(sorted({s for s, _ in doc.subwords}))}
        params = model.init_model(vocab, 2, cfg)
        ids = model.token_ids(params, doc)
        inputs = params.embedding[ids].copy()
        grads = model.input_gradients_from_embeddings(params, inputs, 0)
        step = 1e-4
        for i in (0, inputs.shape[0] - 1):
            for j in range(inputs.shape[1]):
                hi, lo = inputs.copy(), inputs.copy()
                hi[i, j] += step
                lo[i, j] -= step
                fd = (attribution.logit_value(params, hi, 0)
                      - attribution.logit_value(params, lo, 0)) / (2 * step)
                denom = max(abs(fd), 1e-8)
                if abs(grads[i, j] - fd) / denom > 1e-4:
                    ok = False
    return ok


def _check_completeness() -> bool:
    synth_cfg = SynthConfig(num_classes=2, docs_per_class=30,
                            background_vocab_size=200, markers_per_class=2,
                            doc_length=(10, 20))
    corpus, _ = generate_synthetic(synth_cfg, seed=11)
    cfg = model.TrainConfig(epochs=4, d=8, h=8, seed=3)
    params = model.train(model.init_model(model.build_vocab(corpus), 2, cfg),
                         corpus, cfg)
    for doc in corpus.documents[:20]:
        attr = attribution.integrated_gradients(params, doc, 0, steps=300)
        f_x = attribution.logit_value(
            params, params.embedding[model.token_ids(params, doc)], 0)
        f_0 = attribution.logit_value(
            params, np.zeros_like(params.embedding[model.token_ids(params, doc)]), 0)
        if attribution.completeness_residual(attr, f_x, f_0) \
                > 1e-3 * max(1.0, abs(f_x - f_0)):
            return False
    return True


def _check_oracle() -> bool:
    synth_cfg = SynthConfig(num_classes=2, docs_per_class=15,
                            background_vocab_size=100, markers_per_class=2,
                            doc_length=(8, 15))
    corpus, _ = generate_synthetic(synth_cfg, seed=5)
    config = pipeline.PipelineConfig(
        rounds=2, top_n=5, ig_steps=10, master_seed=9,
        train_config=model.TrainConfig(epochs=3, d=8, h=8))
    result = pipeline.run_pipeline(corpus, config)
    # naive recomputation straight from the per-round selections
    for rec in result.aggregates:
        pooled = [r.score for rr in result.rounds for r in rr.selections
                  if r.class_name == rec.class_name and r.word == rec.word]
        mean = sum(pooled) / len(pooled)
        if abs(mean - rec.mean_score) > 1e-12:
            return False
        if len(pooled) != rec.instance_count:
            return False
    return True


def _cmd_check(_args) -> int:
    checks = [("gradient check (finite differences)", _check_gradients),
              ("IG completeness (m=300)", _check_completeness),
              ("pipeline oracle equivalence", _check_oracle)]
    failed = 0
    for name, fn in checks:
        ok = fn()
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        failed += 0 if ok else 1
    return 2 if failed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(parser, args, argv)
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
