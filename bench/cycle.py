"""One benchmark cycle in a fresh process: `igkeywords run`, then
`igkeywords report --run-dir` on the same directory.

Usage: python3 bench/cycle.py SPEC.json

SPEC.json names the source tree, the `run` arguments, the run directory,
whether to trace, and where to write the result.  The result holds the
end-to-end timings, peak RSS, exit codes and the hashes of the two report
files as `run` left them and after each re-render; with tracing on it also holds the per-layer
metrics and the span table.

Without tracing, only `pipeline.run_pipeline` is wrapped: its entry marks
round 0, the end of set-up.
"""

import time

T0 = time.perf_counter()  # set-up starts before the program is imported

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import tracer as tr  # noqa: E402 - bench/ is this script's directory
from checks import REPORT_FILES  # noqa: E402

# Layers that run inside a round; with run_round's self time they add up
# to the round time.
ROUND_LAYERS = ("corpus.stratified_split", "model.build_vocab", "model.train",
                "model.predict", "attribution.integrated_gradients",
                "attribution.token_scores", "attribution.normalize_document",
                "attribution.word_scores", "pipeline.top_n_words")

# Metrics that count work; they must repeat exactly between runs.
COUNT_METRICS = ("model.vocab_size", "model.predict.calls_per_round",
                 "attribution.integrated_gradients.calls_per_round",
                 "attribution.pair_share", "pipeline.topn_keep_ratio",
                 "pipeline.selections_total", "pipeline.keyword_yield",
                 "pipeline.write_round_artifacts.bytes",
                 "pipeline.write_aggregates.bytes",
                 "pipeline.load_round_artifacts.records",
                 "pipeline.pool.task_bytes", "pipeline.pool.result_bytes",
                 "report.write_reports.bytes")

# Re-render at least three times and until about one second of report time,
# at most 40 times: cheap reports get more samples, and the renders of all
# the cycles of a run spread the samples over the whole run.
REPORT_MIN, REPORT_MAX, REPORT_SECONDS = 3, 40, 1.0


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _files(directory) -> dict:
    if not os.path.isdir(directory):
        return {}
    out = {}
    for entry in os.scandir(directory):
        if entry.is_file():
            st = entry.stat()
            out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


def _snapshot_out_dir(args, kwargs):
    out_dir = _arg(args, kwargs, 1, "out_dir")
    return out_dir, _files(out_dir)


def _bytes_written(args, kwargs, result, state):
    out_dir, before = state
    return {"bytes": sum(size for name, (size, mtime) in _files(out_dir).items()
                         if before.get(name) != (size, mtime))}


def traced_targets(tracer, captured):
    """The wrapped functions, with the counts each records."""

    def run_pipeline_done(args, kwargs, result, state):
        corpus, config = _arg(args, kwargs, 0, "corpus"), _arg(args, kwargs, 1, "config")
        captured.update(corpus=corpus, config=config, result=result)
        tracer.harvest(result.rounds)
        return {"rounds": config.rounds, "workers": config.workers,
                "classes": len(corpus.label_space)}

    def train_done(args, kwargs, result, state):
        docs = len(_arg(args, kwargs, 1, "train_corpus").documents)
        return {"doc_epochs": docs * _arg(args, kwargs, 2, "config").epochs}

    def aggregate_done(args, kwargs, result, state):
        rounds = _arg(args, kwargs, 0, "rounds")
        return {"selections": sum(len(r.selections) for r in rounds),
                "aggregates": len(result)}

    def filter_done(args, kwargs, result, state):
        return {"records_in": len(_arg(args, kwargs, 0, "records")),
                "keywords": len(result)}

    def loaded_rounds(args, kwargs, result, state):
        return {"records": sum(len(r.selections) for r in result)}

    def length(key):
        return lambda args, kwargs, result, state: {key: len(result)}

    writes = {"before": _snapshot_out_dir, "observe": _bytes_written}
    return {
        "corpus.load_corpus": {},
        "corpus.stratified_split": {},
        "model.build_vocab": {"observe": length("vocab_size")},
        "model.train": {"observe": train_done},
        "model.predict": {},
        "attribution.integrated_gradients": {},
        "attribution.token_scores": {},
        "attribution.normalize_document": {},
        "attribution.word_scores": {"observe": length("records")},
        "pipeline.top_n_words": {"observe": length("selections")},
        "pipeline.run_round": {
            "observe": lambda a, k, r, s: {"val_docs": r.val_doc_count},
            "carry": True},
        "pipeline.run_pipeline": {"observe": run_pipeline_done},
        "pipeline.aggregate": {"observe": aggregate_done},
        "pipeline.filter_keywords": {"observe": filter_done},
        "pipeline.write_round_artifacts": writes,
        "pipeline.write_aggregates": writes,
        "pipeline.load_round_artifacts": {"observe": loaded_rounds},
        "pipeline.load_aggregates": {"observe": length("records")},
        "report.write_reports": writes,
    }


def _div(num, den) -> float:
    return num / den if den else 0.0


def pool_sizes(captured) -> dict:
    """Pickled sizes of one pool task and of one returned round."""
    sizes = {"pipeline.pool.task_bytes": 0.0, "pipeline.pool.result_bytes": 0.0}
    if "result" in captured:
        sizes["pipeline.pool.task_bytes"] = len(pickle.dumps(
            (captured["corpus"], captured["config"], 0)))
        sizes["pipeline.pool.result_bytes"] = statistics.fmean(
            len(pickle.dumps(r)) for r in captured["result"].rounds)
    return sizes


def layer_metrics(tracer, sizes) -> tuple[dict, list, str]:
    """Per-layer metrics of one traced cycle, its round times in ms, and
    its span table."""
    spans = tracer.spans
    summary = tr.summarize(spans, tracer.wrapped + ["cli.run", "cli.report"])
    selfs = tr.self_times(spans)
    pipe = summary["pipeline.run_pipeline"].counts
    rounds = pipe.get("rounds", 0)

    def ms(name):  # mean ms per call
        return _div(summary[name].total_s * 1e3, summary[name].calls)

    def per_round(name):
        return _div(summary[name].total_s * 1e3, rounds)

    def count(name, key):
        return summary[name].counts.get(key, 0)

    m = dict(sizes, **{"corpus.load_corpus.ms": ms("corpus.load_corpus")})
    for name in ROUND_LAYERS + ("pipeline.run_round",):
        m[f"{name}.ms_per_round"] = per_round(name)
    m["model.vocab_size"] = _div(count("model.build_vocab", "vocab_size"),
                                 summary["model.build_vocab"].calls)
    m["model.train.docs_per_s"] = _div(count("model.train", "doc_epochs"),
                                       summary["model.train"].total_s)
    for name, unit in (("model.predict", "doc"),
                       ("attribution.integrated_gradients", "pair")):
        m[f"{name}.calls_per_round"] = _div(summary[name].calls, rounds)
        m[f"{name}.us_per_{unit}"] = _div(summary[name].total_s * 1e6,
                                          summary[name].calls)
    val_docs = count("pipeline.run_round", "val_docs")
    m["attribution.pair_share"] = _div(
        summary["attribution.integrated_gradients"].calls,
        val_docs * pipe.get("classes", 0))
    m["pipeline.topn_keep_ratio"] = _div(
        count("pipeline.top_n_words", "selections"),
        count("attribution.word_scores", "records"))

    round_spans = [s for s in spans if s.name == "pipeline.run_round"]
    round_ms = [s.duration * 1e3 for s in round_spans]
    m["pipeline.run_round.self_ms_per_round"] = _div(
        sum(selfs[s.span_id] for s in round_spans) * 1e3, rounds)

    selections = count("pipeline.aggregate", "selections")
    m["pipeline.aggregate.ms"] = ms("pipeline.aggregate")
    m["pipeline.aggregate.us_per_selection"] = _div(
        summary["pipeline.aggregate"].total_s * 1e6, selections)
    m["pipeline.selections_total"] = selections
    m["pipeline.filter_keywords.ms"] = ms("pipeline.filter_keywords")
    m["pipeline.keyword_yield"] = _div(
        count("pipeline.filter_keywords", "keywords"),
        count("pipeline.filter_keywords", "records_in"))
    # Bytes come from the calls inside `run`: the number of re-renders
    # varies with speed, and a re-render does not rewrite recovery.json.
    cli_run = next(s for s in spans if s.name == "cli.run")
    for name in ("pipeline.write_round_artifacts", "pipeline.write_aggregates",
                 "report.write_reports"):
        m[f"{name}.ms"] = ms(name)
        in_run = [s for s in spans if s.name == name
                  and cli_run.start <= s.start <= cli_run.end]
        m[f"{name}.bytes"] = _div(sum(s.counts.get("bytes", 0) for s in in_run),
                                  len(in_run))
    m["pipeline.load_round_artifacts.ms"] = ms("pipeline.load_round_artifacts")
    m["pipeline.load_round_artifacts.records"] = _div(
        count("pipeline.load_round_artifacts", "records"),
        summary["pipeline.load_round_artifacts"].calls)
    m["pipeline.load_aggregates.ms"] = ms("pipeline.load_aggregates")

    # Pool: how busy the workers were during the round phase.
    m["pipeline.pool.efficiency"] = 0.0
    run_pipeline = next((s for s in spans if s.name == "pipeline.run_pipeline"), None)
    if run_pipeline is not None and round_spans:
        agg = next((s for s in spans if s.name == "pipeline.aggregate"), None)
        phase_end = agg.start if agg else max(s.end for s in round_spans)
        m["pipeline.pool.efficiency"] = _div(
            sum(s.duration for s in round_spans),
            pipe.get("workers", 1) * (phase_end - run_pipeline.start))
    m["cli.run.self_ms"] = selfs[cli_run.span_id] * 1e3

    if len(round_spans) != rounds:
        print(f"trace: {len(round_spans)} round spans for {rounds} rounds; "
              "spans from pool workers were lost", file=sys.stderr)
    return m, round_ms, tr.render(summary)


def report_hashes(run_dir) -> dict:
    return {name: sha256(os.path.join(run_dir, name)) for name in REPORT_FILES
            if os.path.exists(os.path.join(run_dir, name))}


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from igkeywords import cli  # imports every program module, for install()

    tracer = tr.Tracer()
    captured: dict = {}
    tracer.install(traced_targets(tracer, captured) if spec["trace"]
                   else {"pipeline.run_pipeline": {}})

    run_dir = spec["run_dir"]
    with tracer.span("cli.run") as run_span:
        rc_run = cli.main(spec["run_argv"])
    after_run = report_hashes(run_dir)
    if spec["trace"]:
        # What the trace keeps alive (spans, the run's result) must not slow
        # the collector while `report` is timed.
        gc.freeze()

    # Re-render several times; each must reproduce what `run` wrote.
    report_s, rc_report, rerendered = [], [], []
    while len(report_s) < REPORT_MIN or (
            sum(report_s) < REPORT_SECONDS and len(report_s) < REPORT_MAX):
        with tracer.span("cli.report") as report_span:
            rc_report.append(cli.main(["report", "--run-dir", run_dir]))
        report_s.append(report_span.duration)
        rerendered.append(report_hashes(run_dir))

    round0 = next((s.start for s in tracer.spans
                   if s.name == "pipeline.run_pipeline"), run_span.start)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "rc_run": rc_run, "rc_report": max(rc_report, key=abs),
        "setup_s": round0 - T0,
        "wall_s": run_span.end - round0,
        "report_s": statistics.median(report_s),
        "peak_rss_mb": rss_kb / 1024.0,
        "hashes_after_run": after_run,
        "hashes_after_report": rerendered,
    }
    if spec["trace"]:
        # Pickling allocates heavily, so it waits until nothing is timed.
        out["layers"], out["round_ms"], out["table"] = layer_metrics(
            tracer, pool_sizes(captured))
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
