"""igkeywords benchmark.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's synthetic corpus from the seed, then repeats
cycles of `igkeywords run` followed by `igkeywords report --run-dir`
(each cycle in a fresh process, see cycle.py) for about S seconds, and
checks every cycle's outputs.  With --trace 0 it reports the end-to-end
metrics named in BENCHMARK.json as medians over the cycles; with --trace 1
it alternates untraced and traced cycles and reports the per-layer
metrics, medians over the traced cycles.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Exits with code 2, printing no result, when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
from cycle import COUNT_METRICS, ROUND_LAYERS, sha256

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
RUN_DEADLINE_S = 160  # a run ends within 180 s, even if a cycle hangs
MIN_CYCLES = 3
BLAS_THREADS = "1"  # workers x BLAS threads stays within the 2-core budget

# Filter and table settings, passed explicitly so the checks know them.
SF_THRESHOLD, MIN_DF, TOP_M = 0.6, 5, 15

# Rounds are cut below the ROADMAP's 20 so that a run holds about ten
# short cycles: on a shared 2-vCPU host the machine's speed drifts by tens
# of percent from second to second, and a median over many short cycles
# is steadier than one over a few long ones.  The work in a round is kept.
# Both workloads run one worker: a 2-worker pool doubled the spread of the
# timings (both vCPUs busy), so no workload runs the process pool.
WORKLOADS = {
    # 4x500 docs of 30-80 words, d=16, h=32, 20 Adam epochs: training is
    # about 80% of a round.  Selections are dumped, so the round artifacts
    # are large, `report` reads them back, and the aggregates can be checked
    # against a naive recomputation.
    "train-bound": {
        "synth": dict(num_classes=4, docs_per_class=500,
                      background_vocab_size=5000, markers_per_class=3,
                      doc_length=(30, 80)),
        "flags": ["--epochs", "20", "--learning-rate", "0.01",
                  "--embedding-dim", "16", "--hidden-dim", "32",
                  "--ig-steps", "50", "--top-n", "20", "--ratio", "0.67",
                  "--rounds", "2", "--dump-scores", "--workers", "1"],
    },
    # Long documents over a 20k background, 4 epochs, m=200, top-n 50:
    # per-document predict/IG/word reduction/top-n outweigh training.
    "explain-bound": {
        "synth": dict(num_classes=4, docs_per_class=250,
                      background_vocab_size=20000, markers_per_class=5,
                      doc_length=(120, 240)),
        "flags": ["--epochs", "4", "--learning-rate", "0.1",
                  "--ig-steps", "200", "--top-n", "50", "--ratio", "0.5",
                  "--rounds", "4", "--workers", "1"],
    },
}


class CheckoutError(RuntimeError):
    """The benchmark cannot run in this directory."""


def flag_value(flags, name):
    return flags[flags.index(name) + 1]


def tree_hashes(run_dir) -> dict[str, str]:
    return {name: sha256(os.path.join(run_dir, name))
            for name in sorted(os.listdir(run_dir))}


def machine_facts(src, workload, seed) -> dict:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = 0
    for dirpath, _dirs, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workers": int(flag_value(WORKLOADS[workload]["flags"], "--workers")),
        "src_lines": src_lines,
    }


class Bench:
    def __init__(self, root, workload, seed, trace):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "igkeywords", "__init__.py")):
            raise CheckoutError(f"no program source under {self.src}")
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.spec = json.load(fh)
        self.work = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        self.flags = WORKLOADS[workload]["flags"]
        self.rounds = int(flag_value(self.flags, "--rounds"))
        self.cycles: list[dict] = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.notes: list[str] = []
        self.quality: dict = {}
        self.content_errors: list[str] = []  # the first cycle's output checks

    # -- inputs -------------------------------------------------------
    def make_corpus(self):
        sys.path.insert(0, self.src)
        from igkeywords.corpus import (SynthConfig, generate_synthetic,
                                       save_corpus, save_markers)
        os.makedirs(self.work)
        corpus, markers = generate_synthetic(
            SynthConfig(**WORKLOADS[self.workload]["synth"]), self.seed)
        self.corpus_path = os.path.join(self.work, "corpus.jsonl")
        self.markers_path = os.path.join(self.work, "markers.json")
        save_corpus(corpus, self.corpus_path)
        save_markers(markers, self.markers_path)
        self.classes = list(corpus.label_space.classes)

    # -- one cycle ----------------------------------------------------
    def run_cycle(self, traced: bool) -> dict:
        index = len(self.cycles)
        run_dir = os.path.join(self.work, f"run{index}")
        spec_path = os.path.join(self.work, f"cycle{index}.json")
        result_path = os.path.join(self.work, f"cycle{index}.result.json")
        spec = {
            "src": self.src, "run_dir": run_dir, "trace": traced,
            "result_path": result_path,
            "run_argv": ["run", "--corpus", self.corpus_path,
                         "--markers", self.markers_path, "--out-dir", run_dir,
                         "--master-seed", str(self.seed),
                         "--sf-threshold", str(SF_THRESHOLD),
                         "--min-doc-frequency", str(MIN_DF),
                         "--top-m", str(TOP_M)] + self.flags,
        }
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                   OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        log_path = os.path.join(self.work, f"cycle{index}.log")
        start = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "cycle.py"), spec_path],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                # The cycle's pool workers are in its process group; stop them all.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        cycle = {"traced": traced, "run_dir": run_dir, "errors": [],
                 "elapsed_s": time.perf_counter() - start}
        if rc != 0 or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8") as log:
                cycle["errors"].append(
                    f"cycle process exited with {rc}; log: {log.read()[-2000:]}")
        else:
            with open(result_path, encoding="utf-8") as fh:
                cycle.update(json.load(fh))
            self.check_cycle(cycle)
        self.cycles.append(cycle)
        return cycle

    # -- checks -------------------------------------------------------
    def check_cycle(self, cycle):
        errors = cycle["errors"]
        if cycle["rc_run"] != 0 or cycle["rc_report"] != 0:
            errors.append(f"exit codes: run {cycle['rc_run']}, "
                          f"report {cycle['rc_report']}")
            return
        run_dir = cycle["run_dir"]
        cycle["hashes"] = tree_hashes(run_dir)
        if sorted(cycle["hashes_after_run"]) != sorted(checks.REPORT_FILES):
            errors.append("run did not write " + ", ".join(checks.REPORT_FILES))
        for rendered in cycle["hashes_after_report"]:
            if rendered != cycle["hashes_after_run"]:
                errors.append("report did not reproduce "
                              + ", ".join(sorted(checks.REPORT_FILES)))
                break
        first = next((c for c in self.cycles if "hashes" in c), None)
        if first is not None:
            # Every later cycle must write what the checked first one wrote,
            # and so shares its verdict.
            if cycle["hashes"] != first["hashes"]:
                changed = sorted(n for n in cycle["hashes"].keys() | first["hashes"].keys()
                                 if cycle["hashes"].get(n) != first["hashes"].get(n))
                errors.append("outputs differ from the first cycle's "
                              f"({'traced' if cycle['traced'] else 'untraced'} "
                              f"run): {', '.join(changed[:5])}")
            errors.extend(self.content_errors)
            return
        self.content_errors = self.output_errors(run_dir)
        errors.extend(self.content_errors)

    def output_errors(self, run_dir) -> list[str]:
        """Check the outputs against the filter rule and, where scores are
        dumped, a naive aggregation; also reads the quality metrics."""
        errors = []
        aggregates = checks.read_aggregates(run_dir)
        with open(os.path.join(run_dir, "keywords.tsv"), encoding="utf-8") as fh:
            self.keyword_lines = fh.read().splitlines()
        expected = checks.expected_keyword_lines(
            aggregates, self.classes, SF_THRESHOLD, MIN_DF, TOP_M)
        if self.keyword_lines != expected:
            errors.append("keywords.tsv rows differ from the SF > t, df > k rule "
                          "applied to aggregates.json")
        rounds = checks.read_rounds(run_dir)
        if len(rounds) != self.rounds:
            errors.append(f"{len(rounds)} round artifacts for {self.rounds} rounds")
        if "--dump-scores" in self.flags:
            errors.extend(checks.naive_aggregate_errors(rounds, aggregates, self.rounds))
        self.quality = quality_metrics(rounds, run_dir)
        return errors

    def compare_reference(self, record):
        first = next((c for c in self.cycles if "hashes" in c), None)
        if first is None:
            return
        current = {name: first["hashes"][name] for name in checks.REPORT_FILES}
        current["keywords_lines"] = self.keyword_lines
        refs = {}
        if os.path.exists(REFERENCE_PATH):
            with open(REFERENCE_PATH, encoding="utf-8") as fh:
                refs = json.load(fh)
        if record:
            refs.setdefault(self.workload, {})[str(self.seed)] = current
            with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
            self.notes.append(f"reference recorded for seed {self.seed}")
            return
        ref = refs.get(self.workload, {}).get(str(self.seed))
        if ref is None:
            self.notes.append(f"reference: none recorded for seed {self.seed}")
            return
        for name in checks.REPORT_FILES:
            if ref[name] == current[name]:
                self.notes.append(f"reference: {name} identical")
            else:
                self.notes.append(f"reference: {name} DIFFERS")
        if ref["keywords.tsv"] != current["keywords.tsv"]:
            self.notes.extend("reference: " + n for n in checks.keyword_diff(
                ref["keywords_lines"], current["keywords_lines"]))

    # -- the run ------------------------------------------------------
    def run(self, seconds, record_reference=False) -> dict:
        start = time.perf_counter()
        pattern = [False, True] if self.trace else [False]
        minimum = 4 if self.trace else MIN_CYCLES
        while True:
            done = len(self.cycles)
            if done >= minimum:
                typical = statistics.median(c["elapsed_s"] for c in self.cycles)
                if time.perf_counter() - start + typical > seconds:
                    break
            cycle = self.run_cycle(pattern[done % len(pattern)])
            if cycle["errors"] and not any("hashes" in c for c in self.cycles):
                break  # no cycle has produced checkable output; stop early
        self.compare_reference(record_reference)
        return self.result()

    def result(self) -> dict:
        failed = sum(1 for c in self.cycles if c["errors"])
        good = [c for c in self.cycles if not c["errors"]]
        untraced = [c for c in good if not c["traced"]]
        traced = [c for c in good if c["traced"]]
        metrics = {}
        if self.trace:
            if untraced and traced:
                metrics = self.layer_metrics(untraced, traced)
                failed += self.check_counts(traced)
            wanted = self.spec["per_layer"]
        else:
            if untraced:
                metrics = {k: statistics.median(c[k] for c in untraced)
                           for k in ("setup_s", "wall_s", "report_s", "peak_rss_mb")}
                metrics.update(self.quality)
            wanted = self.spec["end_to_end"]
        out = {}
        for m in wanted:
            if m["name"] in metrics:
                out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
            elif good:
                raise CheckoutError(f"metric {m['name']} was not measured")
        return {"correct": failed == 0,
                "attempted": len(self.cycles), "failed": failed, "metrics": out}

    def layer_metrics(self, untraced, traced) -> dict:
        names = traced[0]["layers"].keys()
        metrics = {k: statistics.median(c["layers"][k] for c in traced) for k in names}
        round_ms = [ms for c in traced for ms in c["round_ms"]]
        metrics["pipeline.run_round.ms_p50"] = statistics.median(round_ms)
        metrics["pipeline.run_round.ms_p90"] = (
            statistics.quantiles(round_ms, n=10, method="inclusive")[8]
            if len(round_ms) > 1 else round_ms[0])
        self.notes.append(f"run_round samples: {len(round_ms)}")
        wall_t = statistics.median(c["wall_s"] for c in traced)
        wall_u = statistics.median(c["wall_s"] for c in untraced)
        metrics["trace.overhead_ms_per_round"] = (wall_t - wall_u) * 1e3 / self.rounds
        in_round = sum(metrics[f"{n}.ms_per_round"] for n in ROUND_LAYERS)
        self.notes.append(
            "round time closure: layers {:.3f} + run_round self {:.3f} = {:.3f} ms; "
            "run_round {:.3f} ms; tracing overhead {:.3f} ms/round".format(
                in_round, metrics["pipeline.run_round.self_ms_per_round"],
                in_round + metrics["pipeline.run_round.self_ms_per_round"],
                metrics["pipeline.run_round.ms_per_round"],
                metrics["trace.overhead_ms_per_round"]))
        self.notes.append("span table of the last traced cycle:\n" + traced[-1]["table"])
        return metrics

    def check_counts(self, traced) -> int:
        """Count metrics must repeat exactly; returns the cycles that differ."""
        first = {k: traced[0]["layers"][k] for k in COUNT_METRICS}
        bad = 0
        for c in traced[1:]:
            diff = [k for k in COUNT_METRICS if c["layers"][k] != first[k]]
            if diff:
                c["errors"].append(f"count metrics differ between runs: {diff}")
                bad += 1
        return bad


def quality_metrics(rounds, run_dir) -> dict:
    ok = [r for r in rounds if not r["failed"]]
    with open(os.path.join(run_dir, "recovery.json"), encoding="utf-8") as fh:
        recovery = json.load(fh)
    return {
        "rounds_ok_ratio": len(ok) / len(rounds),
        "micro_f1_mean": statistics.fmean(r["micro_f1"] for r in ok) if ok else 0.0,
        "marker_recall_mean": statistics.fmean(v["recall"] for v in recovery.values()),
        "marker_precision_mean": statistics.fmean(
            v["precision"] for v in recovery.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's output hashes in reference.json")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        bench = Bench(root, args.workload, args.seed, bool(args.trace))
    except (CheckoutError, FileNotFoundError) as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    try:
        bench.make_corpus()
        facts = machine_facts(bench.src, args.workload, args.seed)
        result = bench.run(args.seconds, args.record_reference)
    except CheckoutError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass  # another run still uses it, or it was never made
    print("facts " + json.dumps(facts, sort_keys=True))
    for c in bench.cycles:
        kind = "traced" if c["traced"] else "untraced"
        status = "ok" if not c["errors"] else "FAILED: " + "; ".join(c["errors"])
        times = " ".join(f"{k}={c[k]:.4f}" for k in ("setup_s", "wall_s", "report_s")
                         if k in c)
        print(f"cycle {kind} {c['elapsed_s']:.2f}s {times} {status}")
    for note in bench.notes:
        print(note)
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
