"""End-to-end acceptance checks; each test prints a PASS/FAIL line."""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

from igkeywords import checks
from igkeywords.attribution import pair_weights
from igkeywords.corpus import (LabelSpace, SynthConfig, build_corpus,
                               generate_synthetic)
from igkeywords.model import (TrainConfig, init_model, piece_rows,
                              pool_documents)
from igkeywords.pipeline import PipelineConfig, filter_keywords
from igkeywords.report import build_keyword_table, uniqueness
from igkeywords.rundir import write_run
from reference_round import aggregate_records


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {number} - {name}")
        raise
    print(f"PASS: criterion {number} - {name}")


# --- criterion 5/6/7 shared run -------------------------------------------

SYNTH_CONFIG = SynthConfig(num_classes=4, docs_per_class=500,
                           background_vocab_size=5000, markers_per_class=3,
                           marker_injection_prob=0.8, doc_length=(30, 80),
                           multilabel_prob=0.1)
PIPE_CONFIG = PipelineConfig(ratio=0.67, top_n=20, rounds=20,
                             sf_threshold=0.6, min_doc_frequency=5,
                             master_seed=7,
                             train_config=TrainConfig(epochs=20, d=16, h=32))


@pytest.fixture(scope="session")
def big_run(tmp_path_factory):
    corpus, markers = generate_synthetic(SYNTH_CONFIG, seed=20260826)
    out_dir = tmp_path_factory.mktemp("acceptance_run")
    start = time.perf_counter()
    result = write_run(corpus, PIPE_CONFIG, out_dir, markers)
    elapsed = time.perf_counter() - start
    return {"corpus": corpus, "markers": markers, "result": result,
            "out_dir": out_dir, "elapsed": elapsed}


# --- criterion 1 -----------------------------------------------------------

def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic input gradients match finite differences"):
        start = time.perf_counter()
        # every dimension of the IG path mean of 100 random models and inputs
        error = checks.gradient_error()
        assert error <= 1e-4, error
        assert time.perf_counter() - start < 10.0


# --- criterion 2 -----------------------------------------------------------

def test_criterion_2_ig_linear_exactness():
    with criterion(2, "IG is exact on a linear model, per dimension"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        label_space = LabelSpace(("a", "b"))
        cfg = TrainConfig(d=6, h=4, activation="identity")
        corpus = build_corpus([("lin", "p1 p2 p3 p4 p5", {"a"})],
                              label_space)
        params = init_model(np.arange(len(corpus.pieces)), 2, cfg, seed=3)
        rows = np.array([0])
        pieces = piece_rows(params, corpus)
        pooled = pool_documents(params, pieces, corpus, rows)
        inputs = params.embedding[pieces]
        w_eff = params.hidden_weights @ params.output_weights[:, 0]
        expected = inputs * (w_eff / inputs.shape[0])
        weights = pair_weights(params, corpus, rows, pooled, np.array([0]))
        values = inputs * weights[0]
        assert np.max(np.abs(values - expected)) <= 1e-12
        assert time.perf_counter() - start < 1.0


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_ig_completeness():
    with criterion(3, "IG completeness holds for every document"):
        start = time.perf_counter()
        ratios = checks.completeness_ratios()
        assert ratios.max() <= 1e-10, ratios.max()
        assert time.perf_counter() - start < 120.0


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_pipeline_oracle_equivalence():
    with criterion(4, "aggregates equal naive recomputation from dumps"):
        start = time.perf_counter()
        assert len(generate_synthetic(checks.ORACLE_SYNTH, 404)[0]) <= 50
        # raises CheckFailure on any difference in keys, counts, SF or df
        assert checks.oracle_error() <= 1e-12
        assert time.perf_counter() - start < 120.0


# --- criterion 5 -----------------------------------------------------------

def test_criterion_5_synthetic_marker_recovery(big_run):
    with criterion(5, "planted markers recovered with high selection frequency"):
        result = big_run["result"]
        markers = big_run["markers"]
        keywords = {(r.class_name, r.word): r
                    for r in aggregate_records(result.keywords)}
        for class_name, planted in markers.items():
            found = {w for c, w in keywords if c == class_name} & planted
            recall = len(found) / len(planted)
            assert recall >= 0.8, (class_name, recall)
            for word in found:
                sf = keywords[(class_name, word)].selection_frequency
                assert sf >= 0.9, (class_name, word, sf)
        assert big_run["elapsed"] < 600.0


# --- criterion 6 -----------------------------------------------------------

def test_criterion_6_uniqueness(big_run):
    with criterion(6, "mean top-10 uniqueness across classes >= 8"):
        result = big_run["result"]
        classes = big_run["corpus"].label_space.classes
        table = build_keyword_table(result.keywords, classes, 10)
        # brute-force set comparison, independent of the uniqueness() helper
        tops = {c: {w for w, _, _ in rows} for c, rows in table.items()}
        counts = []
        for c, words in tops.items():
            others = set().union(*(tops[o] for o in tops if o != c))
            counts.append(len(words - others))
        assert sum(counts) / len(counts) >= 8.0, counts
        assert uniqueness(table)["per_class"] == {
            c: n for c, n in zip(tops, counts)}


# --- criterion 7 -----------------------------------------------------------

def test_criterion_7_worker_determinism(big_run, tmp_path):
    with criterion(7, "1-worker and 4-worker runs are byte-identical"):
        corpus = big_run["corpus"]
        markers = big_run["markers"]
        config4 = dataclasses.replace(PIPE_CONFIG, workers=4)
        write_run(corpus, config4, tmp_path, markers)
        for name in ("keywords.tsv", "f1_summary.tsv"):
            a = (big_run["out_dir"] / name).read_bytes()
            b = (tmp_path / name).read_bytes()
            assert a == b, name


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_filter_semantics():
    with criterion(8, "strict SF and df threshold boundaries"):
        from reference_round import AggregateRecord, table_of

        t, k, eps = 0.6, 5, 1e-9
        config = PipelineConfig(sf_threshold=t, min_doc_frequency=k)
        for sf in (t - eps, t, t + eps):
            for df in (k - 1, k, k + 1):
                record = AggregateRecord(
                    class_name="a", word="w", mean_score=0.5,
                    rounds_selected=1, selection_frequency=sf,
                    instance_count=1, doc_frequency=df)
                kept = filter_keywords(table_of([record]), config)
                assert bool(kept) == (sf > t and df > k), (sf, df)
