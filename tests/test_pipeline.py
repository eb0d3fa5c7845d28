import dataclasses
import json
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igkeywords import model, pipeline, report
from igkeywords.corpus import LabelSpace, ValidationError, build_corpus
from igkeywords.model import TrainConfig
from igkeywords.pipeline import (PipelineConfig, RoundResult, Selections,
                                 filter_keywords, load_aggregates,
                                 load_round_artifacts, round_seeds,
                                 run_pipeline, run_round, write_aggregates)
from reference_round import (AggregateRecord, WordScoreRecord,
                             aggregate_records, fold_rounds,
                             reference_aggregate, table_from_json, table_of,
                             top_n_words)


def rec(word, score, doc_id="d1", class_name="a"):
    return WordScoreRecord(word=word, doc_id=doc_id, class_name=class_name,
                           score=score)


def toy_config(**overrides):
    defaults = dict(ratio=0.6, top_n=5, rounds=3, sf_threshold=0.6,
                    min_doc_frequency=2, master_seed=77,
                    train_config=TrainConfig(epochs=30, d=8, h=8))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestTopNWords:
    def test_orders_by_score(self):
        records = [rec("a", 0.9), rec("b", 0.5), rec("c", 0.1)]
        assert [r.word for r in top_n_words(records, 2)] == ["a", "b"]

    def test_tie_break_lexicographic(self):
        records = [rec("c", 0.5), rec("a", 0.5), rec("b", 0.5)]
        assert [r.word for r in top_n_words(records, 2)] == ["a", "b"]

    def test_fewer_records_than_n(self):
        records = [rec("a", 1.0), rec("b", 0.2), rec("c", 0.4)]
        assert len(top_n_words(records, 20)) == 3


class TestRoundSeeds:
    def test_stable_and_distinct(self):
        assert round_seeds(1, 0) == round_seeds(1, 0)
        assert round_seeds(1, 0) != round_seeds(1, 1)
        assert round_seeds(1, 0) != round_seeds(2, 0)

    def test_negative_master_seed(self):
        round_seeds(-5, 0)  # must not raise


def make_round(index, records, corpus):
    """A round whose selections are ``records``, as columns over the
    tables of ``corpus``."""
    selections = Selections(
        class_idx=np.array([corpus.label_space.index(r.class_name)
                            for r in records], dtype=np.intp),
        word_idx=np.array([corpus.words.index(r.word) for r in records],
                          dtype=np.intp),
        doc_idx=np.zeros(len(records), dtype=np.intp),
        score=np.array([r.score for r in records], dtype=float))
    return RoundResult(round_index=index, selections=selections, per_class={},
                       micro_f1=0.5, val_doc_count=10)


def one_document_corpus(text):
    return build_corpus([("d1", text, {"a"})], LabelSpace(("a",)))


class TestAggregate:
    def test_pooled_mean_and_sf(self):
        config = toy_config(rounds=5)
        corpus = one_document_corpus("w w")
        rounds = [
            make_round(0, [rec("w", 0.2)], corpus),
            make_round(1, [rec("w", 0.4), rec("w", 0.6, doc_id="d2")], corpus),
            make_round(2, [], corpus),
            make_round(3, [], corpus),
            make_round(4, [], corpus),
        ]
        (record,) = aggregate_records(fold_rounds(rounds, corpus, config))
        assert record.mean_score == pytest.approx((0.2 + 0.4 + 0.6) / 3)
        assert record.rounds_selected == 2
        assert record.selection_frequency == pytest.approx(0.4)
        assert record.instance_count == 3

    def test_never_selected_word_absent(self):
        config = toy_config(rounds=1)
        corpus = one_document_corpus("w other")
        rounds = [make_round(0, [rec("w", 0.2)], corpus)]
        records = aggregate_records(fold_rounds(rounds, corpus, config))
        assert {r.word for r in records} == {"w"}

    def test_requires_rounds(self):
        # the fold's selection frequencies divide by the configured rounds
        with pytest.raises(ValidationError):
            toy_config(rounds=0)

    # Classes out of name order, so that the table's class order shows.
    FOLD_CORPUS = build_corpus(
        [("d1", "p q r", {"b"}), ("d2", "q r s t", {"a"}),
         ("d3", "s p", {"a", "c"})], LabelSpace(("c", "a", "b")))
    # Scores over many magnitudes, so that any other order of additions
    # changes a sum.
    SCORES = st.builds(lambda m, e: m * 2.0 ** e, st.floats(-1, 1),
                       st.integers(-40, 40))
    SELECTIONS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4),
                                    SCORES), max_size=12)

    @settings(max_examples=200, deadline=None)
    @given(rounds=st.lists(SELECTIONS, min_size=1, max_size=6))
    @example(rounds=[[(0, 1, 0.5), (0, 1, 1e-20), (2, 0, -3.0)], [],
                     [(0, 1, 1e20), (0, 1, -1e20), (0, 1, 0.25)]])
    def test_fold_equals_reference_aggregate(self, rounds):
        # Empty rounds stand for failed ones; cells repeat within a round.
        corpus = self.FOLD_CORPUS
        config = toy_config(rounds=len(rounds))
        records = [[rec(corpus.words[w], score,
                        class_name=corpus.label_space.classes[c])
                    for c, w, score in selected] for selected in rounds]
        folded = [make_round(i, r, corpus) for i, r in enumerate(records)]
        want = reference_aggregate(list(enumerate(records)), corpus, config)
        assert aggregate_records(fold_rounds(folded, corpus, config)) == want


def agg(word, sf, df, score=0.5, class_name="a"):
    return AggregateRecord(class_name=class_name, word=word, mean_score=score,
                           rounds_selected=int(sf * 10),
                           selection_frequency=sf, instance_count=int(sf * 10),
                           doc_frequency=df)


class TestFilterKeywords:
    def test_strict_threshold_grid(self):
        config = toy_config(sf_threshold=0.6, min_doc_frequency=5)
        eps = 1e-9
        for sf, sf_pass in ((0.6 - eps, False), (0.6, False), (0.6 + eps, True)):
            for df, df_pass in ((4, False), (5, False), (6, True)):
                kept = filter_keywords(table_of([agg("w", sf, df)]), config)
                assert bool(kept) == (sf_pass and df_pass), (sf, df)

    def test_sorted_by_score_descending_within_class(self):
        config = toy_config(sf_threshold=0.0, min_doc_frequency=0)
        records = [agg("x", 0.9, 10, 0.1), agg("y", 0.9, 10, 0.7),
                   agg("z", 0.9, 10, 0.7, class_name="b")]
        kept = filter_keywords(table_of(records), config,
                               class_order=("a", "b"))
        assert kept.pairs() == [("a", "y"), ("a", "x"), ("b", "z")]

    def test_soundness(self):
        config = toy_config(sf_threshold=0.5, min_doc_frequency=3)
        rng = np.random.default_rng(0)
        records = [agg(f"w{i}", float(rng.uniform()), int(rng.integers(10)))
                   for i in range(50)]
        kept = filter_keywords(table_of(records), config)
        kept_set = {w for _, w in kept.pairs()}
        for r in records:
            passes = (r.selection_frequency > 0.5 and r.doc_frequency > 3)
            assert (r.word in kept_set) == passes


    @pytest.mark.parametrize("class_order", [None, ("c", "a"),
                                             ("d", "c", "b", "a")])
    def test_order_equals_the_record_sort(self, class_order):
        config = toy_config(sf_threshold=0.3, min_doc_frequency=2)
        rng = np.random.default_rng(1)
        pairs = sorted({(c, f"w{int(i)}") for c in "bacd"
                        for i in rng.integers(0, 40, 25)})
        records = [agg(w, float(rng.choice([0.2, 0.5, 0.9])),
                       int(rng.integers(0, 6)),
                       score=float(rng.choice([0.1, 0.25, 0.5])),
                       class_name=c) for c, w in pairs]
        rank = {c: i for i, c in enumerate(class_order or ())}
        want = sorted(
            (r for r in records if r.selection_frequency > 0.3
             and r.doc_frequency > 2),
            key=lambda r: (rank.get(r.class_name, len(rank)), r.class_name,
                           -r.mean_score, r.word))
        assert len(want) > 20
        assert aggregate_records(filter_keywords(
            table_of(records), config, class_order=class_order)) == want


def selected_gold(result, corpus):
    """Whether each selection's class is a gold label of its document."""
    return corpus.labels[result.selections.doc_idx,
                         result.selections.class_idx] == 1


class TestRunRound:
    def test_target_rule_exclusivity(self, small_synth):
        corpus, _ = small_synth
        config = toy_config()
        result = run_round(corpus, config, 0)
        assert len(result.selections)
        assert selected_gold(result, corpus).all()

    def test_false_positive_target_excludes_gold(self, small_synth):
        corpus, _ = small_synth
        config = toy_config(selection_target="false-positive")
        result = run_round(corpus, config, 0)
        assert not selected_gold(result, corpus).any()

    def test_determinism(self, small_synth):
        corpus, _ = small_synth
        config = toy_config()
        a = run_round(corpus, config, 1)
        b = run_round(corpus, config, 1)
        assert a.selections == b.selections
        assert a.micro_f1 == b.micro_f1

    def test_top_n_cap(self, small_synth):
        corpus, _ = small_synth
        config = toy_config(top_n=3)
        result = run_round(corpus, config, 0)
        per_doc_class = Counter(zip(result.selections.doc_idx.tolist(),
                                    result.selections.class_idx.tolist()))
        assert per_doc_class
        assert all(n <= 3 for n in per_doc_class.values())


ROUND_METRICS = ("round_index", "failed", "micro_f1", "per_class",
                 "val_doc_count")


class TestRunPipeline:
    def test_artifacts_round_trip(self, small_synth, tmp_path):
        corpus, _ = small_synth
        config = toy_config(rounds=2, dump_scores=True)
        result = run_pipeline(corpus, config, out_dir=tmp_path)
        rounds = load_round_artifacts(tmp_path, 2, corpus.label_space.classes)
        assert len(rounds) == 2
        dumped = [json.loads((tmp_path / pipeline._round_file(i)).read_text(
            encoding="utf-8"))["selections"] for i in range(2)]
        for i, (loaded, ran) in enumerate(zip(rounds, result.rounds)):
            assert dumped[i] == run_round(corpus, config,
                                          i).selections.dumped(corpus)
            assert ([getattr(loaded, f) for f in ROUND_METRICS]
                    == [getattr(ran, f) for f in ROUND_METRICS])
            # folded rounds and rounds read back carry no selections
            assert len(loaded.selections) == len(ran.selections) == 0
        assert dumped[0]
        aggregates = load_aggregates(tmp_path)
        assert aggregates == result.aggregates
        assert aggregates == table_from_json(tmp_path)

    def test_a_run_removes_an_earlier_runs_files(self, small_synth,
                                                 tmp_path):
        corpus, markers = small_synth
        earlier = run_pipeline(corpus, toy_config(rounds=3), out_dir=tmp_path)
        report.write_reports(earlier, tmp_path, top_m=5, planted=markers,
                             class_names=corpus.label_space.classes)
        assert set(report.REPORT_FILES) <= set(os.listdir(tmp_path))
        run_pipeline(corpus, toy_config(rounds=2), out_dir=tmp_path)
        assert sorted(os.listdir(tmp_path)) == [
            "aggregates.json", "aggregates.npz", "aggregates.tsv",
            "round_0000.json", "round_0001.json"]

    def test_sf_bounds_and_round_counts(self, small_synth):
        corpus, _ = small_synth
        config = toy_config(rounds=2)
        result = run_pipeline(corpus, config)
        for record in aggregate_records(result.aggregates):
            assert 0 < record.selection_frequency <= 1
            assert record.rounds_selected <= config.rounds
            assert record.instance_count >= record.rounds_selected

    def test_diverged_round_fails_and_is_not_folded(self, small_synth,
                                                    monkeypatch):
        corpus, _ = small_synth
        config = toy_config(rounds=3)
        survivors = [run_round(corpus, config, i) for i in (1, 2)]
        bce, calls = model._bce_from_logits, []

        def diverging(z, targets):  # NaN at the first step of round 0
            calls.append(1)
            return float("nan") if len(calls) == 1 else bce(z, targets)
        monkeypatch.setattr(model, "_bce_from_logits", diverging)
        with pytest.warns(UserWarning, match="round 0 failed: non-finite "
                                             "loss at epoch 1"):
            result = run_pipeline(corpus, config)
        assert [r.failed for r in result.rounds] == [True, False, False]
        assert result.rounds[0].micro_f1 == 0.0
        # The failed round adds nothing, and selection frequency still
        # divides by the three configured rounds.
        table = result.aggregates
        assert table == fold_rounds(survivors, corpus, config)
        assert table.rounds_selected.max() <= 2
        assert (table.selection_frequency == table.rounds_selected / 3).all()

    def test_worker_count_does_not_change_results(self, small_synth,
                                                  tmp_path):
        corpus, _ = small_synth
        config = toy_config(rounds=3, dump_scores=True)
        serial = run_pipeline(corpus, config, out_dir=tmp_path / "1")
        parallel = run_pipeline(corpus, dataclasses.replace(config, workers=2),
                                out_dir=tmp_path / "2")
        assert serial.aggregates == parallel.aggregates
        assert [r.micro_f1 for r in serial.rounds] == \
            [r.micro_f1 for r in parallel.rounds]
        names = sorted(os.listdir(tmp_path / "1"))
        assert names == sorted(os.listdir(tmp_path / "2"))
        assert "round_0002.json" in names
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    def test_failed_aggregate_write_keeps_the_previous_files(
            self, small_synth, tmp_path, monkeypatch):
        corpus, _ = small_synth
        monkeypatch.setattr(pipeline, "DUMP_ROWS", 7)
        result = run_pipeline(corpus, toy_config(rounds=2), out_dir=tmp_path)
        assert len(result.aggregates) > 7
        names = ("aggregates.npz", "aggregates.json", "aggregates.tsv")
        before = {name: (tmp_path / name).read_bytes() for name in names}
        format_rows = pipeline._aggregate_lines
        calls = []

        def crash_after_one_slice(*args):
            if calls:
                raise OSError("disk full")
            calls.append(1)
            return format_rows(*args)

        monkeypatch.setattr(pipeline, "_aggregate_lines",
                            crash_after_one_slice)
        other = dataclasses.replace(result.aggregates,
                                    mean_score=result.aggregates.mean_score / 2)
        with pytest.raises(OSError, match="disk full"):
            write_aggregates(other, tmp_path)
        assert calls
        assert {name: (tmp_path / name).read_bytes() for name in names} \
            == before
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


class TestAggregatesNpz:
    # A NUL, a tab, quotes and a non-ASCII letter in class names; words of
    # several scripts, one with a NUL and one shared by two classes.
    RECORDS = [AggregateRecord("a\x00", "naïve", 0.5, 2, 1.0, 3, 7),
               AggregateRecord("a\x00", "日本", -1.25, 1, 0.5, 1, 6),
               AggregateRecord("tab\there", "ω\x00", 2.0, 1, 0.5, 2, 5),
               AggregateRecord('"q"', "naïve", 1e-300, 2, 1.0, 4, 7),
               AggregateRecord("é", "☃", 0.125, 1, 0.5, 1, 8)]

    @pytest.mark.parametrize("records", [RECORDS, []],
                             ids=["strings", "no-rows"])
    def test_round_trip_is_exact(self, tmp_path, records):
        table = table_of(records)
        write_aggregates(table, tmp_path)
        loaded = load_aggregates(tmp_path)
        assert loaded == table
        assert aggregate_records(loaded) == records
        for strings in (loaded.classes, loaded.words):
            assert all(type(value) is str for value in strings)
        # the tables hold each distinct class name and word once
        assert sorted(loaded.classes) == sorted({r.class_name
                                                 for r in records})
        assert sorted(loaded.words) == sorted({r.word for r in records})

    def test_tables_keep_only_the_entries_rows_use(self, tmp_path):
        table = table_of(self.RECORDS)
        padded = dataclasses.replace(
            table, class_idx=table.class_idx + 1, word_idx=table.word_idx * 2,
            classes=["unused", *table.classes],
            words=[w for word in table.words for w in (word, "unused")])
        assert padded == table
        write_aggregates(padded, tmp_path)
        loaded = load_aggregates(tmp_path)
        assert loaded == table
        assert "unused" not in loaded.classes + loaded.words
        # in the order of the written tables
        assert loaded.classes == list(table.classes)
        assert loaded.words == list(table.words)

    def test_same_table_writes_the_same_bytes(self, tmp_path):
        write_aggregates(table_of(self.RECORDS), tmp_path / "a")
        write_aggregates(table_of(self.RECORDS), tmp_path / "b")
        assert ((tmp_path / "a" / "aggregates.npz").read_bytes()
                == (tmp_path / "b" / "aggregates.npz").read_bytes())
