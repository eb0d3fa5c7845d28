import json

import pytest

from igkeywords.corpus import ValidationError
from igkeywords.pipeline import RoundResult
from igkeywords.report import (EMPTY_CLASS_MARKER, build_keyword_table,
                               f1_summary, marker_recovery,
                               render_f1_summary, render_keyword_table,
                               uniqueness)
from reference_round import AggregateRecord
from reference_round import table_of as aggregate_table


def agg(class_name, word, score, sf, df=10):
    return AggregateRecord(class_name=class_name, word=word, mean_score=score,
                           rounds_selected=int(sf * 100),
                           selection_frequency=sf,
                           instance_count=int(sf * 100), doc_frequency=df)


def round_result(index, micro, per_class):
    return RoundResult(round_index=index, per_class=per_class,
                       micro_f1=micro, val_doc_count=30)


class TestKeywordTable:
    def test_tsv_row_formatting(self):
        records = [agg("ID", "question", 0.5874, 1.0)]
        table = build_keyword_table(aggregate_table(records), ["ID"], 15)
        out = render_keyword_table(table, "tsv")
        assert "ID\tquestion\t0.5874\t100" in out

    def test_empty_class_marker(self):
        table = build_keyword_table(aggregate_table([]), ["SP"], 15)
        out = render_keyword_table(table, "tsv")
        assert EMPTY_CLASS_MARKER in out
        md = render_keyword_table(table, "markdown")
        assert EMPTY_CLASS_MARKER in md

    def test_truncation_to_top_m(self):
        records = [agg("a", "high", 0.9, 1.0), agg("a", "low", 0.1, 1.0)]
        table = build_keyword_table(aggregate_table(records), ["a"], 1)
        assert [w for w, _, _ in table["a"]] == ["high"]

    def test_json_round_trip(self):
        records = [agg("a", "word", 0.12345, 0.87)]
        table = build_keyword_table(aggregate_table(records), ["a"], 15)
        payload = json.loads(render_keyword_table(table, "json"))
        assert payload["a"][0]["word"] == "word"
        assert payload["a"][0]["score"] == pytest.approx(0.12345, abs=1e-4)
        assert payload["a"][0]["sf_percent"] == 87


class TestF1Summary:
    def test_two_point_statistics(self):
        per_class = {"a": {"precision": 0, "recall": 0, "f1": 0.5, "support": 10.0}}
        rounds = [round_result(0, 0.6, per_class),
                  round_result(1, 0.7, per_class)]
        summary = f1_summary(rounds)
        assert summary["micro_mean"] == pytest.approx(0.65)
        assert summary["micro_sd"] == pytest.approx(0.05)
        assert summary["per_class"]["a"]["mean_support"] == 10.0

    def test_single_round_sd_zero(self):
        rounds = [round_result(0, 0.6, {"a": {"precision": 0, "recall": 0,
                                              "f1": 0.4, "support": 3.0}})]
        summary = f1_summary(rounds)
        assert summary["micro_sd"] == 0.0
        assert summary["per_class"]["a"]["sd_f1"] == 0.0

    def test_failed_rounds_excluded(self):
        good = round_result(0, 0.6, {"a": {"precision": 0, "recall": 0,
                                           "f1": 0.4, "support": 3.0}})
        bad = RoundResult(round_index=1, per_class={},
                          micro_f1=0.0, val_doc_count=0, failed=True)
        summary = f1_summary([good, bad])
        assert summary["rounds"] == 1

    def test_no_successful_rounds_rejected(self):
        bad = RoundResult(round_index=0, per_class={},
                          micro_f1=0.0, val_doc_count=0, failed=True)
        with pytest.raises(ValidationError):
            f1_summary([bad])

    def test_render_layout(self):
        per_class = {"HI": {"precision": 0, "recall": 0, "f1": 0.55,
                            "support": 20.0}}
        out = render_f1_summary(f1_summary([round_result(0, 0.6, per_class)]))
        assert out.startswith("Class\tF1(M)\tSD\tSupport(M)")
        assert "Micro AVG" in out


def table_of(lists):
    return {c: [(w, 0.5, 100) for w in words] for c, words in lists.items()}


class TestUniqueness:
    def test_disjoint_lists(self):
        stat = uniqueness(table_of({"a": ["x", "y"], "b": ["z", "w"]}))
        assert stat["per_class"] == {"a": 2, "b": 2}

    def test_identical_lists(self):
        stat = uniqueness(table_of({"a": ["x", "y"], "b": ["x", "y"]}))
        assert stat["per_class"] == {"a": 0, "b": 0}

    def test_partial_overlap(self):
        stat = uniqueness(table_of({"A": ["x", "y", "z"], "B": ["z", "w", "v"]}))
        assert stat["per_class"] == {"A": 2, "B": 2}
        assert stat["mean"] == pytest.approx(2.0)

    def test_bounds(self):
        stat = uniqueness(table_of({"a": ["x", "y", "z"], "b": ["x", "q", "r"],
                                    "c": ["x", "s", "t"]}))
        for count in stat["per_class"].values():
            assert 0 <= count <= 3


class TestMarkerRecovery:
    def test_full_recovery(self):
        records = [agg("a", w, 0.5, 1.0) for w in ("m1", "m2", "m3", "x", "y")]
        out = marker_recovery(aggregate_table(records),
                              {"a": {"m1", "m2", "m3"}})
        assert out["a"]["recall"] == 1.0
        assert out["a"]["precision"] == pytest.approx(0.6)

    def test_empty_keyword_list(self):
        out = marker_recovery(aggregate_table([]), {"a": {"m1"}})
        assert out["a"]["recall"] == 0.0
        assert out["a"]["precision"] == 1.0

    def test_partial_recovery(self):
        records = [agg("a", "m1", 0.5, 1.0), agg("a", "m2", 0.4, 1.0)]
        out = marker_recovery(aggregate_table(records),
                              {"a": {"m1", "m2", "m3"}})
        assert out["a"]["recall"] == pytest.approx(2 / 3)
