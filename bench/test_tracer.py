"""Tests for the benchmark's span tracer."""

import types

import pytest

import tracer as tr


def fake_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_is_duration_minus_child_time():
    t = tr.Tracer(clock=fake_clock(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
    with t.span("outer"):
        t.record("child", lambda: None)
        t.record("child", lambda: None)
    summary = tr.summarize(t.spans)
    assert summary["outer"].total_s == 10.0
    assert summary["outer"].self_s == 10.0 - 3.0 - 1.0
    assert summary["child"].calls == 2
    assert summary["child"].self_s == summary["child"].total_s == 4.0


def test_overlapping_children_are_covered_once():
    # Children from parallel pool workers overlap; their union counts once,
    # and a child reaching past its parent counts only inside the parent.
    parent = tr.Span((1, 0), None, "pipeline", 0.0, 10.0)
    a = tr.Span((2, 1), (1, 0), "round", 2.0, 5.0)
    b = tr.Span((3, 1), (1, 0), "round", 4.0, 7.0)
    c = tr.Span((3, 2), (1, 0), "round", 9.0, 12.0)
    selfs = tr.self_times([parent, a, b, c])
    assert selfs[(1, 0)] == 10.0 - 5.0 - 1.0
    assert selfs[(2, 1)] == 3.0


def _module(name, **attrs):
    module = types.ModuleType(name)
    vars(module).update(attrs)
    return module


def test_uncalled_function_reports_bypassed_not_zero_ms():
    def used():
        return 1

    def unused():
        return 2

    alpha = _module("pkg.alpha", used=used, unused=unused)
    t = tr.Tracer()
    t.install({"alpha.used": {}, "alpha.unused": {}, "alpha.removed": {}},
              modules=[alpha])
    assert alpha.used() == 1
    summary = tr.summarize(t.spans, t.wrapped)
    assert summary["alpha.used"].calls == 1
    assert summary["alpha.unused"].bypassed
    assert summary["alpha.removed"].bypassed
    lines = {line.split()[0]: line for line in tr.render(summary).splitlines()[1:]}
    assert lines["alpha.unused"].endswith("0 calls (bypassed)")
    assert "ms" not in lines["alpha.unused"]
    assert lines["alpha.removed"].endswith("0 calls (bypassed)")


def test_install_wraps_names_imported_into_other_modules():
    def load():
        return "corpus"

    corpus = _module("pkg.corpus", load=load)
    cli = _module("pkg.cli", load=load, corpus=corpus)
    t = tr.Tracer()
    t.install({"corpus.load": {"observe": lambda a, k, r, s: {"n": len(r)}}},
              modules=[corpus, cli])
    assert cli.load() == "corpus" and corpus.load() == "corpus"
    summary = tr.summarize(t.spans)
    assert summary["corpus.load"].calls == 2
    assert summary["corpus.load"].counts == {"n": 12}


def test_spans_from_a_worker_travel_on_the_result():
    class Result:
        pass

    worker = tr.Tracer()
    worker.home_pid = -1  # as if this process were a forked pool worker
    result = worker.record(
        "round", lambda: worker.record("train", Result) and Result(),
        carry=True)
    assert worker.spans == []
    parent = tr.Tracer()
    assert parent.harvest([result]) == 2
    assert not hasattr(result, tr.CARRY_ATTR)
    names = sorted(s.name for s in parent.spans)
    assert names == ["round", "train"]


def test_a_call_that_raises_keeps_its_span():
    def diverge():
        raise ArithmeticError("non-finite loss")

    t = tr.Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0))
    with pytest.raises(ArithmeticError), t.span("round"):
        t.record("train", diverge)
    summary = tr.summarize(t.spans)
    assert summary["train"].total_s == 2.0
    assert summary["round"].self_s == 2.0
