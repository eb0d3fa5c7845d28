"""Outside-in span tracer for the igkeywords benchmark.

Spans are recorded by wrappers that replace module attributes, so the
program itself is not edited.  Each span has a name, a start, an end and
the span that was open when it started (its parent).  A span's self time
is its duration minus the part of that interval its child spans cover.

Spans recorded in a forked worker process are moved onto the object the
carrying call returns (attribute ``_trace_spans``), travel back with it
through the pool's pickling, and are merged by ``harvest`` in the parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import time
from dataclasses import dataclass, field

CARRY_ATTR = "_trace_spans"


@dataclass
class Span:
    span_id: tuple[int, int]
    parent: tuple[int, int] | None
    name: str
    start: float
    end: float
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.wrapped: list[str] = []  # every name installed, called or not
        self.home_pid = os.getpid()
        self._stack: list[tuple[int, int]] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed code as one span; yields the span."""
        span_id = (os.getpid(), next(self._ids))
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        span = Span(span_id, parent, name, self.clock(), 0.0)
        try:
            yield span
        finally:  # code that raises keeps its span
            span.end = self.clock()
            self._stack.pop()
            self.spans.append(span)

    def record(self, name, fn, args=(), kwargs=None, before=None,
               observe=None, carry=False):
        """Call fn inside a span; hooks run outside the timed interval."""
        kwargs = kwargs or {}
        state = _hook(name, before, args, kwargs) if before else None
        mark = len(self.spans)
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        if observe:
            span.counts = _hook(name, observe, args, kwargs, result, state) or {}
        if carry and os.getpid() != self.home_pid:
            try:
                setattr(result, CARRY_ATTR, self.spans[mark:])
            except (AttributeError, TypeError):
                pass  # the parent sees fewer spans than calls and says so
            else:
                del self.spans[mark:]
        return result

    def wrap(self, name, fn, **hooks):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.record(name, fn, args, kwargs, **hooks)
        return wrapper

    def install(self, targets, modules=None):
        """Wrap each "module.function" target in every module that holds it.

        A function imported by name into another module (``from .corpus
        import load_corpus``) is found and wrapped there too.  A target the
        program no longer defines is still listed, and reports 0 calls.
        """
        modules = list(modules if modules is not None else
                       [m for n, m in sys.modules.items()
                        if n == "igkeywords" or n.startswith("igkeywords.")])
        for name, hooks in targets.items():
            self.wrapped.append(name)
            mod_name, _, attr = name.rpartition(".")
            home = next((m for m in modules
                         if m.__name__.rpartition(".")[2] == mod_name), None)
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, **hooks)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def harvest(self, carriers) -> int:
        """Move spans carried back from worker processes into this tracer."""
        moved = 0
        for obj in carriers:
            spans = vars(obj).pop(CARRY_ATTR, None) if hasattr(obj, "__dict__") else None
            if spans:
                self.spans.extend(spans)
                moved += len(spans)
        return moved


def _hook(name, fn, *args):
    """Run a measurement hook; a hook that fails must not fail the program."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - tracing must not change behaviour
        print(f"trace hook for {name} failed: {exc!r}", file=sys.stderr)
        return None


def _covered(start, end, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict[tuple[int, int], float]:
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - _covered(s.start, s.end,
                                               children.get(s.span_id, ()))
            for s in spans}


@dataclass
class NameSummary:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def bypassed(self) -> bool:
        return self.calls == 0


def summarize(spans, names=()) -> dict[str, NameSummary]:
    """Per-name calls, total and self time, and summed counts.

    Every name in ``names`` appears, so a wrapped function the program no
    longer calls shows up with 0 calls rather than disappearing.
    """
    out = {n: NameSummary() for n in names}
    selfs = self_times(spans)
    for s in spans:
        entry = out.setdefault(s.name, NameSummary())
        entry.calls += 1
        entry.total_s += s.duration
        entry.self_s += selfs[s.span_id]
        for key, value in s.counts.items():
            entry.counts[key] = entry.counts.get(key, 0) + value
    return out


def render(summary: dict[str, NameSummary]) -> str:
    lines = [f"{'span':<40} {'calls':>8} {'total ms':>12} {'self ms':>12}"]
    for name, entry in summary.items():
        if entry.bypassed:
            lines.append(f"{name:<40} 0 calls (bypassed)")
        else:
            lines.append(f"{name:<40} {entry.calls:>8d} "
                         f"{entry.total_s * 1e3:>12.3f} {entry.self_s * 1e3:>12.3f}")
    return "\n".join(lines)
