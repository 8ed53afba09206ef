"""In-memory spans around the benchmark's calls into seqmeter's layers.

A span is one timed call: its name is ``<module>.<function>``, and it
carries the per-layer metric it feeds, its parent span and the query it
belongs to.  Spans are recorded only from the benchmark's own code, so
a layer's self time is its span's duration minus the time covered by
spans nested inside it.

``NullTracer`` has the same interface and records nothing; the untraced
runs use it so that end-to-end timings carry no tracing cost.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    metric: str | None
    parent: int | None
    query: str
    round: int
    start: float
    end: float = 0.0


class NullTracer:
    """Calls through with no bookkeeping."""

    def call(self, name, metric, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def query(self, qid, rnd):
        yield


class Tracer:
    """Records a span for every layer call and every query execution."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name, metric, query, rnd) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, metric, parent, query, rnd, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name, metric, fn, *args, **kwargs):
        top = self._stack[-1]
        span = self._open(name, metric, top.query, top.round)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    @contextmanager
    def query(self, qid, rnd):
        span = self._open("bench.query", None, qid, rnd)
        try:
            yield
        finally:
            self._close(span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Round -> metric -> summed self time in seconds."""
    own = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        if s.metric is not None:
            per_round = out.setdefault(s.round, {})
            per_round[s.metric] = per_round.get(s.metric, 0.0) + own[s.sid]
    return out
