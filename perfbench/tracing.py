"""In-memory spans around the benchmark's calls into padichg.

Every call the client makes goes through Recorder.call, which times it
whether or not tracing is on (the end-to-end metrics need per-call
latencies).  With tracing on, each call and each enclosing block also
becomes a Span; spans stay in memory until the run ends.  Spans are
recorded only from the benchmark's side of the module boundary, so a
library call is a leaf and its duration is that layer's self time.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """Module name for a call span ('hypergeo' for 'hypergeo.eval_family')."""
        return self.name.split(".", 1)[0] if "." in self.name else "client"


class CallFailed:
    """Stands in for the result of a call that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"CallFailed({self.exc!r})"


class Recorder:
    """Times calls; with traced=True also keeps a Span for each."""

    def __init__(self, traced: bool, run_id: str):
        self.traced = traced
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _parent(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def block(self, name: str, **attrs):
        """An enclosing span (a pass, one prime's session)."""
        if not self.traced:
            yield
            return
        span = Span(name, perf_counter(), 0.0, self._parent(), self.run_id, attrs)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = perf_counter()

    def call(self, name: str, fn, *args, **attrs):
        """(result, seconds) of fn(*args); a raised exception becomes
        a CallFailed result so the run goes on and counts the failure."""
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # boundary: report and count, keep running
            traceback.print_exc(file=sys.stderr)
            out = CallFailed(exc)
        t1 = perf_counter()
        if self.traced:
            self.spans.append(Span(name, t0, t1, self._parent(), self.run_id, attrs))
        return out, t1 - t0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The client is one thread making one call at a time, so children of
    one parent never overlap and their durations simply add.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def layer_self_time(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer; 'client' is the benchmark's own glue."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.layer] = out.get(s.layer, 0.0) + t
    return out


def span_records(spans: list[Span]) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "run_id": s.run_id, "attrs": s.attrs}
        for s in spans
    ]
