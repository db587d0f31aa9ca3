"""In-memory spans around the benchmark's calls into the program.

A span records a name, start and end (``perf_counter`` seconds), the
index of its parent span and the request it belongs to. Spans stay in
memory until :meth:`Tracer.dump` writes them once, at the end of a run.
"""
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """Time the body as a child of the innermost open span; a span
        without ``request`` inherits its parent's."""
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        idx = len(self.spans)
        s = Span(name, time.perf_counter(), float("nan"), parent, request)
        self.spans.append(s)
        self._open.append(idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, requests=None) -> list:
        """Durations of the spans called ``name`` (optionally only those
        of the given request ids)."""
        return [
            s.duration
            for s in self.spans
            if s.name == name and (requests is None or s.request in requests)
        ]

    def self_times(self) -> list:
        """Per span: its duration minus the part of it its children cover."""
        kids = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append(s)
        return [_self_time(s, kids[i]) for i, s in enumerate(self.spans)]

    def self_time_by_name(self) -> dict:
        out = {}
        for s, t in zip(self.spans, self.self_times()):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def _self_time(span: Span, children) -> float:
    """``span``'s duration minus the union of its children's intervals,
    each clipped to the span."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered
