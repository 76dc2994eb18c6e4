"""In-memory spans recorded around calls into the library, and the self-time
arithmetic that turns them into per-layer numbers.

A span has a name of the form ``<layer>.<function>``, a start and end time
(``time.perf_counter`` seconds), the id of the span that was open when it
started (its parent, or None) and the id of the op it belongs to. Spans are
kept in a list and written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one tracer per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.op = -1

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.op, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    The tracer runs on one thread, so a span's direct children are disjoint
    and lie inside it.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def self_time_by_name(spans: list[Span]) -> dict[int, dict[str, list[float]]]:
    """op id -> span name -> self times of that op's spans with that name."""
    own = self_times(spans)
    out: dict[int, dict[str, list[float]]] = {}
    for s in spans:
        out.setdefault(s.op, {}).setdefault(s.name, []).append(own[s.id])
    return out
