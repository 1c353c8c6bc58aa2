"""In-memory spans around calls into perisched's public functions.

`Tracer.wrap` replaces a public module function or class attribute with a
wrapper that records one span per call: name, phase, start, end and the
span that was open when the call began. `Tracer.restore` puts every
original back. Counts taken at the same boundaries go into
`Tracer.counts`. Spans stay in memory; the benchmark turns them into
per-layer metrics when the workload ends.

Only the calling process is traced. Work that `cli.run_experiment` hands to
worker processes records no spans there.
"""

from __future__ import annotations

import collections
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float
    parent: int | None
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by direct child spans."""
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.phase = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.
        `after(args, result)` runs once the call returns, outside its span."""
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, self.phase, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return_value = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.duration
            if after is not None:
                after(args, return_value)
            return return_value

        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def select(self, name: str, phase: str) -> list[Span]:
        """Spans of `name` begun in `phase`, leaving out calls nested in a
        call of the same name."""
        return [
            s
            for s in self.spans
            if s.name == name
            and s.phase == phase
            and (s.parent is None or self.spans[s.parent].name != name)
        ]

    def children(self, index: int, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent == index and s.name == name]

    def fast(self, name: str, phase: str, own: bool = False) -> float:
        """1st percentile of the named spans' durations (or self times) in
        seconds; 0.0 when the workload made no such call."""
        spans = self.select(name, phase)
        if not spans:
            return 0.0
        return fast(s.self_time if own else s.duration for s in spans)


def fast(samples) -> float:
    """The 1st percentile (nearest rank below) of timing samples."""
    ordered = sorted(samples)
    return ordered[int(0.01 * (len(ordered) - 1))]
