"""In-memory span tracer and the statistics helpers of the benchmark.

A span records one call into a layer: name, start, end, its parent
span and the group it belongs to (one micro-batch, or one ``detect``
call). Spans stay in memory and are written once, by ``dump``, when
the run ends. ``self_times`` gives each span's duration minus the part
of it that its children cover.

Everything here is pure Python so that the helpers can be unit-tested
without Spark.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    group: int
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; ``root=True`` opens a new group."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._group = 0

    def begin(self, name: str, *, root: bool = False) -> Span:
        if root and not self._stack:
            self._group += 1
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self._group, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()

    @contextmanager
    def span(self, name: str, *, root: bool = False):
        s = self.begin(name, root=root)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, name: str, fn, *, root: bool = False):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name, root=root):
                return fn(*args, **kwargs)

        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, hi = 0.0, s.start
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
            lo, up = max(c.start, hi, s.start), min(c.end, s.end)
            if up > lo:
                covered += up - lo
                hi = up
        out[s.sid] = s.seconds - covered
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.sid]
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (NumPy's default), 0 ≤ q ≤ 100."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
