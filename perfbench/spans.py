"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Tracer.wrap`
replaces a public entry point (a module function or a class method)
with a wrapper that records one span per call, and :meth:`Tracer.restore`
puts the originals back. The program itself is never modified.

A span is ``(id, parent, op, name, start, end)`` on the
``time.perf_counter`` clock. ``op`` is the id of the benchmark
operation (one verdict, one request, one edit plus its verdict) the
span belongs to; the operation itself is recorded as a span named
``"op"``, so the spans of one operation form a tree rooted at it.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans. Summed over every span of an
operation, self times equal the operation's wall time; the self time
of the ``"op"`` root is the *unattributed* time — wall time that no
wrapped layer covers.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

OP = "op"


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    start: float
    end: float
    #: True for spans laid out from durations the program reported
    #: (e.g. a shard's ``phase_timings``) rather than timed here
    reported: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        out = {"id": self.id, "parent": self.parent, "op": self.op,
               "name": self.name, "start": self.start, "end": self.end}
        if self.reported:
            out["reported"] = True
        return out


class Tracer:
    """Records spans from every thread into one list."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        """Open a span; its parent and operation are the innermost open
        span's on this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), parent.id if parent else None,
                    parent.op if parent else None, name,
                    time.perf_counter(), 0.0)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def begin_op(self) -> Span:
        """Open the root span of a new operation."""
        op_id = next(self._ids)
        span = Span(op_id, None, op_id, OP, time.perf_counter(), 0.0)
        self._stack().append(span)
        return span

    def add_reported(self, parent: Span, name: str, seconds: float,
                     at: float) -> float:
        """Record a child of ``parent`` from a reported duration,
        starting at ``at``; returns where the next one starts."""
        self.spans.append(Span(next(self._ids), parent.id, parent.op,
                               name, at, at + seconds, reported=True))
        return at + seconds

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr`` until :meth:`restore`."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _covered(intervals: Iterable[Tuple[float, float]],
             lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id → duration minus the time its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {
        span.id: span.duration - _covered(
            children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


@dataclass
class OpBreakdown:
    """Where one operation's wall time went."""

    op: int
    wall: float
    #: layer name → summed self time of that layer's spans
    layers: Dict[str, float]

    @property
    def unattributed(self) -> float:
        return self.layers.get(OP, 0.0)


def breakdowns(spans: Iterable[Span]) -> List[OpBreakdown]:
    """One :class:`OpBreakdown` per recorded operation, in start order.
    Spans recorded outside any operation are ignored."""
    by_op: Dict[int, List[Span]] = {}
    for span in spans:
        if span.op is not None:
            by_op.setdefault(span.op, []).append(span)
    out = []
    for op_id, members in by_op.items():
        root = next((s for s in members if s.id == op_id), None)
        if root is None:
            continue
        selfs = self_times(members)
        layers: Dict[str, float] = {}
        for span in members:
            layers[span.name] = layers.get(span.name, 0.0) + selfs[span.id]
        out.append(OpBreakdown(op_id, root.duration, layers))
    out.sort(key=lambda b: b.op)
    return out
