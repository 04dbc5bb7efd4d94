"""Body records: what one ESP-summary body run observed and did.

:class:`repro.valueflow.engine.ValueFlowAnalysis` in ``summary_mode``
analyzes each (function, assumed-core context) once per outer fixpoint
iteration. When the engine is handed a body store (the incremental
session's :class:`repro.incremental.segments.SegmentStore`), each
summary/effects body run is recorded so a later verdict can replay it
instead of recomputing it.

**Record**: the returned taint, plus the body's observable effects —
warnings ensured, critical-dependency failures accumulated, value-flow
graph edges added, memory-cell taints joined — plus its *inputs*: the
first-read taint of every memory cell it consulted and the (callee,
context, argument-taints, result) of every call it dispatched. The
store keys it by the function's transitive closure fingerprint (see
:mod:`repro.perf.fingerprint`), the assumed-core context, the body kind
and the serialized argument taints.

Memory cells are identified across processes by *canonical names*
derived from the points-to graph structure (:class:`CellNamer`), never
by the process-local ``Cell.id`` counter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # imported lazily at runtime: valueflow imports us
    from ..valueflow.taint import Taint

# ----------------------------------------------------------------------
# serialization of taints / contexts / locations
# ----------------------------------------------------------------------

SerSource = Tuple[str, str, str, int]
SerTaint = Tuple[Tuple[SerSource, ...], Tuple[SerSource, ...]]


def _ser_sources(sources) -> Tuple[SerSource, ...]:
    return tuple(sorted(
        (s.region, s.function, s.filename, s.line) for s in sources
    ))


def ser_taint(taint: Taint) -> SerTaint:
    return (_ser_sources(taint.data), _ser_sources(taint.control))


#: ser-tuple → interned taint. Taints are interned by value, so the
#: mapping is a pure function; memoizing it keeps warm segment replays
#: (which deserialize the same few taints thousands of times per
#: verdict) off the frozenset-construction path.
_DESER_TAINT_MEMO: Dict[SerTaint, "Taint"] = {}
_DESER_ARGS_MEMO: Dict[Tuple[SerTaint, ...], Tuple["Taint", ...]] = {}


def deser_taint(data: SerTaint) -> "Taint":
    cached = _DESER_TAINT_MEMO.get(data)
    if cached is not None:
        return cached
    from ..valueflow.taint import SAFE, Taint, TaintSource

    data_srcs, control_srcs = data
    if not data_srcs and not control_srcs:
        taint = SAFE
    else:
        taint = Taint(
            frozenset(TaintSource(*s) for s in data_srcs),
            frozenset(TaintSource(*s) for s in control_srcs),
        )
    _DESER_TAINT_MEMO[data] = taint
    return taint


def ser_args(args) -> Tuple[SerTaint, ...]:
    return tuple(ser_taint(a) for a in args)


def deser_args(data) -> Tuple[Taint, ...]:
    cached = _DESER_ARGS_MEMO.get(data)
    if cached is None:
        cached = _DESER_ARGS_MEMO[data] = tuple(
            deser_taint(a) for a in data)
    return cached


def ser_ctx(ctx) -> Tuple[str, ...]:
    return tuple(sorted(ctx))


def ser_loc(location) -> Optional[Tuple[str, int, int]]:
    if location is None:
        return None
    return (location.filename, location.line, location.column)


# ----------------------------------------------------------------------
# body records
# ----------------------------------------------------------------------

@dataclass
class BodyRecord:
    """One persisted summary/effects body run (all fields serialized)."""

    ret: SerTaint
    reads: Tuple[Tuple[str, SerTaint], ...] = ()
    writes: Tuple[Tuple[str, SerTaint], ...] = ()
    #: ((function, region, line), (message, loc, function, region))
    warnings: Tuple[tuple, ...] = ()
    #: ((filename, line, function, variable), data srcs, control srcs)
    failures: Tuple[tuple, ...] = ()
    #: ((kind, label, loc), (kind, label, loc), edge kind)
    edges: Tuple[tuple, ...] = ()
    #: (callee name, context, argument taints, returned taint)
    calls: Tuple[tuple, ...] = ()

    def __getstate__(self):
        # the replaying engine attaches a per-process decoded view
        # (interned taints, VFG nodes) under ``_replay_cache``; the
        # persisted form must stay pure serialized tuples
        state = dict(self.__dict__)
        state.pop("_replay_cache", None)
        return state


class BodyRecorder:
    """Mutable capture buffer for one body run."""

    __slots__ = ("ok", "_reads", "_read_names", "_written", "writes",
                 "warnings", "failures", "edges", "calls")

    def __init__(self):
        self.ok = True
        self._reads: List[Tuple[str, Taint]] = []
        self._read_names = set()
        self._written = set()
        self.writes: List[Tuple[str, Taint]] = []
        self.warnings: List[tuple] = []
        self.failures: List[tuple] = []
        self.edges: List[tuple] = []
        self.calls: List[tuple] = []

    def note_read(self, name: Optional[str], taint: Taint) -> None:
        if name is None:
            self.ok = False
            return
        # only the *first* read of a cell the body has not itself
        # written is an input; later reads see the body's own joins
        if name in self._read_names or name in self._written:
            return
        self._read_names.add(name)
        self._reads.append((name, taint))

    def note_write(self, name: Optional[str], taint: Taint) -> None:
        if name is None:
            self.ok = False
            return
        self._written.add(name)
        self.writes.append((name, taint))

    def note_warning(self, key: tuple, fields: tuple) -> None:
        self.warnings.append((key, fields))

    def note_failure(self, key: tuple, data, control) -> None:
        self.failures.append((key, _ser_sources(data), _ser_sources(control)))

    def note_edge(self, src: tuple, dst: tuple, kind: str) -> None:
        self.edges.append((src, dst, kind))

    def note_call(self, callee: str, ctx, args, ret: Taint) -> None:
        self.calls.append((callee, ser_ctx(ctx), ser_args(args),
                           ser_taint(ret)))

    def coupling(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The named cells this body read/wrote, even when the record
        itself is not persistable (``ok`` is False because an unnamed
        cell was touched). The incremental segment store keeps these as
        dependency-graph facts: a body that is never replayed still
        couples writers to readers, and its edges must take part in
        dirty-cone invalidation."""
        return (tuple(sorted(self._read_names)),
                tuple(sorted(self._written)))

    def finish(self, ret: Taint) -> BodyRecord:
        return BodyRecord(
            ret=ser_taint(ret),
            reads=tuple((n, ser_taint(t)) for n, t in self._reads),
            writes=tuple((n, ser_taint(t)) for n, t in self.writes),
            warnings=tuple(self.warnings),
            failures=tuple(self.failures),
            edges=tuple(self.edges),
            calls=tuple(self.calls),
        )


# ----------------------------------------------------------------------
# canonical cell naming
# ----------------------------------------------------------------------

class CellNamer:
    """Process-independent names for points-to representatives.

    Starting from the named roots of the points-to graph (globals,
    allocas, arguments, return slots), every reachable representative
    is assigned the lexicographically smallest derivation path such as
    ``@shm_ptr.*.angle``. Cells not reachable from any named root stay
    unnamed; records touching them are simply not persisted.
    """

    def __init__(self, points_to):
        self._names: Dict[int, str] = {}
        self._cells: Dict[str, object] = {}
        heap = []
        seq = 0
        for name, cell in points_to.named_roots():
            heapq.heappush(heap, (name, seq, cell))
            seq += 1
        while heap:
            name, _, cell = heapq.heappop(heap)
            rep = cell.find()
            if rep.id in self._names:
                continue
            self._names[rep.id] = name
            self._cells[name] = rep
            if rep.has_pointee():
                heapq.heappush(heap, (f"{name}.*", seq, rep.pointee()))
                seq += 1
            for fname, fcell in sorted(rep.fields().items()):
                heapq.heappush(heap, (f"{name}.{fname}", seq, fcell))
                seq += 1

    def key_of(self, cell) -> Optional[str]:
        return self._names.get(cell.find().id)

    def cell_for(self, name: str):
        cell = self._cells.get(name)
        return cell.find() if cell is not None else None
