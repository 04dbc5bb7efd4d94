"""Disk-backed value-flow segment store (the incremental subsystem).

A *segment* is one persisted summary/effects body run — the
:class:`repro.perf.summary_store.BodyRecord` (reads, writes, warnings,
failures, VFG edges, call dispatches, returned taint) plus its identity
metadata: function, body kind, closure fingerprint, assumed-core
context and serialized argument taints. It is the only store of body
records: the value-flow engine records and replays summary bodies
through it (``entry_key`` / ``lookup`` / ``stage`` / ``flush``) when
the incremental session hands it in.

The store provides:

- **an append-only checksum-framed log**: every frame is length-
  prefixed and sealed (:mod:`repro.perf.integrity`), appended with an
  ``fsync``. A SIGKILL mid-write leaves a torn tail that the next open
  truncates back to the last intact frame (counted as an integrity
  eviction, never an error) — the PR 4 evict-and-recompute discipline.
  The log is compacted in place once dead frames dominate;

- **run lifecycle + dirty-cone invalidation** (:meth:`begin_run`): the
  store remembers the per-function closure fingerprints of the last
  completed run. At the start of a run the engine hands it the current
  map; the diff (edited functions and their transitive callers, new
  functions, deleted functions) seeds a forward closure over the
  writer→reader cell-coupling edges of the persisted
  :class:`repro.incremental.depgraph.DependencyGraph`, and every
  segment in that *dirty cone* is evicted up front. This is
  correctness-load-bearing for trusted replay — see below;

- **trusted (optimistic) replay** (``trust_replay``): recorded cell
  reads reflect the final converged state of the producing run, so
  validating them against mid-fixpoint state (the engine's validating
  replay) rejects nearly every record in the early sweeps and re-pays
  the whole fixpoint. With ``trust_replay`` the engine applies
  intact segments without sweep-time read validation, *defers* every
  read check to the converged end state, and the driver falls back to
  a validating rerun if any deferred check fails. Eviction of the
  dirty cone up front is what makes this sound: a stale record whose
  inputs were produced by changed code is never replayed, so the only
  way a deferred check can pass is that the recorded input really is
  the converged value;

- **coupling stubs** (:meth:`note_coupling`): bodies that cannot be
  persisted (they touched an unnamed cell, or ran through the merged
  context-budget path) still read and write named cells. Their
  writer→reader facts are persisted as stubs so the dirty cone sees
  every coupling, not just the replayable ones.

The dependency graph is serialized alongside the log (``deps.bin``,
sealed) on every flush; it is an introspection artifact — the cone is
always computed from the live segments, so a damaged ``deps.bin`` is
simply rewritten.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..perf.fingerprint import code_digest, combine
from ..perf.integrity import (
    frame, read_frame_log, read_sealed, write_file, write_sealed)
from ..perf.summary_store import BodyRecord
from ..resilience.faults import on_segment_flush
from .depgraph import DependencyGraph

#: bump on any change to the segment/frame layout (named in the header)
SEGMENT_FORMAT_VERSION = 1

LOG_NAME = "segments.log"
DEPS_NAME = "deps.bin"


def _header() -> dict:
    """The first frame's payload: the format and the writer's code."""
    return {"format": SEGMENT_FORMAT_VERSION, "code": code_digest()}


@dataclass
class Segment:
    """One persisted per-(function, context) analysis unit."""

    function: str
    kind: str  # "summary" | "effects"
    closure_fp: str
    ctx: Tuple[str, ...]
    args: tuple
    record: BodyRecord


class SegmentStore:
    """On-disk, crash-tolerant, incrementally-invalidated segment map.

    ``root`` is a directory owned by this store (created on demand);
    the caller namespaces it by config fingerprint so records produced
    under one configuration are never replayed into another.
    """

    def __init__(self, root: str, trust_replay: bool = True):
        self.root = root
        self.path = os.path.join(root, LOG_NAME)
        self.deps_path = os.path.join(root, DEPS_NAME)
        #: engine-visible mode switch: apply records optimistically and
        #: defer read validation to the converged state (the driver
        #: flips this off for the validating fallback rerun)
        self.trust_replay = trust_replay
        self.hits = 0
        self.misses = 0
        self.integrity_evictions = 0
        #: segments evicted by dirty-cone invalidation (not integrity)
        self.evictions = 0
        self.last_seeds: FrozenSet[str] = frozenset()
        self.last_cone: FrozenSet[str] = frozenset()
        #: converged merged-input joins of the last successful run in
        #: this process (see ``ValueFlowAnalysis._apply_merged_seeds``).
        #: Deliberately *not* persisted: seeds are only sound against
        #: the exact segment population that produced them, and a
        #: process restart pays one ordinary warm run to re-harvest.
        self.merged_seeds: Optional[dict] = None
        self._segments: Dict[str, Segment] = {}
        #: function → (read cell names, written cell names) for bodies
        #: analyzed but not persisted (coupling stubs)
        self._couplings: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
        #: closure fingerprints of the last *completed* (flushed) run
        self._closures: Dict[str, str] = {}
        self._staged: Dict[str, Segment] = {}
        self._staged_couplings: Dict[
            str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
        self._tombstones: List[str] = []
        self._uncouple: List[str] = []
        #: metadata captured by :meth:`entry_key`, so :meth:`stage` can
        #: wrap the engine's bare record into a full :class:`Segment`
        self._pending_meta: Dict[str, Tuple[str, str, str, tuple, tuple]] = {}
        #: the closure map of the run in flight (None outside a run)
        self._run_closures: Optional[Dict[str, str]] = None
        self._disk_frames = 0
        self._load()

    # ------------------------------------------------------------------
    # loading / crash recovery
    # ------------------------------------------------------------------

    def _load(self) -> None:
        try:
            frames, torn = read_frame_log(self.path)
        except OSError:  # the torn tail could not be cut off
            frames, torn = [], True
        if torn:
            # a kill mid-append left a torn tail: the intact prefix is
            # kept, the rest is cut off, and one eviction is counted
            self.integrity_evictions += 1
        if not frames:
            if torn:
                self._remove_files()
            return
        header = frames[0]
        if (not isinstance(header, tuple) or len(header) != 2
                or header[0] != "header"
                or header[1] != _header()):
            # foreign or stale-format store: evict wholesale and
            # recompute (stale segments must never replay)
            self.integrity_evictions += 1
            self._remove_files()
            return
        for obj in frames[1:]:
            self._apply(obj)
        self._disk_frames = len(frames)

    def _apply(self, obj: tuple) -> None:
        tag = obj[0]
        if tag == "segment":
            _, key, segment = obj
            self._segments[key] = segment
        elif tag == "evict":
            for key in obj[1]:
                self._segments.pop(key, None)
        elif tag == "coupling":
            _, function, reads, writes = obj
            self._couplings[function] = (tuple(reads), tuple(writes))
        elif tag == "uncouple":
            for function in obj[1]:
                self._couplings.pop(function, None)
        elif tag == "closures":
            self._closures = dict(obj[1])
        # unknown tags are ignored: forward-compatible within a format

    def _remove_files(self) -> None:
        for path in (self.path, self.deps_path):
            try:
                os.unlink(path)
            except OSError:
                pass
        self._segments.clear()
        self._couplings.clear()
        self._closures = {}
        self._disk_frames = 0

    # ------------------------------------------------------------------
    # run lifecycle: dirty-cone invalidation
    # ------------------------------------------------------------------

    def begin_run(self, closures: Dict[str, str]) -> FrozenSet[str]:
        """Start a run: diff closure fingerprints, evict the dirty cone.

        ``closures`` maps every currently defined function to its
        transitive closure fingerprint. Seeds are the symmetric
        difference against the last completed run (edited functions and
        all their transitive callers — the closure fingerprint moves
        for every one of them — plus new and deleted functions); the
        cone is their forward closure over writer→reader cell coupling.
        Idempotent within a run: a fallback rerun recomputes the same
        (already applied) eviction set.
        """
        current = dict(closures)
        seeds = {
            name
            for name in set(self._closures) | set(current)
            if self._closures.get(name) != current.get(name)
        }
        self.last_seeds = frozenset(seeds)
        if seeds:
            graph = self.dependency_graph()
            cone = graph.dirty_cone(seeds)
        else:
            cone = frozenset()
        self.last_cone = cone
        if cone:
            evicted = [key for key, seg in self._segments.items()
                       if seg.function in cone]
            for key in evicted:
                del self._segments[key]
            self._tombstones.extend(evicted)
            self.evictions += len(evicted)
        self._run_closures = current
        return cone

    def dependency_graph(self) -> DependencyGraph:
        """The live graph (persisted segments + coupling stubs)."""
        return DependencyGraph.from_segments(
            self._segments.values(), self._couplings
        )

    # ------------------------------------------------------------------
    # the engine-facing store protocol
    # ------------------------------------------------------------------

    def entry_key(self, func_name: str, kind: str, closure_fp: str,
                  ctx: Tuple[str, ...], args: tuple) -> str:
        """The digest of a body's identity; also captures the metadata
        that turns a staged record into a full :class:`Segment`."""
        key = combine([
            f"func={func_name}",
            f"kind={kind}",
            f"closure={closure_fp}",
            f"ctx={ctx!r}",
            f"args={args!r}",
        ])
        self._pending_meta[key] = (func_name, kind, closure_fp, ctx, args)
        return key

    def lookup(self, key: str) -> Optional[BodyRecord]:
        segment = self._segments.get(key)
        return segment.record if segment is not None else None

    def stage(self, key: str, record: BodyRecord) -> None:
        meta = self._pending_meta.get(key)
        if meta is None:  # unknown key: engine bypassed entry_key
            return
        function, kind, closure_fp, ctx, args = meta
        self._staged[key] = Segment(
            function=function, kind=kind, closure_fp=closure_fp,
            ctx=ctx, args=args, record=record,
        )

    def note_coupling(self, function: str, reads, writes) -> None:
        """Record the cell coupling of a body that has no segment."""
        reads = tuple(sorted(reads))
        writes = tuple(sorted(writes))
        if not reads and not writes:
            return
        self._staged_couplings[function] = (reads, writes)

    def hold_merged_seeds(self, payload: Optional[dict]) -> None:
        """Keep (or poison, with ``None``) the engine's converged
        merged-input joins for the next trusted run in this process."""
        self.merged_seeds = payload

    def discard_staged(self) -> None:
        """Drop everything staged by a run whose deferred validation
        failed: its records were computed against optimistic state."""
        self._staged.clear()
        self._staged_couplings.clear()

    def __len__(self) -> int:
        return len(self._segments)

    # ------------------------------------------------------------------
    # flush / compaction / artifacts
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Persist the completed run: evictions, new segments, coupling
        stubs and the closure map, appended as sealed frames with one
        fsync; then refresh ``deps.bin`` and compact if dead frames
        dominate. No-op when nothing changed."""
        run_closures = self._run_closures
        if run_closures is not None:
            # stubs of re-analyzed (cone) functions that were not
            # re-noted this run describe bodies that no longer exist,
            # as do stubs of deleted functions
            for function in list(self._couplings):
                replaced = function in self._staged_couplings
                gone = function not in run_closures
                stale = function in self.last_cone and not replaced
                if gone or stale:
                    del self._couplings[function]
                    self._uncouple.append(function)
        closures_changed = (
            run_closures is not None and run_closures != self._closures
        )
        if not (self._staged or self._staged_couplings or self._tombstones
                or self._uncouple or closures_changed):
            self._pending_meta.clear()
            return
        frames: List[bytes] = []
        if self._disk_frames == 0:
            frames.append(frame(("header", _header())))
        if self._tombstones:
            frames.append(frame(("evict", tuple(self._tombstones))))
        if self._uncouple:
            frames.append(frame(("uncouple", tuple(self._uncouple))))
        for key, segment in self._staged.items():
            frames.append(frame(("segment", key, segment)))
        for function, (reads, writes) in self._staged_couplings.items():
            frames.append(frame(("coupling", function, reads, writes)))
        if closures_changed:
            frames.append(frame(("closures", dict(run_closures))))
        blob = b"".join(frames)
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(self.path, "ab") as f:
                on_segment_flush(f, blob)
                f.write(blob)
                f.flush()
                os.fsync(f.fileno())
        except OSError:
            return
        self._disk_frames += len(frames)
        self._segments.update(self._staged)
        self._couplings.update(self._staged_couplings)
        if run_closures is not None:
            self._closures = dict(run_closures)
        self._staged.clear()
        self._staged_couplings.clear()
        self._tombstones.clear()
        self._uncouple.clear()
        self._pending_meta.clear()
        live = len(self._segments) + len(self._couplings) + 2
        if self._disk_frames > 2 * live + 64:
            self._compact()
        self._write_deps()

    def _compact(self) -> None:
        """Rewrite the log with only live frames (atomic replace)."""
        frames = [frame(("header", _header()))]
        if self._closures:
            frames.append(frame(("closures", dict(self._closures))))
        for function, (reads, writes) in sorted(self._couplings.items()):
            frames.append(frame(("coupling", function, reads, writes)))
        for key, segment in sorted(self._segments.items()):
            frames.append(frame(("segment", key, segment)))
        if not write_file(self.path, b"".join(frames), fsync=True):
            return
        self._disk_frames = len(frames)

    def _write_deps(self) -> None:
        """Serialize the dependency graph alongside the store."""
        payload = {
            "format": SEGMENT_FORMAT_VERSION,
            "graph": self.dependency_graph().to_payload(),
            "closures": dict(self._closures),
        }
        write_sealed(self.deps_path,
                     pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def read_deps_artifact(self) -> Optional[dict]:
        """Load ``deps.bin``; ``None`` when absent or damaged (the
        artifact is derived state — the caller just rebuilds)."""
        raw, evicted = read_sealed(self.deps_path)
        try:
            payload = pickle.loads(raw) if raw is not None else {}
        except Exception:
            payload, evicted = {}, True
        self.integrity_evictions += evicted
        if payload.get("format") != SEGMENT_FORMAT_VERSION:
            return None
        return payload
