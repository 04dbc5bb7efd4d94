"""Phase 3: interprocedural unsafe-value propagation (§3.3).

The engine implements the operational rules of §2 over the SSA IR:

- a load from a non-core shared region outside any monitoring context
  yields an *unsafe* value and a warning;
- inside a monitoring context (an ``assume(core(...))`` in force for
  the current call sequence) the same load is *safe*;
- taint propagates through computation (data), through memory cells
  (via the points-to analysis), across calls (context-sensitively: the
  assumed-core set flows to callees, and functions are re-analyzed per
  distinct context/argument-taint combination, memoized ESP-style),
  and through control dependence (phi nodes and stores in blocks
  controlled by unsafe branches acquire *control* provenance — the
  §3.4.1 false-positive class);
- every ``assert(safe(x))`` marker and every implicitly critical call
  argument (``kill``'s pid, §3.1) is checked; failures become
  :class:`CriticalDependencyError` with a value-flow-graph witness.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.config import AnalysisConfig
from ..degrade import degraded_region
from ..frontend.driver import Program
from ..frontend.parser import BUILTIN_FUNCTIONS
from ..resilience.guards import check_deadline
from ..ir import (
    Alloca,
    Argument,
    Call,
    Cast,
    Function,
    IndexAddr,
    Instruction,
    Load,
    Value,
)
from ..ir.values import GlobalVariable
from ..annotations.lang import AssertSafe
from ..pointer import Cell, PointsToAnalysis
from ..reporting.diagnostics import (
    CriticalDependencyError,
    DependencyKind,
    Severity,
    UnmonitoredReadWarning,
)
from ..perf.summary_store import (
    BodyRecorder,
    CellNamer,
    deser_args,
    deser_taint,
    ser_args,
    ser_ctx,
    ser_loc,
    ser_taint,
)
from ..shm.model import RegionSet
from ..shm.propagation import ResolvedAssume, ShmAnalysis
from .taint import SAFE, Taint, TaintSource, join_all
from .vfg import ValueFlowGraph, VFGNode

Context = FrozenSet[str]
EMPTY_CONTEXT: Context = frozenset()

#: externals whose nth argument is implicitly critical data (§3.1:
#: "the arguments to system calls such as the process-id argument to
#: kill are asserted to be critical data")
IMPLICIT_CRITICAL_CALLS: Dict[str, Tuple[int, ...]] = {"kill": (0,)}

#: byte-copy externals: taint flows from the source buffer cell (arg 1)
#: into the destination buffer cell (arg 0)
COPY_CALLS = frozenset({"memcpy", "memmove", "strcpy", "strncpy"})

_MAX_OUTER_ITERATIONS = 24

#: distinguishes "no evicted result to compare against" from any taint
_NO_RESULT = object()


class _CellMap(dict):
    """``cell_taint`` with read/write observation for the sparse
    fixpoint.

    ``get`` registers the cell as a *read dependency* of the body
    currently on the engine's body stack; ``__setitem__`` marks the
    cell dirty when its taint actually changes (taints only grow, so
    "changed" means "grew") and bumps ``version`` so summary replay can
    detect interleaved mutation.
    """

    def __init__(self, engine: "ValueFlowAnalysis"):
        super().__init__()
        self._engine = engine
        self.version = 0

    def get(self, cell, default=SAFE):
        engine = self._engine
        if engine._body_stack:
            engine._note_cell_read(cell)
        return dict.get(self, cell, default)

    def __setitem__(self, cell, value) -> None:
        if dict.get(self, cell) != value:
            self.version += 1
            self._engine._dirty_cells.add(cell)
        dict.__setitem__(self, cell, value)


class _RecordingCellMap(_CellMap):
    """``_CellMap`` that additionally feeds the summary-body recorder.

    Installed only when a segment store is active. ``get`` reports the
    observed taint to the current body recorder (a record's *inputs*);
    ``__setitem__`` reports joins (its *effects*).
    """

    def get(self, cell, default=SAFE):
        value = _CellMap.get(self, cell, default)
        engine = self._engine
        recorder = engine._active_recorder()
        if recorder is not None:
            recorder.note_read(engine._cell_key(cell), value)
        elif engine._body_stack and len(engine._body_stack[-1]) == 1:
            # merged (context-budget) bodies have no recorder, but
            # their cell couplings must still reach the segment
            # store's dependency graph (dirty-cone soundness)
            engine._note_merged_coupling(cell, read=True)
        return value

    def __setitem__(self, cell, value) -> None:
        _CellMap.__setitem__(self, cell, value)
        engine = self._engine
        recorder = engine._active_recorder()
        if recorder is not None:
            recorder.note_write(engine._cell_key(cell), value)
        elif engine._body_stack and len(engine._body_stack[-1]) == 1:
            engine._note_merged_coupling(cell, read=False)


class _RecordingVFG(ValueFlowGraph):
    """Value flow graph that mirrors edge adds into the body recorder."""

    def __init__(self, engine: "ValueFlowAnalysis"):
        super().__init__()
        self._engine = engine

    def add_edge(self, src: VFGNode, dst: VFGNode, kind: str = "data") -> None:
        super().add_edge(src, dst, kind)
        recorder = self._engine._active_recorder()
        if recorder is not None:
            recorder.note_edge(
                (src.kind, src.label, src.location),
                (dst.kind, dst.label, dst.location),
                kind,
            )


class _Finished:
    """The engine as its cell map and graph see it once the run is
    over: no body is running, so nothing is observed or recorded."""

    _body_stack = ()

    @property
    def _dirty_cells(self) -> Set[Cell]:
        return set()  # a fresh sink: late writes mark nothing dirty

    @staticmethod
    def _active_recorder() -> None:
        return None


_FINISHED = _Finished()


class ValueFlowAnalysis:
    """Runs phase 3 over one program; results in ``warnings``/``errors``."""

    def __init__(self, program: Program, shm: ShmAnalysis,
                 config: Optional[AnalysisConfig] = None,
                 summary_store=None):
        self.program = program
        self.shm = shm
        self.config = config or AnalysisConfig()
        self.module = program.module
        self.points_to = PointsToAnalysis(self.module, shm.callgraph).run()

        #: optional :class:`repro.incremental.segments.SegmentStore`;
        #: when set, summary bodies are recorded/replayed across verdicts
        self.summary_store = summary_store
        #: (function, body kind, "hit"|"miss") per summary body, in
        #: execution order — lets tests pin down exact invalidation
        self.summary_events: List[Tuple[str, str, str]] = []
        self._recorders: List[Optional[BodyRecorder]] = []
        self._flow_fps = None
        self._cell_namer: Optional[CellNamer] = None
        #: trusted (optimistic) segment replay: apply records without
        #: sweep-time read validation and re-check every replayed read
        #: against the *converged* state at the end of the run; on any
        #: mismatch the driver falls back to a validating rerun
        self._trust_replay = (summary_store is not None
                              and summary_store.trust_replay)
        self._deferred_reads: List[Tuple] = []  # (cell, expected ser)
        self._deferred_seen: Set[Tuple] = set()
        #: merged-input seeds applied this run (function → the seed
        #: entry it must still serialize to at convergence)
        self._seed_expect: Dict[Function, tuple] = {}
        self.replay_validation_failed = False
        #: cell couplings of merged bodies (no recorder), reported to
        #: the segment store as dependency-graph stubs
        self._merged_coupling: Dict[str, Tuple[Set[str], Set[str]]] = {}

        self._profile = bool(getattr(self.config, "profile", False))
        #: sparse-fixpoint bookkeeping (see :meth:`_converge`)
        self._body_stack: List[Tuple] = []
        self._key_reads: Dict[Tuple, Set[Cell]] = {}
        self._cell_readers: Dict[Cell, Set[Tuple]] = {}
        self._key_calls: Dict[Tuple, Set[Tuple]] = {}
        self._result_observers: Dict[Tuple, Set[Tuple]] = {}
        self._func_keys: Dict[Function, Set[Tuple]] = {}
        self._root_keys: Set[Tuple] = set()
        self._dirty_cells: Set[Cell] = set()
        self._merged_dirty: Set[Function] = set()
        #: revalidation state: the inputs each memo key last ran with
        #: (so an evicted body can re-run directly, without a root
        #: descent), the evicted results awaiting comparison, and the
        #: queue of keys to re-run next sweep
        self._key_inputs: Dict[
            Tuple, Tuple[Function, Context, Tuple[Taint, ...]]
        ] = {}
        self._stale: Dict[Tuple, Taint] = {}
        self._revalidation: "deque[Tuple]" = deque()
        #: observability (``AnalysisStats.kernel_counters``)
        self.kernel_counters: Dict[str, int] = {
            "outer_iterations": 0,
            "bodies_analyzed": 0,
            "body_memo_hits": 0,
            "sparse_invalidated": 0,
            "cells_dirtied": 0,
        }
        #: per-body inclusive/self timings when ``config.profile``
        self.body_profile: Dict[str, Dict[str, float]] = {}
        self._profile_stack: List[list] = []

        #: compiled kernel (bitset taints + flat opcode programs) that
        #: runs every body (see repro.valueflow.kernel)
        from .kernel import KernelState

        self._kernel = KernelState(self)
        self._value_node_memo: Dict[Tuple[Function, Value], VFGNode] = {}

        if summary_store is not None:
            self.cell_taint: Dict[Cell, Taint] = _RecordingCellMap(self)
            self.vfg = _RecordingVFG(self)
        else:
            self.cell_taint = _CellMap(self)
            self.vfg = ValueFlowGraph()
        self.warnings_map: Dict[Tuple[str, str, int], UnmonitoredReadWarning] = {}
        self._failures: Dict[Tuple[str, int, str, str], Dict[str, Set[TaintSource]]] = {}
        #: fail-closed degradation (see :mod:`repro.degrade`): calls
        #: into these functions are unmonitored non-core flow
        self._degraded_functions = frozenset(
            getattr(program, "degraded_functions", ()) or ())
        #: a whole translation unit was dropped — unresolved externals
        #: may live in it, so they too are treated fail-closed
        self._unit_degraded = any(
            d.kind == "unit" for d in getattr(program, "degraded", ()) or ())
        self._memo: Dict[Tuple, Taint] = {}
        self._in_progress: Set[Tuple] = set()
        self._ineffective: Set[Tuple[str, str]] = set()
        self._ctx_counts: Dict[Function, Set[Context]] = {}
        self._merged_inputs: Dict[Function, Tuple[Context, Tuple[Taint, ...]]] = {}
        self._summary_args: Dict[Function, Tuple[Taint, ...]] = {}
        self._inputs_changed = False
        self._assert_vars: Dict[Tuple[str, int], str] = {}
        for annotation in program.annotations:
            for item in annotation.items:
                if isinstance(item, AssertSafe) and item.location is not None:
                    key = (item.location.filename, item.location.line)
                    self._assert_vars[key] = item.variable

        self.warnings: List[UnmonitoredReadWarning] = []
        self.errors: List[CriticalDependencyError] = []
        self.witness_graphs: Dict[int, str] = {}
        self.contexts_analyzed = 0

    # ------------------------------------------------------------------

    def run(self) -> "ValueFlowAnalysis":
        """Run phase 3 (see :meth:`_run`), then cut the engine's
        reference cycles: its kernel, cell map and recording graph
        point back at it, and without the cut every run's engine state
        would wait for a garbage collection instead of dying by
        refcount when the caller drops the engine."""
        try:
            return self._run()
        finally:
            self._kernel = None
            self.cell_taint._engine = _FINISHED
            if isinstance(self.vfg, _RecordingVFG):
                self.vfg._engine = _FINISHED

    def _run(self) -> "ValueFlowAnalysis":
        """Outer fixpoint over the interprocedural cell/taint state (see
        :meth:`_converge`), then the report artifacts and the segment
        store's flush."""
        store = self.summary_store
        if store is not None:
            # incremental invalidation: hand the store every defined
            # function's closure fingerprint so it can evict the dirty
            # cone (changed functions + transitive callers via the
            # fingerprint diff, cell-coupled readers via its dependency
            # graph) before the first lookup
            store.begin_run({
                func.name: self._closure_fp(func)
                for func in self.module.defined_functions()
            })
            if self._trust_replay:
                self._apply_merged_seeds(store)
        self._converge(self._roots())
        if self._trust_replay and not (self._validate_deferred()
                                       and self._verify_merged_seeds()):
            # some trusted read (or applied merged-input seed) does not
            # hold at the converged state: the optimistic cell map may
            # be contaminated. Discard the run (no finalize, no flush —
            # staged records were computed against suspect state); the
            # driver reruns validating. Poison the held seeds too: the
            # fallback rerun re-harvests correct ones.
            self.replay_validation_failed = True
            store.discard_staged()
            store.hold_merged_seeds(None)
            return self
        self.contexts_analyzed = self._reachable_contexts()
        self._kernel.publish_counters(self.kernel_counters)
        self._finalize()
        if store is not None:
            for fname in sorted(self._merged_coupling):
                reads, writes = self._merged_coupling[fname]
                store.note_coupling(fname, reads, writes)
            store.flush()
            store.hold_merged_seeds(self._harvest_merged_seeds())
        return self

    def _converge(self, roots: List[Function]) -> None:
        """Sparse outer fixpoint: the first sweep analyzes every root;
        the memo table survives across sweeps, and between sweeps
        exactly the bodies whose *consulted* cells were dirtied (or
        whose merged inputs grew) are evicted and re-run directly from
        their recorded inputs. A re-run whose result actually moved
        evicts the bodies that observed the old result, and so on until
        the queue drains. Taints only grow, so a body none of whose
        inputs changed would recompute the same result; skipping it is
        behavior-preserving."""
        for iteration in range(_MAX_OUTER_ITERATIONS):
            check_deadline()  # resource-guard budget (no-op unarmed)
            self.kernel_counters["outer_iterations"] = iteration + 1
            self._in_progress.clear()
            self._inputs_changed = False
            if iteration:
                self._invalidate_stale()
                self._revalidate()
            else:
                for root in roots:
                    args = tuple(SAFE for _ in root.arguments)
                    self._analyze(root, EMPTY_CONTEXT, args)
            self.kernel_counters["cells_dirtied"] += len(self._dirty_cells)
            if not self._dirty_cells and not self._inputs_changed:
                break

    def _validate_deferred(self) -> bool:
        """Re-check every read a trusted replay deferred, against the
        converged cell state. All must hold for the run to stand."""
        if not self._deferred_reads:
            return True
        self.kernel_counters["segment_deferred_reads"] = len(
            self._deferred_reads)
        cmap = self.cell_taint
        for cell, expected in self._deferred_reads:
            if ser_taint(dict.get(cmap, cell, SAFE)) != expected:
                return False
        return True

    # ------------------------------------------------------------------
    # merged-input seeding (session-carried warm-run acceleration)
    # ------------------------------------------------------------------
    #
    # The merged joins (``_merged_inputs`` / ``_summary_args``) and the
    # per-function admitted-context sets (``_ctx_counts``) are rebuilt
    # from scratch every run, and every step of that rebuild marks
    # ``_merged_dirty`` — on a warm run the resulting widening cascade
    # (one outer sweep per call-chain level, each evicting the upward
    # observer closure) dominates the value-flow phase. A run whose
    # inputs did not change converges to exactly the previous run's
    # joins, so a *trusted* run may start them there: the joins then
    # never move, no cascade fires, and one replay sweep converges.
    #
    # Soundness mirrors trusted segment replay. Seeds are dropped for
    # the downward call closure of the dirty cone (over both the
    # previous run's dispatch edges and the current IR call graph), so
    # a surviving seed's every contribution comes from unchanged code;
    # at convergence every applied seed is re-checked against the final
    # joins and any mismatch triggers the same validating-rerun
    # fallback as a failed deferred read. Transient artifacts a cold
    # run emits while its joins are still growing are subsets of the
    # final converged body runs' (taints only grow; assumed-core
    # contexts only shrink), so skipping the transient is report-
    # preserving — the differential suite holds byte-identity.

    def _apply_merged_seeds(self, store) -> None:
        """Start the merged-input joins at the previous run's converged
        values, minus the dirty cone's downward call closure."""
        seeds = store.merged_seeds
        if not seeds:
            return
        drop = set(store.last_cone) | store.last_seeds
        if drop:
            old_calls = seeds.get("calls", {})
            callgraph = self.shm.callgraph
            work = list(drop)
            while work:
                name = work.pop()
                callees = set(old_calls.get(name, ()))
                func = self.module.get_function(name)
                if func is not None:
                    callees.update(c.name for c in callgraph.callees(func))
                for callee in callees:
                    if callee not in drop:
                        drop.add(callee)
                        work.append(callee)
        applied = 0
        for fname, entry in seeds.get("funcs", {}).items():
            if fname in drop:
                continue
            func = self.module.get_function(fname)
            if func is None or func.is_declaration:
                continue
            merged, sargs, ctxs = entry
            if merged is not None:
                ctx_ser, args_ser = merged
                self._merged_inputs[func] = (
                    frozenset(ctx_ser), deser_args(args_ser))
            if sargs is not None:
                self._summary_args[func] = deser_args(sargs)
            if ctxs:
                self._ctx_counts[func] = {frozenset(c) for c in ctxs}
            self._seed_expect[func] = entry
            applied += 1
        self.kernel_counters["merged_seeds_applied"] = applied

    def _harvest_merged_seeds(self) -> dict:
        """The converged joins of this run, keyed by function name,
        plus the name-level dispatch adjacency (so the next run can
        drop seeds downstream of edits even when the caller's bodies
        were merged and left no persisted segment)."""
        funcs: Dict[str, tuple] = {}
        for func in (set(self._merged_inputs) | set(self._summary_args)
                     | set(self._ctx_counts)):
            merged = self._merged_inputs.get(func)
            sargs = self._summary_args.get(func)
            seen = self._ctx_counts.get(func)
            funcs[func.name] = (
                (ser_ctx(merged[0]), ser_args(merged[1]))
                if merged is not None else None,
                ser_args(sargs) if sargs is not None else None,
                tuple(sorted(ser_ctx(c) for c in seen)) if seen else (),
            )
        calls: Dict[str, Set[str]] = {}
        for key, callee_keys in self._key_calls.items():
            adjacency = calls.setdefault(key[0].name, set())
            for callee_key in callee_keys:
                adjacency.add(callee_key[0].name)
        return {"funcs": funcs, "calls": calls}

    def _verify_merged_seeds(self) -> bool:
        """Every applied seed must equal the converged joins. The
        admitted-context check is one-sided: a seeded context the
        converged dispatch set no longer produces is inert (it only
        routes dispatches that never occur), and the harvest of this
        run drops it; a *new* context would mean changed inputs."""
        for func, (merged, sargs, ctxs) in self._seed_expect.items():
            final = self._merged_inputs.get(func)
            final_ser = ((ser_ctx(final[0]), ser_args(final[1]))
                         if final is not None else None)
            if final_ser != merged:
                return False
            final_args = self._summary_args.get(func)
            if (ser_args(final_args)
                    if final_args is not None else None) != sargs:
                return False
            seen = self._ctx_counts.get(func) or ()
            if not {ser_ctx(c) for c in seen} <= set(ctxs):
                return False
        return True

    def _roots(self) -> List[Function]:
        main = self.module.get_function("main")
        roots: List[Function] = []
        if main is not None and not main.is_declaration:
            roots.append(main)
        reachable = self.shm.callgraph.reachable_from(roots) if roots else set()
        for func in self.module.defined_functions():
            if func not in reachable and func not in roots:
                roots.append(func)
        return roots

    # ------------------------------------------------------------------
    # sparse-fixpoint bookkeeping
    # ------------------------------------------------------------------

    def _note_cell_read(self, cell) -> None:
        """Register ``cell`` as a read dependency of the running body."""
        key = self._body_stack[-1]
        reads = self._key_reads[key]
        if cell not in reads:
            reads.add(cell)
            self._cell_readers.setdefault(cell, set()).add(key)

    def _begin_body(self, key: Tuple) -> None:
        """Open a dependency-tracking scope for one body run.

        Previous read registrations of the same key are dropped first:
        a re-run's dependency set replaces (never accumulates onto) the
        stale one, so a body that stops consulting a cell stops being
        invalidated by it.
        """
        prev = self._key_reads.get(key)
        if prev:
            for cell in prev:
                readers = self._cell_readers.get(cell)
                if readers is not None:
                    readers.discard(key)
        self._key_reads[key] = set()
        self._key_calls[key] = set()
        self._body_stack.append(key)
        self.kernel_counters["bodies_analyzed"] += 1
        if self._profile:
            self._profile_stack.append([key, perf_counter(), 0.0])

    def _end_body(self, key: Tuple) -> None:
        self._body_stack.pop()
        if self._profile:
            entry = self._profile_stack.pop()
            elapsed = perf_counter() - entry[1]
            if self._profile_stack:
                self._profile_stack[-1][2] += elapsed
            rec = self.body_profile.setdefault(
                self._profile_label(key),
                {"calls": 0, "seconds": 0.0, "self_seconds": 0.0},
            )
            rec["calls"] += 1
            rec["seconds"] += elapsed
            rec["self_seconds"] += max(0.0, elapsed - entry[2])

    @staticmethod
    def _profile_label(key: Tuple) -> str:
        func = key[0]
        if len(key) == 1:
            return f"{func.name}[merged]"
        ctx = ",".join(sorted(key[1]))
        if len(key) == 3 and isinstance(key[2], str):
            return f"{func.name}[{key[2]}]{{{ctx}}}"
        return f"{func.name}{{{ctx}}}"

    def _note_dispatch(self, caller: Optional[Tuple], key: Tuple) -> None:
        """Record the call edge used for reachability accounting."""
        if caller is None:
            self._root_keys.add(key)
        else:
            self._key_calls[caller].add(key)

    def _invalidate_stale(self) -> None:
        """Evict the memo entries the previous sweep made stale and
        queue them for revalidation.

        Two seed families, with different propagation rules:

        - bodies that *read* a cell whose taint grew re-run directly;
          their observers are touched later, and only if the re-run's
          result actually moved (:meth:`_finish_body`). Taints only
          grow, so an unchanged result means every downstream body
          would recompute exactly what it already has;
        - every memo key of a function whose merged
          (context-insensitive or summary-effects) inputs grew is
          evicted together with the upward closure of its observers:
          growing a merged context flips later budget checks, which can
          re-route call sites *without any result changing*, so callers
          must re-dispatch unconditionally.
        """
        invalid: Set[Tuple] = set()
        for cell in self._dirty_cells:
            invalid |= self._cell_readers.get(cell, set())
        work: List[Tuple] = []
        for func in self._merged_dirty:
            work.extend(self._func_keys.get(func, ()))
        while work:
            key = work.pop()
            if key in invalid:
                continue
            invalid.add(key)
            for observer in self._result_observers.get(key, ()):
                if observer not in invalid:
                    work.append(observer)
        for key in sorted(invalid, key=self._key_order):
            if key in self._memo:
                self._stale[key] = self._memo.pop(key)
                self._revalidation.append(key)
        self._dirty_cells = set()
        self._merged_dirty = set()
        self.kernel_counters["sparse_invalidated"] += len(invalid)

    @staticmethod
    def _key_order(key: Tuple):
        """Cheap deterministic ordering for revalidation queues.

        The final report is insertion-order-independent (everything is
        sorted in :meth:`_finalize`); this just keeps re-run order
        stable within a process for reproducible profiles/counters.
        """
        func = key[0]
        if len(key) == 1:
            return (func.name, 0, "")
        kind = key[2] if len(key) == 3 and isinstance(key[2], str) else ""
        return (func.name, 1, ",".join(sorted(key[1])) + "|" + kind)

    def _revalidate(self) -> None:
        """Drain the revalidation queue, re-running each evicted body
        in place. A queued key may already have been refreshed by a
        re-running caller's dispatch (it is back in the memo and out of
        ``_stale``) — those are skipped. :meth:`_finish_body` appends
        the observers of any body whose result moved, so the drain
        reaches the same fixpoint a full root descent would."""
        queue = self._revalidation
        while queue:
            key = queue.popleft()
            if key not in self._stale or key in self._in_progress:
                continue
            inputs = self._key_inputs.get(key)
            if inputs is None:
                # bookkeeping gap: drop the stale result and let the
                # next dispatch recompute the body from scratch
                self._stale.pop(key, None)
                continue
            func, eff_ctx, args = inputs
            if len(key) == 1:
                # merged bodies must see the *current* joined inputs,
                # which may have grown since they were captured
                stored = self._merged_inputs.get(func)
                if stored is not None:
                    eff_ctx, args = stored
            elif len(key) == 3 and key[2] == "effects":
                stored_args = self._summary_args.get(func)
                if stored_args is not None:
                    args = stored_args
            self._rerun_body(key, func, eff_ctx, args)

    def _rerun_body(self, key: Tuple, func: Function, eff_ctx: Context,
                    args: Tuple[Taint, ...]) -> None:
        """Re-run one evicted body directly, without a root descent.

        Mirrors the dispatch-path discipline (placeholder memo entry,
        in-progress marking, dependency scope) but records no call
        edge: the key's position in the call graph is unchanged, only
        its result is refreshed."""
        self._in_progress.add(key)
        self._memo[key] = SAFE
        if len(key) == 1:
            seen = self._ctx_counts.setdefault(func, set())
            if eff_ctx not in seen:
                # same routing concern as in _analyze: a newly admitted
                # context flips later budget checks
                self._merged_dirty.add(func)
            seen.add(eff_ctx)
        self._begin_body(key)
        try:
            if len(key) == 3 and isinstance(key[2], str):
                ret = self._run_summary_body(func, eff_ctx, args, key[2])
            else:
                ret = self._analyze_body(func, eff_ctx, args)
        finally:
            self._end_body(key)
        self._finish_body(key, ret)

    def _finish_body(self, key: Tuple, ret: Taint) -> None:
        """Publish a completed body result.

        When the body was re-validating an evicted entry and the result
        actually changed (an identity check — taints are interned),
        every observer of the old result is evicted and queued.
        Observers currently mid-run are left alone: they are consuming
        the fresh result through the very dispatch that triggered this
        run, or will hit the refreshed memo entry when they get
        there."""
        self._memo[key] = ret
        self._in_progress.discard(key)
        old = self._stale.pop(key, _NO_RESULT)
        if old is _NO_RESULT or ret == old:
            return
        for observer in sorted(self._result_observers.get(key, ()),
                               key=self._key_order):
            if observer in self._in_progress or observer in self._stale:
                continue
            if observer in self._memo:
                self._stale[observer] = self._memo.pop(observer)
                self._revalidation.append(observer)

    def _reachable_contexts(self) -> int:
        """Count memo keys reachable from the roots over call edges.

        Stale keys (a (function, context, args) combination the final
        call graph no longer produces) stay in the memo table but are
        unreachable; excluding them makes ``contexts_analyzed`` count
        exactly the bodies a from-scratch sweep over the converged
        state would memoize.
        """
        seen: Set[Tuple] = set()
        work = [key for key in self._root_keys if key in self._memo]
        while work:
            key = work.pop()
            if key in seen:
                continue
            seen.add(key)
            for callee in self._key_calls.get(key, ()):
                if callee not in seen and callee in self._memo:
                    work.append(callee)
        return len(seen)

    # ------------------------------------------------------------------
    # per-function analysis
    # ------------------------------------------------------------------

    def _analyze(self, func: Function, ctx: Context,
                 arg_taints: Tuple[Taint, ...]) -> Taint:
        eff_ctx = self._effective_context(func, ctx)
        if not self.config.context_sensitive or self._over_budget(func, eff_ctx):
            eff_ctx, arg_taints = self._merge_inputs(func, eff_ctx, arg_taints)
            key = (func,)
        elif self.config.summary_mode:
            return self._analyze_with_summary(func, eff_ctx, arg_taints)
        else:
            key = (func, eff_ctx, arg_taints)
        caller = self._body_stack[-1] if self._body_stack else None
        self._note_dispatch(caller, key)
        if key in self._memo and key not in self._in_progress:
            self.kernel_counters["body_memo_hits"] += 1
            if caller is not None:
                # the caller consumed a finished result: if it is ever
                # evicted, the caller must re-run too
                self._result_observers.setdefault(key, set()).add(caller)
            return self._memo[key]
        if key in self._in_progress:
            # recursion: hand back the placeholder; no observer edge —
            # an in-progress observation always yields the placeholder,
            # so eviction of the callee cannot change what we saw here
            return self._memo.get(key, SAFE)
        self._in_progress.add(key)
        self._memo[key] = SAFE
        seen = self._ctx_counts.setdefault(func, set())
        if len(key) == 1 and eff_ctx not in seen:
            # a context admitted through the merged path is now "seen",
            # so the budget check routes later dispatches of that
            # context context-sensitively; callers bound to the merged
            # body must re-bind next sweep
            self._merged_dirty.add(func)
        seen.add(eff_ctx)
        self._func_keys.setdefault(func, set()).add(key)
        self._key_inputs[key] = (func, eff_ctx, arg_taints)
        self._begin_body(key)
        try:
            ret = self._analyze_body(func, eff_ctx, arg_taints)
        finally:
            self._end_body(key)

        self._finish_body(key, ret)
        if caller is not None:
            self._result_observers.setdefault(key, set()).add(caller)
        return ret

    # ------------------------------------------------------------------
    # ESP-style summaries (§3.3 last paragraph)
    # ------------------------------------------------------------------

    _PLACEHOLDER_PREFIX = "\x00arg:"

    @classmethod
    def _placeholder(cls, func: Function, index: int) -> TaintSource:
        return TaintSource(
            region=f"{cls._PLACEHOLDER_PREFIX}{index}",
            function=func.name, filename="<summary>", line=index,
        )

    @classmethod
    def _is_placeholder(cls, source: TaintSource) -> bool:
        return source.region.startswith(cls._PLACEHOLDER_PREFIX)

    @classmethod
    def strip_placeholders(cls, taint: Taint) -> Taint:
        if taint.is_safe:
            return taint
        data = frozenset(s for s in taint.data if not cls._is_placeholder(s))
        control = frozenset(
            s for s in taint.control if not cls._is_placeholder(s)
        )
        if data == taint.data and control == taint.control:
            return taint
        return Taint(data, control)

    def _substitute_summary(self, summary: Taint,
                            arg_taints: Tuple[Taint, ...]) -> Taint:
        """Replace parameter placeholders with the actual argument
        taints of this call site (data stays data; anything reaching a
        control position becomes control provenance)."""
        result = self.strip_placeholders(summary)
        for source in summary.data:
            if self._is_placeholder(source):
                index = source.line
                if index < len(arg_taints):
                    result = result.join(arg_taints[index])
        for source in summary.control:
            if self._is_placeholder(source):
                index = source.line
                if index < len(arg_taints):
                    result = result.join(arg_taints[index].as_control())
        return result

    def _merge_summary_args(self, func: Function,
                            arg_taints: Tuple[Taint, ...]) -> Tuple[Taint, ...]:
        old = self._summary_args.get(func)
        if old is None or len(old) != len(arg_taints):
            old = tuple(SAFE for _ in arg_taints)
        merged = tuple(a.join(b) for a, b in zip(old, arg_taints))
        prev = self._summary_args.get(func)
        if merged != prev:
            self._summary_args[func] = merged
            self._inputs_changed = True
            if prev is not None:
                # effects bodies that already ran saw the old join;
                # evict every memo entry of this function next sweep
                self._merged_dirty.add(func)
        return merged

    def _analyze_with_summary(self, func: Function, eff_ctx: Context,
                              arg_taints: Tuple[Taint, ...]) -> Taint:
        """Two passes per (function, context):

        - the *summary* pass runs with placeholder argument taints only
          and yields the return-value transfer function, so a call
          site's result never inherits other call sites' arguments;
        - the *effects* pass runs with the join of every caller's
          actual argument taints, so memory-cell writes and critical
          checks inside the callee see real provenance. The outer
          fixpoint re-sweeps when the join grows.
        """
        caller = self._body_stack[-1] if self._body_stack else None
        merged = self._merge_summary_args(func, arg_taints)
        summary_key = (func, eff_ctx, "summary")
        self._note_dispatch(caller, summary_key)
        if summary_key in self._in_progress:
            # recursion: placeholder result, no observer edge (see
            # the matching branch in _analyze)
            return self._substitute_summary(
                self._memo.get(summary_key, SAFE), arg_taints
            )
        if summary_key not in self._memo:
            self._in_progress.add(summary_key)
            self._memo[summary_key] = SAFE
            self._ctx_counts.setdefault(func, set()).add(eff_ctx)
            self._func_keys.setdefault(func, set()).add(summary_key)
            placeholders = tuple(
                Taint(data=frozenset({self._placeholder(func, i)}))
                for i in range(len(arg_taints))
            )
            self._key_inputs[summary_key] = (func, eff_ctx, placeholders)
            self._begin_body(summary_key)
            try:
                ret = self._run_summary_body(
                    func, eff_ctx, placeholders, "summary"
                )
            finally:
                self._end_body(summary_key)
            self._finish_body(summary_key, ret)
        else:
            self.kernel_counters["body_memo_hits"] += 1

        if any(not t.is_safe for t in merged):
            effects_key = (func, eff_ctx, "effects")
            self._note_dispatch(caller, effects_key)
            if effects_key not in self._memo and \
                    effects_key not in self._in_progress:
                self._in_progress.add(effects_key)
                self._memo[effects_key] = SAFE
                self._func_keys.setdefault(func, set()).add(effects_key)
                self._key_inputs[effects_key] = (func, eff_ctx, merged)
                self._begin_body(effects_key)
                try:
                    ret = self._run_summary_body(
                        func, eff_ctx, merged, "effects"
                    )
                finally:
                    self._end_body(effects_key)
                self._finish_body(effects_key, ret)

        if caller is not None:
            self._result_observers.setdefault(summary_key, set()).add(caller)
        return self._substitute_summary(self._memo[summary_key], arg_taints)

    # ------------------------------------------------------------------
    # summary-body record/replay through the segment store
    # ------------------------------------------------------------------

    def _active_recorder(self) -> Optional[BodyRecorder]:
        if self._recorders and self._recorders[-1] is not None:
            return self._recorders[-1]
        return None

    def _namer(self) -> CellNamer:
        if self._cell_namer is None:
            self._cell_namer = CellNamer(self.points_to)
        return self._cell_namer

    def _cell_key(self, cell) -> Optional[str]:
        return self._namer().key_of(cell)

    def _note_elided_write(self, cell, value) -> None:
        """Record a store whose join did not change the cell.

        The last re-analysis of a body before the fixpoint converges
        sees already-converged cell state, so its joins are no-ops and
        never reach ``cell_taint.__setitem__`` — but the *record* of
        that final run is what the segment store keeps. Without
        this hook such records claim the body wrote nothing, and a
        fresh run replaying them can never reconstruct the converged
        state (trusted segment replay would fall back every time).
        """
        recorder = self._active_recorder()
        if recorder is not None:
            recorder.note_write(self._cell_key(cell), value)
        elif self._body_stack and len(self._body_stack[-1]) == 1:
            self._note_merged_coupling(cell, read=False)

    def _note_merged_coupling(self, cell, read: bool) -> None:
        name = self._cell_key(cell)
        if name is None:
            return
        fname = self._body_stack[-1][0].name
        entry = self._merged_coupling.get(fname)
        if entry is None:
            entry = self._merged_coupling[fname] = (set(), set())
        entry[0 if read else 1].add(name)

    def _closure_fp(self, func: Function) -> str:
        if self._flow_fps is None:
            from ..perf.fingerprint import FlowFingerprints

            self._flow_fps = FlowFingerprints(
                self.shm, self.config, self._assert_vars
            )
        return self._flow_fps.closure(func)

    def _dispatch_call(self, target: Function, ctx: Context,
                       args: Tuple[Taint, ...]) -> Taint:
        """``_analyze`` for a call site. While a body is being recorded
        the dispatch is shielded (the callee's own effects must not land
        in the caller's record — the callee has its own record) and the
        (callee, context, args, result) tuple becomes part of the
        caller's inputs."""
        recorder = self._active_recorder()
        if recorder is None:
            return self._analyze(target, ctx, args)
        self._recorders.append(None)
        try:
            child = self._analyze(target, ctx, args)
        finally:
            self._recorders.pop()
        recorder.note_call(target.name, ctx, args, child)
        return child

    def _run_summary_body(self, func: Function, ctx: Context,
                          arg_taints: Tuple[Taint, ...], kind: str) -> Taint:
        """``_analyze_body`` with record/replay through the store."""
        store = self.summary_store
        if store is None:
            return self._analyze_body(func, ctx, arg_taints)
        key = store.entry_key(
            func.name, kind, self._closure_fp(func),
            ser_ctx(ctx), ser_args(arg_taints),
        )
        record = store.lookup(key)
        if record is not None:
            ret = self._replay_body(record)
            if ret is not None:
                store.hits += 1
                self.summary_events.append((func.name, kind, "hit"))
                return ret
        store.misses += 1
        self.summary_events.append((func.name, kind, "miss"))
        recorder = BodyRecorder()
        self._recorders.append(recorder)
        try:
            ret = self._analyze_body(func, ctx, arg_taints)
        finally:
            self._recorders.pop()
        if recorder.ok:
            store.stage(key, recorder.finish(ret))
        else:
            # unpersistable body (unnamed cell): its named-cell
            # couplings still belong in the dependency graph
            reads, writes = recorder.coupling()
            store.note_coupling(func.name, reads, writes)
        return ret

    @staticmethod
    def _decode_record(record):
        """Per-process decoded view of a body record: interned taints,
        pre-frozen contexts, constructed VFG nodes and warnings. Every
        warm verdict of a session replays the same records, so the
        serialized-tuple → object work is paid once; the cache rides on
        the record object (the store strips it before pickling)."""
        from ..ir.source import SourceLocation

        warnings = []
        for key, fields in record.warnings:
            message, loc, function, region = fields
            warnings.append((tuple(key), UnmonitoredReadWarning(
                message=message,
                location=SourceLocation(*loc) if loc is not None else None,
                function=function,
                severity=Severity.WARNING,
                region=region,
            )))
        return (
            tuple((name, deser_taint(ser)) for name, ser in record.writes),
            tuple((callee, frozenset(ctx), deser_args(args), ret)
                  for callee, ctx, args, ret in record.calls),
            tuple(warnings),
            tuple((tuple(key),
                   frozenset(TaintSource(*s) for s in data),
                   frozenset(TaintSource(*s) for s in control))
                  for key, data, control in record.failures),
            tuple((VFGNode(*src), VFGNode(*dst), kind)
                  for src, dst, kind in record.edges),
            deser_taint(record.ret),
        )

    def _replay_body(self, record) -> Optional[Taint]:
        """Apply a persisted record if its inputs still hold; ``None``
        on any mismatch (the caller recomputes — always safe, because
        every recorded effect is an idempotent join)."""
        decoded = record.__dict__.get("_replay_cache")
        if decoded is None:
            decoded = record.__dict__["_replay_cache"] = \
                self._decode_record(record)
        (dec_writes, dec_calls, dec_warnings, dec_failures, dec_edges,
         dec_ret) = decoded
        namer = self._namer()
        reads = []
        for name, expected in record.reads:
            cell = namer.cell_for(name)
            if cell is None:
                return None
            reads.append((cell, expected))
        writes = []
        for name, taint in dec_writes:
            cell = namer.cell_for(name)
            if cell is None:
                return None
            writes.append((cell, taint))
        cmap = self.cell_taint
        in_body = bool(self._body_stack)
        trusted = self._trust_replay
        if not trusted:
            for cell, expected in reads:
                if in_body:
                    # replayed reads are real input dependencies of the
                    # replaying body; register them for sparse
                    # invalidation
                    self._note_cell_read(cell)
                if ser_taint(dict.get(cmap, cell, SAFE)) != expected:
                    return None
        version = cmap.version
        for callee_name, ctx, args, expected_ret in dec_calls:
            target = self.module.get_function(callee_name)
            if target is None or target.is_declaration:
                return None
            child = self._analyze(target, ctx, args)
            if ser_taint(child) != expected_ret:
                return None
        if not trusted and record.reads and cmap.version != version:
            # a re-dispatched callee moved cell state out from under the
            # recorded reads; this record may describe a stale interleaving
            return None
        if trusted:
            # optimistic replay: a record's reads reflect the *final*
            # state of the producing run, so mid-fixpoint validation
            # would reject it spuriously. Register the dependencies,
            # defer the checks to the converged end state (the calls
            # above were still compared — a callee that really moved
            # forces a recompute before any effect lands).
            for cell, expected in reads:
                if in_body:
                    self._note_cell_read(cell)
                marker = (cell, expected)
                if marker not in self._deferred_seen:
                    self._deferred_seen.add(marker)
                    self._deferred_reads.append(marker)
        for cell, taint in writes:
            old = dict.get(cmap, cell, SAFE)
            new = old.join(taint)
            if new != old:
                cmap[cell] = new
        warnings_map = self.warnings_map
        for key, warning in dec_warnings:
            if key not in warnings_map:
                warnings_map[key] = warning
        for key, data, control in dec_failures:
            entry = self._failures.setdefault(
                key, {"data": set(), "control": set()}
            )
            entry["data"] |= data
            entry["control"] |= control
        vfg = self.vfg
        for src, dst, kind in dec_edges:
            ValueFlowGraph.add_edge(vfg, src, dst, kind)
        return dec_ret

    def _over_budget(self, func: Function, ctx: Context) -> bool:
        seen = self._ctx_counts.get(func)
        if seen is None or ctx in seen:
            return False
        return len(seen) >= self.config.max_contexts_per_function

    def _merge_inputs(self, func: Function, ctx: Context,
                      arg_taints: Tuple[Taint, ...]):
        old = self._merged_inputs.get(func)
        old_ctx, old_args = old if old is not None else (
            EMPTY_CONTEXT, tuple(SAFE for _ in arg_taints)
        )
        if len(old_args) != len(arg_taints):
            old_args = tuple(SAFE for _ in arg_taints)
        # context-insensitive merging *intersects* assumed-core sets so
        # safety is preserved (a region must be monitored on every path)
        new_ctx = (old_ctx & ctx) if old is not None else ctx
        new_args = tuple(a.join(b) for a, b in zip(old_args, arg_taints))
        if old is None or (new_ctx, new_args) != (old_ctx, old_args):
            # the merged summary is stale: force another outer sweep
            self._inputs_changed = True
            if old is not None:
                # the (func,) body may have already run under the old
                # merge this iteration; evict it (and its observers)
                self._merged_dirty.add(func)
        self._merged_inputs[func] = (new_ctx, new_args)
        return new_ctx, new_args

    def _effective_context(self, func: Function, ctx: Context) -> Context:
        assumes = self.shm.monitor_assumes.get(func.name, [])
        if not assumes:
            return ctx
        added: Set[str] = set(ctx)
        for assume in assumes:
            for region_name in self._assume_regions(func, assume):
                added.add(region_name)
        return frozenset(added)

    def _assume_regions(self, func: Function,
                        assume: ResolvedAssume) -> RegionSet:
        if assume.is_parameter:
            bindings = self.shm.arg_regions.get(func, [])
            regions: Set[str] = set()
            if assume.parameter_index < len(bindings):
                for name in bindings[assume.parameter_index]:
                    region = self.shm.regions[name]
                    if assume.offset == 0 and assume.size == region.size:
                        regions.add(name)
                    elif (func.name, name) not in self._ineffective:
                        self._ineffective.add((func.name, name))
            return frozenset(regions)
        if assume.pointer in self.shm.regions:
            return frozenset({assume.pointer})
        # §3.4.3: assume(core(localptr, ...)) over received message data
        return frozenset()

    # ------------------------------------------------------------------

    def _analyze_body(self, func: Function, ctx: Context,
                      arg_taints: Tuple[Taint, ...]) -> Taint:
        """One intra-function local fixpoint, run by the compiled
        kernel."""
        return self._kernel.run_body(func, ctx, arg_taints)

    def _field_cells(self, cell):
        """The cell plus every transitively nested field cell."""
        seen = set()
        work = [cell.find()]
        while work:
            current = work.pop()
            if current.id in seen:
                continue
            seen.add(current.id)
            yield current
            work.extend(current.fields().values())

    # ------------------------------------------------------------------
    # object-domain transfers the compiled kernel delegates
    # ------------------------------------------------------------------

    def _generic_transfer(self, inst: Call):
        """The object-domain transfer of a call the compiled kernel
        does not lower (:data:`~repro.valueflow.opcodes.OP_GENERIC`),
        or ``None`` for every other call. Each transfer takes
        ``(func, inst, ctx, vt, block_ctl)`` and returns the call's
        result taint."""
        name = inst.callee_name
        if name in COPY_CALLS and len(inst.operands) >= 2:
            return self._transfer_copy
        if name in ("recv", "read") and self.config.message_passing_extension:
            # §3.4.3: message passing and I/O reads share the treatment
            return self._transfer_recv
        if self._is_degraded_callee(name, inst):
            return self._transfer_degraded_call
        return None

    def _is_degraded_callee(self, name: Optional[str], inst: Call) -> bool:
        """Must this call be treated fail-closed (see repro.degrade)?

        True for calls into functions that were individually degraded
        (body dropped, annotations unusable), and — when a whole
        translation unit was dropped — for every unresolved external
        that is not part of the builtin prelude: its definition may
        live in the lost unit, so nothing can be assumed about it.
        """
        if not self._degraded_functions and not self._unit_degraded:
            return False
        if name in self._degraded_functions:
            return True
        if not self._unit_degraded or not name:
            return False
        if name in BUILTIN_FUNCTIONS:
            return False
        callee = self.module.get_function(name)
        defined = callee is not None and not callee.is_declaration
        return not defined

    def _transfer_degraded_call(self, func: Function, inst: Call,
                                ctx: Context, vt, block_ctl: Taint) -> Taint:
        """Fail-closed transfer for a call into degraded code.

        The result joins a synthetic ``degraded:<callee>`` taint source
        with every argument taint, and the same taint is written
        through every pointer argument — anything a degraded function
        could have touched is unmonitored non-core flow, so the final
        verdict can only get stricter.
        """
        name = inst.callee_name
        location = inst.location
        source = TaintSource(
            region=degraded_region(name),
            function=func.name,
            filename=location.filename if location else "<unknown>",
            line=location.line if location else 0,
        )
        self._record_warning_source(
            func, inst, source,
            message=(
                f"call into degraded function {name!r}: result treated "
                f"as unmonitored non-core flow (fail-closed)"
            ),
        )
        self._edge_source(source, func, inst)
        taint = Taint(data=frozenset({source}))
        result = taint.join(join_all(vt(op) for op in inst.operands))
        for op in inst.operands:
            if vt(op):
                self._edge_value(func, op, inst, "data")
            if op.type.is_pointer:
                cell = self.points_to.target_of(op)
                if cell is not None:
                    old = self.cell_taint.get(cell, SAFE)
                    result = result.join(old)
                    stored = self.strip_placeholders(result)
                    if stored:
                        self.cell_taint[cell] = old.join(stored)
                    self._edge_cell(cell, func, inst)
        return result.join(block_ctl)

    def _transfer_copy(self, func: Function, inst: Call, ctx: Context, vt,
                       block_ctl: Taint) -> Taint:
        dest, src = inst.operands[0], inst.operands[1]
        taint = vt(src).join(block_ctl.as_control())
        src_regions = self.shm.regions_of(func, src)
        # copying *from* unmonitored shm is a read of it; inside a
        # monitoring context for the region it is safe (§2 rules)
        for name in src_regions:
            if self.shm.regions[name].noncore and name not in ctx:
                source = self._record_warning(func, inst, name)
                taint = taint.join(Taint(data=frozenset({source})))
                self._edge_source(source, func, inst)
        src_cell = self.points_to.target_of(src)
        if src_cell is not None:
            taint = taint.join(self.cell_taint.get(src_cell, SAFE))
        dest_regions = self.shm.regions_of(func, dest)
        if not dest_regions or any(
            not self.shm.regions[n].noncore for n in dest_regions
        ):
            dest_cell = self.points_to.target_of(dest)
            stored = self.strip_placeholders(taint)
            if dest_cell is not None and stored:
                old = self.cell_taint.get(dest_cell, SAFE)
                self.cell_taint[dest_cell] = old.join(stored)
                self._edge_value_to_cell(func, src, dest_cell)
        return taint

    def _transfer_recv(self, func: Function, inst: Call, ctx: Context,
                       vt, block_ctl: Taint) -> Taint:
        """§3.4.3 extension: recv on a noncore socket taints the buffer."""
        if len(inst.operands) < 2:
            return SAFE
        socket_name = self._descriptor_name(inst.operands[0])
        noncore_names = set()
        for names in self.shm.noncore_descriptors.values():
            noncore_names |= names
        if socket_name is None or socket_name not in noncore_names:
            return join_all(vt(op) for op in inst.operands)
        buffer = inst.operands[1]
        if self._buffer_assumed_core(func, buffer):
            return SAFE
        location = inst.location
        source = TaintSource(
            region=f"socket:{socket_name}",
            function=func.name,
            filename=location.filename if location else "<unknown>",
            line=location.line if location else 0,
        )
        self._record_warning_source(func, inst, source)
        self._edge_source(source, func, inst)
        taint = Taint(data=frozenset({source}))
        cell = self.points_to.target_of(buffer)
        if cell is not None:
            old = self.cell_taint.get(cell, SAFE)
            self.cell_taint[cell] = old.join(taint)
        return taint

    @staticmethod
    def _unwrap_casts(value: Value) -> Value:
        while isinstance(value, Cast):
            value = value.source
        return value

    def _descriptor_name(self, value: Value) -> Optional[str]:
        value = self._unwrap_casts(value)
        if isinstance(value, Argument):
            return value.name
        if isinstance(value, Load) and isinstance(value.pointer,
                                                  GlobalVariable):
            return value.pointer.name
        if isinstance(value, Load) and isinstance(value.pointer, Alloca):
            return value.pointer.name
        return None

    def _buffer_assumed_core(self, func: Function, buffer: Value) -> bool:
        buffer = self._unwrap_casts(buffer)
        if isinstance(buffer, IndexAddr):
            buffer = self._unwrap_casts(buffer.pointer)
        name = None
        if isinstance(buffer, Alloca):
            name = buffer.name
        elif isinstance(buffer, Argument):
            name = buffer.name
        elif isinstance(buffer, IndexAddr) and isinstance(
            buffer.pointer, Alloca
        ):
            name = buffer.pointer.name
        if name is None:
            return False
        for assume in self.shm.monitor_assumes.get(func.name, []):
            if assume.pointer == name:
                return True
        return False

    # ------------------------------------------------------------------
    # diagnostics plumbing
    # ------------------------------------------------------------------

    def _record_warning(self, func: Function, inst: Instruction,
                        region: str) -> TaintSource:
        location = inst.location
        source = TaintSource(
            region=region,
            function=func.name,
            filename=location.filename if location else "<unknown>",
            line=location.line if location else 0,
        )
        self._record_warning_source(func, inst, source)
        return source

    def _record_warning_source(self, func: Function, inst: Instruction,
                               source: TaintSource,
                               message: Optional[str] = None) -> None:
        key = (source.function, source.region, source.line)
        if key not in self.warnings_map:
            self.warnings_map[key] = UnmonitoredReadWarning(
                message=message or (
                    f"unmonitored access to non-core shared variable "
                    f"{source.region!r}: value is unsafe"
                ),
                location=inst.location,
                function=func.name,
                severity=Severity.WARNING,
                region=source.region,
            )
        recorder = self._active_recorder()
        if recorder is not None:
            warning = self.warnings_map[key]
            recorder.note_warning(
                key,
                (warning.message, ser_loc(warning.location),
                 warning.function, warning.region),
            )

    def _check_critical(self, func: Function, inst: Instruction,
                        taint: Taint, variable: str) -> None:
        # parameter placeholders (summary mode) are not real sources:
        # the merged actual taints joined alongside carry the report
        taint = self.strip_placeholders(taint)
        if taint.is_safe:
            return
        location = inst.location
        key = (
            location.filename if location else "<unknown>",
            location.line if location else 0,
            func.name,
            variable,
        )
        entry = self._failures.setdefault(
            key, {"data": set(), "control": set()}
        )
        entry["data"] |= taint.data
        entry["control"] |= taint.control
        recorder = self._active_recorder()
        if recorder is not None:
            recorder.note_failure(key, taint.data, taint.control)
        self._edge_sink(func, inst, taint, variable)

    def _assert_variable(self, inst: Call) -> str:
        location = inst.location
        if location is not None:
            var = self._assert_vars.get((location.filename, location.line))
            if var:
                return var
        if inst.operands and inst.operands[0].name:
            return inst.operands[0].name
        return "<critical value>"

    def _finalize(self) -> None:
        from ..ir.source import SourceLocation
        from ..reporting.diagnostics import sort_key

        self.warnings = sorted(self.warnings_map.values(), key=sort_key)
        self.errors = []
        for (filename, line, fname, variable), entry in sorted(
            self._failures.items()
        ):
            data, control = entry["data"], entry["control"]
            # one reported dependency per (critical sink, shared region):
            # this is Table 1's unit of counting — a sink influenced by
            # two regions is two erroneous value dependencies
            regions = sorted(
                {s.region for s in data} | {s.region for s in control}
            )
            for region in regions:
                data_here = {s for s in data if s.region == region}
                control_here = {s for s in control if s.region == region}
                if data_here and control_here:
                    kind = DependencyKind.BOTH
                elif data_here:
                    kind = DependencyKind.DATA
                else:
                    kind = DependencyKind.CONTROL
                candidate_fp = (
                    self.config.triage_control_dependence
                    and kind is DependencyKind.CONTROL
                )
                sources = tuple(
                    self.warnings_map.get(
                        (s.function, s.region, s.line),
                        UnmonitoredReadWarning(
                            message=s.describe(),
                            location=s.location,
                            function=s.function,
                            severity=Severity.WARNING,
                            region=s.region,
                        ),
                    )
                    for s in sorted(data_here | control_here)
                )
                sink = self._sink_node(fname, filename, line, variable)
                witness = tuple(
                    node.render()
                    for node in self.vfg.witness_path(sink, region=region)
                )
                self.errors.append(
                    CriticalDependencyError(
                        message=(
                            f"critical data {variable!r} is "
                            f"{kind}-dependent on non-core {region!r}"
                        ),
                        location=SourceLocation(filename, line),
                        function=fname,
                        severity=Severity.ERROR,
                        variable=variable,
                        kind=kind,
                        sources=sources,
                        witness=witness,
                        candidate_false_positive=candidate_fp,
                    )
                )
        for index, error in enumerate(self.errors):
            location = error.location
            sink = self._sink_node(
                error.function,
                location.filename if location else "<unknown>",
                location.line if location else 0,
                error.variable,
            )
            trimmed = self.vfg.subgraph(self.vfg.ancestors_of(sink))
            self.witness_graphs[index] = trimmed.to_dot(f"error{index}")

    # ------------------------------------------------------------------
    # value-flow-graph recording
    # ------------------------------------------------------------------

    def _value_node(self, func: Function, value: Value) -> VFGNode:
        # memoized: the unnamed-temp branch walks the parent block's
        # instruction list, and edge-heavy bodies resolve the same
        # nodes every pass
        memo_key = (func, value)
        cached = self._value_node_memo.get(memo_key)
        if cached is not None:
            return cached
        location = ""
        if isinstance(value, Instruction):
            if value.location is not None:
                location = str(value.location)
            if value.name:
                label = f"{func.name}::{value.opname()} %{value.name}"
            else:
                # stable, human-readable identity for unnamed temps
                where = (f"L{value.location.line}" if value.location
                         else "L?")
                block = value.parent.name if value.parent else "?"
                index = (value.parent.instructions.index(value)
                         if value.parent else 0)
                label = (f"{func.name}::{value.opname()}@"
                         f"{where}.{block}.{index}")
        else:
            label = f"{func.name}::{value.short()}"
        node = VFGNode("value", label, location)
        self._value_node_memo[memo_key] = node
        return node

    def _edge_value(self, func: Function, src: Value, dst: Instruction,
                    kind: str) -> None:
        self.vfg.add_edge(
            self._value_node(func, src), self._value_node(func, dst), kind
        )

    def _edge_source(self, source: TaintSource, func: Function,
                     inst: Instruction) -> None:
        node = VFGNode(
            "source",
            f"noncore read {source.region}",
            f"{source.filename}:{source.line}",
        )
        self.vfg.add_edge(node, self._value_node(func, inst), "data")

    def _edge_cell(self, cell: Cell, func: Function,
                   inst: Instruction) -> None:
        node = VFGNode("cell", cell.label, "")
        self.vfg.add_edge(node, self._value_node(func, inst), "data")

    def _edge_value_to_cell(self, func: Function, value: Value,
                            cell: Cell) -> None:
        node = VFGNode("cell", cell.label, "")
        self.vfg.add_edge(self._value_node(func, value), node, "data")

    def _edge_sink(self, func: Function, inst: Instruction, taint: Taint,
                   variable: str) -> None:
        if inst.location is not None:
            location = f"{inst.location.filename}:{inst.location.line}"
        else:
            location = ""
        sink = VFGNode("sink", f"assert safe({variable})", location)
        if inst.operands:
            self.vfg.add_edge(
                self._value_node(func, inst.operands[0]), sink, "data"
            )

    def _sink_node(self, fname: str, filename: str, line: int,
                   variable: str) -> VFGNode:
        return VFGNode(
            "sink", f"assert safe({variable})", f"{filename}:{line}"
        )
