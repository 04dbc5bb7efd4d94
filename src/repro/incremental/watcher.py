"""The incremental analysis session and the ``safeflow watch`` loop.

:class:`IncrementalSession` keeps the whole front-end state of one
program alive between verdicts:

- per-unit parse results keyed by content digest — an unchanged file is
  never re-preprocessed or re-parsed, a changed file whose edit stayed
  inside function bodies re-parses only the bodies that changed (the
  previous parse tree supplies the rest, see
  :func:`repro.frontend.parser.parse_preprocessed`), and a verdict over
  *all*-unchanged digests short-circuits to a memoized copy of the last
  report without touching any phase;
- the lowered :class:`~repro.frontend.driver.Program`, updated by a
  **surgical unit swap** when the edit allows it (a single changed unit
  that defines only plain functions, no annotations, the same function
  names as before, none of them referenced from other units): per-def
  AST digests prune the swap to the definitions that actually changed —
  their old function objects are unbound and only they are re-lowered
  into the live module, so every other definition's IR — and with it
  the per-function fingerprint memoization — survives untouched. Any
  edit outside that envelope (signature change, annotation change, new
  or deleted file, degraded unit) falls back to a full re-lower over
  the cached parse trees, which is still parse-free;
- the long-lived :class:`~repro.incremental.segments.SegmentStore`,
  injected into every verdict so the value-flow phase replays intact
  segments and re-analyzes only the dirty cone.

The session keeps IR past its gc guards, so it owns that IR: a full
re-lower releases the program it replaces and a swap releases the
functions it pops (:meth:`repro.ir.Function.release`), and both die by
refcount instead of waiting for a full collection.

:class:`WatchLoop` polls mtimes (content hashes confirm real changes),
re-verdicts on change, and holds the :func:`repro.perf.gcpause.
gc_paused` guard across a re-verdict burst, releasing it only after the
loop has been idle — the guard's exit collection is a large fraction of
a sub-100ms re-verdict budget, so it must not run between back-to-back
edits.
"""

from __future__ import annotations

import os
import time
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from pycparser import c_ast

from ..core.config import AnalysisConfig
from ..core.driver import SafeFlow
from ..core.results import AnalysisReport
from ..errors import IRError, LoweringError, ParseError
from ..frontend.driver import Program, UnitInfo, _finish
from ..frontend.lower import ModuleLowerer
from ..frontend.parser import ParsedUnit
from ..frontend.recovery import TIER_STRICT, RecoveredUnit, frontend_file
from ..ir import Function
from ..ir.verifier import verify_function
from ..perf.fingerprint import text_digest
from .segments import SegmentStore


def _ast_digest(node) -> str:
    """Structural digest of one AST subtree, coordinates included.

    Two definitions digest equal only when re-lowering them would
    reproduce byte-identical IR: node types, attribute values *and*
    source coordinates all participate (coordinates feed diagnostics,
    so a def pushed down by an edit above it must count as changed)."""
    parts: List[str] = []
    stack = [("", node)]
    while stack:
        slot, n = stack.pop()
        parts.append(slot)
        parts.append(n.__class__.__name__)
        for attr in n.attr_names:
            parts.append(repr(getattr(n, attr, None)))
        coord = n.coord
        if coord is not None:
            parts.append(f"{coord.line}.{coord.column}")
        stack.extend(reversed(n.children()))
    return text_digest("\x00".join(parts))


class _UnitState:
    """Cached front-end state of one translation unit."""

    __slots__ = ("path", "digest", "result", "unit", "annotations",
                 "degraded", "defs", "refs", "funcs_only", "def_digests")

    def __init__(self, path: str, digest: str, result: RecoveredUnit,
                 previous: Optional["_UnitState"] = None):
        self.path = path
        self.digest = digest
        #: the unit as :func:`~repro.frontend.recovery.frontend_file`
        #: returned it (recovery-ladder counters included); every full
        #: re-lower hands these to the same ``_finish`` a cold
        #: ``safeflow analyze`` runs
        self.result = result
        self.unit = unit = result.unit
        self.annotations = result.annotations
        self.degraded = result.degraded
        #: function names defined by this unit (definition order)
        self.defs: Tuple[str, ...] = ()
        #: function names this unit's code references (call targets and
        #: address-taken uses) — maintained after lowering
        self.refs: Set[str] = set()
        #: the surgical swap envelope: top level is function
        #: definitions plus nodes every unit re-lowers idempotently
        #: into a shared module anyway (typedefs, extern declarations,
        #: function prototypes — the preprocessor prelude consists of
        #: exactly these). A non-extern variable declaration defines
        #: module state and disqualifies the unit; annotations are
        #: checked separately.
        self.funcs_only = False
        if unit is not None:
            defs = []
            funcs_only = True
            for ext in unit.ast.ext:
                if isinstance(ext, c_ast.FuncDef):
                    defs.append(ext.decl.name)
                elif isinstance(ext, (c_ast.Typedef, c_ast.Pragma)):
                    continue
                elif isinstance(ext, c_ast.Decl):
                    if not isinstance(ext.type, c_ast.FuncDecl) \
                            and "extern" not in (ext.storage or []):
                        funcs_only = False
                else:
                    funcs_only = False
            self.defs = tuple(defs)
            self.funcs_only = funcs_only
        #: per-definition AST digests (swap-eligible units only): lets
        #: the surgical swap re-lower just the defs that changed. A
        #: definition the re-parse took over from ``previous``'s tree
        #: is the same node, so it keeps its digest.
        self.def_digests: Dict[str, str] = {}
        if unit is not None and self.funcs_only:
            kept: Dict[int, str] = {}
            if previous is not None and previous.def_digests:
                kept = {id(ext): previous.def_digests[ext.decl.name]
                        for ext in previous.unit.ast.ext
                        if isinstance(ext, c_ast.FuncDef)
                        and ext.decl.name in previous.def_digests}
            for ext in unit.ast.ext:
                if isinstance(ext, c_ast.FuncDef):
                    self.def_digests[ext.decl.name] = (
                        kept.get(id(ext)) or _ast_digest(ext))

    def reusable_parse(self) -> Optional[ParsedUnit]:
        """The parse an edit of this unit may re-parse against: a clean
        strict-tier unit only (a recovered or degraded unit's tree is
        not what a strict parse of its text would give)."""
        result = self.result
        if result.unit is None or result.degraded \
                or result.tier not in (None, TIER_STRICT):
            return None
        return result.unit


def _function_refs(module, fnames: Sequence[str]) -> Set[str]:
    """Names of functions referenced from the bodies of ``fnames``
    (call targets and any function-valued operand — covers
    address-taken uses)."""
    refs: Set[str] = set()
    for fname in fnames:
        func = module.get_function(fname)
        if func is None:
            continue
        for inst in func.instructions():
            callee = getattr(inst, "callee", None)
            if isinstance(callee, Function):
                refs.add(callee.name)
            for op in inst.operands:
                if isinstance(op, Function):
                    refs.add(op.name)
    return refs


class IncrementalSession:
    """Front-end + analysis state shared by successive verdicts."""

    def __init__(self, paths: Sequence[str],
                 config: Optional[AnalysisConfig] = None,
                 name: str = "program",
                 store: Optional[SegmentStore] = None,
                 store_root: Optional[str] = None):
        self.config = config or AnalysisConfig()
        self.name = name
        self.driver = SafeFlow(self.config)
        self._paths: List[str] = list(paths)
        self._units: Dict[str, _UnitState] = {}
        #: new states of changed units, waiting for the swap or full
        #: re-lower that consumes them (see :meth:`_refresh_units`)
        self._pending: Dict[str, _UnitState] = {}
        self.program: Optional[Program] = None
        self.store = store if store is not None \
            else self._make_store(store_root)
        #: integrity evictions the store counted while *loading* (a
        #: stale/corrupt store on cold start evicts and recomputes);
        #: folded into the first verdict's stats
        self._pending_integrity = (
            self.store.integrity_evictions if self.store is not None else 0)
        self.verdicts = 0
        self.swaps = 0
        self.full_relowers = 0
        #: verdicts answered from the previous report because no input
        #: digest moved (editor touch/save-without-change events)
        self.memo_verdicts = 0
        self.last_changed: Tuple[str, ...] = ()
        #: function names the last surgical swap actually re-lowered
        self.last_swap_defs: Tuple[str, ...] = ()
        self._last_report: Optional[AnalysisReport] = None

    def _make_store(self, root: Optional[str]) -> Optional[SegmentStore]:
        config = self.config
        if root is None:
            # segments persist summary bodies, which only exist in
            # context-sensitive summary mode
            if not (config.cache_dir and config.summary_mode
                    and config.context_sensitive):
                return None
            from ..perf.fingerprint import config_fingerprint

            root = os.path.join(
                config.cache_dir,
                f"segments-{config_fingerprint(config)[:16]}",
            )
        return SegmentStore(root)

    # ------------------------------------------------------------------
    # file set
    # ------------------------------------------------------------------

    @property
    def paths(self) -> List[str]:
        return list(self._paths)

    def set_paths(self, paths: Sequence[str]) -> None:
        """Replace the watched file set (new/deleted files)."""
        self._paths = list(paths)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------

    def verdict(self) -> AnalysisReport:
        """Re-read inputs, refresh the front end as narrowly as the
        edit allows, and run the full analysis pipeline over it."""
        from ..perf.gcpause import gc_paused

        with gc_paused(self.config.pause_gc):
            frontend_started = perf_counter()
            changed, added, removed = self._refresh_units()
            self.last_changed = tuple(changed)
            if (self.program is not None and self._last_report is not None
                    and not changed and not added and not removed):
                # nothing's content digest moved: the pipeline is a
                # pure function of its inputs, so the previous report
                # *is* this verdict — answer from memory
                self.memo_verdicts += 1
                self.verdicts += 1
                return self._memoized_report(
                    perf_counter() - frontend_started)
            try:
                report = self._analyze(changed, added, removed,
                                       frontend_started)
            except BaseException:
                # the refreshed units are committed, but the module may
                # be half-swapped and the memo is an edit behind: the
                # next verdict re-lowers from the cached parse trees
                self.program = None
                self._last_report = None
                raise
        if self._pending_integrity:
            report.stats.cache_integrity_evictions += self._pending_integrity
            self._pending_integrity = 0
        self.verdicts += 1
        # a copy: the caller may edit the report it is handed
        self._last_report = report.verdict_copy(self.name)
        return report

    def _analyze(self, changed, added, removed,
                 frontend_started: float) -> AnalysisReport:
        if self.program is None or added or removed:
            self._full_frontend()
        elif changed:
            if len(changed) == 1 and self._swap_eligible(changed[0]):
                try:
                    self._swap_unit(changed[0])
                    self.swaps += 1
                except (LoweringError, IRError, ParseError):
                    # the swap mutated the module before failing; the
                    # cached parse trees rebuild it from scratch
                    self._full_frontend()
            else:
                self._full_frontend()
        return self.driver.analyze_program(
            self.program, name=self.name,
            frontend_seconds=perf_counter() - frontend_started,
            summary_store=self.store,
        )

    def _memoized_report(self, frontend_seconds: float) -> AnalysisReport:
        """The previous report re-issued for a no-change verdict: its
        findings in fresh lists (a caller editing one verdict must not
        edit the next) and the stats of what this (empty) run did."""
        report = self._last_report.verdict_copy(self.name)
        report.stats.phase_timings = {"frontend": frontend_seconds,
                                      "total": frontend_seconds}
        return report

    # ------------------------------------------------------------------
    # front end refresh
    # ------------------------------------------------------------------

    def _refresh_units(self):
        """Re-read every watched file; (re)parse the changed ones.

        Returns ``(changed, added, removed)`` path lists. Nothing is
        committed unless every file front-ended: a file that raises
        leaves the session as the last verdict left it. Added and
        removed units are committed then; the new :class:`_UnitState` of
        a changed unit replaces the old one only after a swap or full
        re-lower consumed both (``_pending`` holds it until then).
        """
        changed: List[str] = []
        added: List[str] = []
        fresh: Dict[str, _UnitState] = {}
        unreadable: Set[str] = set()
        for path in self._paths:
            try:
                with open(path, "rb") as f:
                    raw = f.read()
            except OSError:
                unreadable.add(path)
                continue
            digest = text_digest(raw.decode("utf-8", errors="replace"))
            state = self._units.get(path)
            if state is not None and state.digest == digest:
                continue
            previous = state.reusable_parse() if state is not None else None
            fresh[path] = _UnitState(path, digest, frontend_file(
                path, self.config.include_dirs, self.config.defines,
                self.config.recover_tiers, previous), state)
            (added if state is None else changed).append(path)
        removed = [p for p in self._units
                   if p in unreadable or p not in self._paths]
        for path in removed:
            del self._units[path]
        for path in added:
            self._units[path] = fresh[path]
        self._pending = {path: fresh[path] for path in changed}
        return changed, added, removed

    def _promote_pending(self) -> None:
        self._units.update(self._pending)
        self._pending = {}

    def _full_frontend(self) -> None:
        """Re-lower everything from the cached parse trees."""
        self._promote_pending()
        replaced = self.program
        self.program = _finish(
            [self._units[path].result for path in self._paths
             if path in self._units],
            self.config.verify_ir, self.config.recover_tiers,
        )
        if replaced is not None:
            # the session alone kept this IR past its guard
            replaced.module.release()
        self.full_relowers += 1
        # reference sets for future swap-eligibility checks
        module = self.program.module
        for state in self._units.values():
            state.refs = _function_refs(module, state.defs)

    # ------------------------------------------------------------------
    # surgical unit swap
    # ------------------------------------------------------------------

    def _swap_eligible(self, path: str) -> bool:
        """A changed unit can be re-lowered into the live module only
        when nothing outside the unit can observe the difference:

        - old and new top level contain nothing but function
          definitions, and neither carries annotations;
        - the new unit defines exactly the same function names (a
          rename, addition or deletion moves call bindings and
          module order — full re-lower);
        - no other unit references any of those functions (the IR
          binds calls to function *objects*; external references
          would keep pointing at the old bodies);
        - none of the functions is degraded or annotated.
        """
        program = self.program
        old = self._units.get(path)
        new = self._pending.get(path)
        if program is None or old is None or new is None:
            return False
        if old.unit is None or new.unit is None:
            return False
        if old.degraded or new.degraded:
            return False
        if not old.funcs_only or not new.funcs_only:
            return False
        if old.annotations or new.annotations:
            return False
        if tuple(sorted(old.defs)) != tuple(sorted(new.defs)):
            return False
        names = set(old.defs)
        if names & set(program.degraded_functions or ()):
            return False
        for fname in names:
            if program.function_annotations.get(fname):
                return False
        for other_path, state in self._units.items():
            if other_path == path:
                continue
            if names & state.refs:
                return False
            if names & set(state.defs):
                return False
        return True

    def _swap_unit(self, path: str) -> None:
        old = self._units[path]
        # the new state stays pending until the swap succeeded: a swap
        # that fails falls back to a full re-lower, which must see it
        new = self._pending[path]
        program = self.program
        module = program.module
        # prune the swap to the defs whose ASTs actually moved — a
        # one-function edit (or a comment/whitespace-only change) need
        # not re-lower its 30 siblings. Pruning is sound only when no
        # kept def references a re-lowered one: kept bodies bind call
        # operands to function *objects*, which the re-lower replaces.
        swapped = [f for f in new.defs
                   if new.def_digests.get(f) != old.def_digests.get(f)]
        if swapped and len(swapped) != len(new.defs):
            kept = [f for f in new.defs if f not in set(swapped)]
            if _function_refs(module, kept) & set(swapped):
                swapped = list(new.defs)
        self.last_swap_defs = tuple(swapped)
        if swapped:
            original_order = list(module.functions)
            popped = [module.functions.pop(fname) for fname in swapped
                      if fname in module.functions]
            # nothing kept references the popped bodies (see above and
            # _swap_eligible), and the session alone kept them past
            # their guard
            for func in popped:
                func.release()
            unit = new.unit
            if len(swapped) != len(new.defs):
                keep = set(swapped)
                pruned = c_ast.FileAST(ext=[
                    ext for ext in new.unit.ast.ext
                    if not (isinstance(ext, c_ast.FuncDef)
                            and ext.decl.name not in keep)
                ])
                unit = ParsedUnit(pruned, new.unit.source,
                                  name=new.unit.name)
            lowerer = ModuleLowerer(run_ssa=True, recover=False,
                                    module=module)
            lowerer.lower_unit(unit)
            if self.config.verify_ir:
                for fname in swapped:
                    func = module.get_function(fname)
                    if func is not None and not func.is_declaration:
                        verify_function(func)
            # restore the cold module order (same names, new objects),
            # with any newly created external declarations at the tail
            # — byte-identity with a cold run depends on deterministic
            # iteration
            reordered = {}
            for fname in original_order:
                if fname in module.functions:
                    reordered[fname] = module.functions[fname]
            for fname, func in module.functions.items():
                if fname not in reordered:
                    reordered[fname] = func
            module.functions = reordered
        index = next(i for i, info in enumerate(program.units)
                     if info.name == old.unit.name)
        program.units[index] = UnitInfo.of(new.unit)
        self._units[path] = self._pending.pop(path)
        new.refs = _function_refs(module, new.defs)


class WatchLoop:
    """mtime/content-hash polling around an :class:`IncrementalSession`.

    ``roots`` may mix files and directories; directories are rescanned
    every poll for ``*.c`` files, so new and deleted files become
    front-end changes. ``clock``/``sleep`` are injectable for tests.
    The loop enters :func:`gc_paused` before the first verdict of a
    burst and exits it only after ``idle_release`` seconds without a
    change, so back-to-back re-verdicts never pay the guard's exit
    collection.
    """

    def __init__(self, session: IncrementalSession,
                 roots: Optional[Sequence[str]] = None,
                 interval: float = 0.2,
                 idle_release: float = 2.0,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 on_report=None):
        self.session = session
        self.roots = list(roots) if roots is not None else session.paths
        self.interval = interval
        self.idle_release = idle_release
        self.clock = clock
        self.sleep = sleep
        self.on_report = on_report
        self._mtimes: Dict[str, Tuple[float, int]] = {}
        self._pause = None
        self._ran = False
        self._last_activity: Optional[float] = None

    # -- gc pause across bursts ----------------------------------------

    def _enter_pause(self) -> None:
        if self._pause is None and self.session.config.pause_gc:
            from ..perf.gcpause import gc_paused

            self._pause = gc_paused(True)
            self._pause.__enter__()

    def _release_pause(self) -> None:
        if self._pause is not None:
            pause, self._pause = self._pause, None
            pause.__exit__(None, None, None)

    @property
    def gc_pause_held(self) -> bool:
        return self._pause is not None

    # -- scanning ------------------------------------------------------

    def _targets(self) -> List[str]:
        targets: List[str] = []
        for root in self.roots:
            if os.path.isdir(root):
                for dirpath, _, filenames in sorted(os.walk(root)):
                    for fname in sorted(filenames):
                        if fname.endswith(".c"):
                            targets.append(os.path.join(dirpath, fname))
            else:
                targets.append(root)
        return targets

    def _scan(self) -> bool:
        """True when any watched file's (mtime, size) moved."""
        targets = self._targets()
        stamped: Dict[str, Tuple[float, int]] = {}
        for path in targets:
            try:
                st = os.stat(path)
                stamped[path] = (st.st_mtime, st.st_size)
            except OSError:
                continue
        moved = stamped != self._mtimes
        self._mtimes = stamped
        if moved:
            self.session.set_paths(targets)
        return moved

    # -- driving -------------------------------------------------------

    def poll_once(self) -> Optional[AnalysisReport]:
        """One poll: re-verdict if anything moved (always on the first
        call); otherwise maybe release the gc pause. Returns the report
        when a verdict ran."""
        moved = self._scan()
        if moved or not self._ran:
            self._ran = True
            self._enter_pause()
            report = self.session.verdict()
            self._last_activity = self.clock()
            if self.on_report is not None:
                self.on_report(report)
            return report
        if (self._pause is not None and self._last_activity is not None
                and self.clock() - self._last_activity >= self.idle_release):
            self._release_pause()
        return None

    def run(self, max_verdicts: Optional[int] = None,
            duration: Optional[float] = None,
            once: bool = False) -> int:
        """Poll until ``max_verdicts`` verdicts ran, ``duration``
        seconds elapsed, or (``once``) the first verdict. Returns the
        number of verdicts."""
        verdicts = 0
        started = self.clock()
        try:
            while True:
                report = self.poll_once()
                if report is not None:
                    verdicts += 1
                    if once or (max_verdicts is not None
                                and verdicts >= max_verdicts):
                        break
                if duration is not None \
                        and self.clock() - started >= duration:
                    break
                self.sleep(self.interval)
        finally:
            self._release_pause()
        return verdicts
