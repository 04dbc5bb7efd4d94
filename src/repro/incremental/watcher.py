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
- the lowered :class:`~repro.frontend.driver.Program`, updated **per
  definition** when the edit allows it: each definition whose AST
  changed is lowered again into its existing :class:`~repro.ir.Function`
  (:meth:`~repro.ir.Function.reset_body`, then the lowerer fills the
  declaration in place), so calls and address-taken uses in every
  other unit stay bound to it and nothing is relinked; every other
  function's IR, and its memoized fingerprint, survives. The edit
  takes this path only when that gives a cold lowering of the edited
  tree:

  - the old and the new unit are strict-tier and not degraded;
  - the unit's *frame* is unchanged: every top-level node that is not
    a definition (typedefs, globals, prototypes), coordinates
    included, and each definition's name, signature and start
    location, in order; and so are its annotations (location, text);
  - no changed definition is degraded or declares a struct, union or
    enum type or a local function (a declaration scoped to the body,
    which this path does not model);
  - a changed definition refers only to globals declared before it and
    to functions defined before it, or never defined and declared
    before it or referred to by its old body too (a cold lowering binds
    a forward reference to the callee's earlier declaration, a
    prototype or C90's implicit ``int f()``, whose type the live module
    no longer holds);
  - lowering adds no function, global or struct to the module.

  Any other edit (a signature, annotation, typedef or global, a line
  added above a definition, a new or deleted file, a degraded unit)
  re-lowers the whole program from the cached parse trees, which is
  still parse-free;
- the long-lived :class:`~repro.incremental.segments.SegmentStore`,
  injected into every verdict so the value-flow phase replays intact
  segments and re-analyzes only the dirty cone.

The session keeps IR past its gc guards, so it owns that IR: a full
re-lower releases the program it replaces and a per-definition
re-lower tears down the bodies it replaces (:meth:`repro.ir.Function.
reset_body`), and both die by refcount instead of waiting for a full
collection.

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
from ..errors import IRError, LoweringError
from ..frontend.driver import Program, UnitInfo, _finish
from ..frontend.lower import ModuleLowerer
from ..frontend.parser import ParsedUnit
from ..frontend.recovery import TIER_STRICT, RecoveredUnit, frontend_file
from ..ir import Function, GlobalVariable
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


def _declares_types(funcdef: c_ast.FuncDef) -> bool:
    """True when ``funcdef`` declares a struct, union or enum type, or
    a function inside its body: lowering it alone would not give what
    it gave inside a cold lowering of its unit."""
    stack: List[c_ast.Node] = [funcdef]
    while stack:
        node = stack.pop()
        if isinstance(node, (c_ast.Struct, c_ast.Union)):
            if node.name is None or node.decls is not None:
                return True
        elif isinstance(node, c_ast.Enum):
            if node.values is not None:
                return True
        elif (isinstance(node, c_ast.Decl) and node is not funcdef.decl
              and isinstance(node.type, c_ast.FuncDecl)):
            return True
        stack.extend(child for _, child in node.children())
    return False


def _changed_definitions(
        old: ParsedUnit,
        new: ParsedUnit) -> Optional[List[c_ast.FuncDef]]:
    """The definitions of ``new`` whose body an edit changed, or
    ``None`` when the edit moved the unit's frame or changed a
    definition that declares a type (:func:`_declares_types`).

    A definition the re-parse took over from the previous tree is the
    same node, so it is unchanged without being digested."""
    old_ext, new_ext = old.ast.ext, new.ast.ext
    if len(old_ext) != len(new_ext):
        return None
    changed: List[c_ast.FuncDef] = []
    for a, b in zip(old_ext, new_ext):
        if a is b:
            continue
        if isinstance(a, c_ast.FuncDef) and isinstance(b, c_ast.FuncDef):
            # a definition starts where its declaration does
            if (a.param_decls is not None or b.param_decls is not None
                    or _ast_digest(a.decl) != _ast_digest(b.decl)):
                return None
            if _ast_digest(a.body) != _ast_digest(b.body):
                if _declares_types(a) or _declares_types(b):
                    return None
                changed.append(b)
        elif _ast_digest(a) != _ast_digest(b):
            return None
    return changed


def _references(func: Function) -> Tuple[Set[str], Set[str]]:
    """Names of the functions and of the globals ``func``'s body
    refers to: call targets and every operand (address-taken uses)."""
    functions: Set[str] = set()
    globals_: Set[str] = set()
    for inst in func.instructions():
        values = list(inst.operands)
        values.append(getattr(inst, "callee", None))
        values.extend(getattr(inst, "incoming", {}).values())
        for value in values:
            if isinstance(value, Function):
                functions.add(value.name)
            elif isinstance(value, GlobalVariable):
                globals_.add(value.name)
    return functions, globals_


def _annotation_keys(state: "_UnitState") -> List[tuple]:
    return [(a.location, a.raw_text) for a in state.result.annotations]


class _UnitState:
    """Cached front-end state of one translation unit."""

    __slots__ = ("digest", "result", "unit")

    def __init__(self, digest: str, result: RecoveredUnit):
        self.digest = digest
        #: the unit as :func:`~repro.frontend.recovery.frontend_file`
        #: returned it (recovery-ladder counters included); every full
        #: re-lower hands these to the same ``_finish`` a cold
        #: ``safeflow analyze`` runs
        self.result = result
        self.unit = result.unit

    def reusable_parse(self) -> Optional[ParsedUnit]:
        """The parse an edit of this unit may re-parse against: a clean
        strict-tier unit only (a recovered or degraded unit's tree is
        not what a strict parse of its text would give)."""
        result = self.result
        if result.unit is None or result.degraded \
                or result.tier not in (None, TIER_STRICT):
            return None
        return result.unit


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
        #: new states of changed units, waiting for the per-definition
        #: or full re-lower that consumes them (see :meth:`_refresh_units`)
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
        #: verdicts whose changed units took the per-definition re-lower
        self.swaps = 0
        self.full_relowers = 0
        #: verdicts answered from the previous report because no input
        #: digest moved (editor touch/save-without-change events)
        self.memo_verdicts = 0
        self.last_changed: Tuple[str, ...] = ()
        #: function names the last per-definition re-lower lowered again
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
                # be half re-lowered and the memo is an edit behind: the
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
        if self.program is None or added or removed \
                or (changed and not self._relower_in_place(changed)):
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
        a changed unit replaces the old one only after a per-definition
        or full re-lower consumed both (``_pending`` holds it until
        then).
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
            fresh[path] = _UnitState(digest, frontend_file(
                path, self.config.include_dirs, self.config.defines,
                self.config.recover_tiers, previous))
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

    # ------------------------------------------------------------------
    # per-definition re-lower
    # ------------------------------------------------------------------

    def _relower_in_place(self, changed: Sequence[str]) -> bool:
        """Lower every changed definition of the ``changed`` units again
        into its own :class:`Function`, when the module then equals a
        cold lowering of the edited tree (the rules in the module
        docstring). Returns ``False`` when a rule does not hold; the
        module may then be half re-lowered, and the caller re-lowers
        the whole program."""
        program = self.program
        module = program.module
        edits: List[Tuple[str, List[c_ast.FuncDef]]] = []
        for path in changed:
            old, new = self._units[path], self._pending[path]
            if old.reusable_parse() is None or new.reusable_parse() is None \
                    or _annotation_keys(old) != _annotation_keys(new):
                return False
            defs = _changed_definitions(old.unit, new.unit)
            if defs is None:
                return False
            edits.append((path, defs))
        names = [d.decl.name for _, defs in edits for d in defs]
        funcs = [module.functions.get(name) for name in names]
        if any(f is None or f.is_declaration for f in funcs) \
                or set(names) & program.degraded_functions:
            return False
        if funcs:
            declared, defined = self._positions()
            before = {f.name: _references(f)[0] for f in funcs}
            for func in funcs:
                func.reset_body()
            sizes = (len(module.functions), len(module.globals),
                     len(module.structs))
            try:
                for path, defs in edits:
                    if not defs:
                        continue
                    new = self._pending[path].unit
                    keep = {id(d) for d in defs}
                    # the frame's anonymous aggregates are tagged by
                    # their content, so they bind the types the unit's
                    # first lowering made
                    ModuleLowerer(module=module).lower_unit(ParsedUnit(
                        c_ast.FileAST(ext=[
                            ext for ext in new.ast.ext
                            if not isinstance(ext, c_ast.FuncDef)
                            or id(ext) in keep]),
                        new.source, name=new.name))
                if sizes != (len(module.functions), len(module.globals),
                             len(module.structs)):
                    return False
                for func in funcs:
                    at = defined[func.name]
                    functions, globals_ = _references(func)
                    for name in functions | before[func.name]:
                        if name in defined:
                            if defined[name] > at:
                                return False
                        elif declared.get(name, at) >= at and not (
                                name in functions
                                and name in before[func.name]):
                            return False
                    if any(declared.get(name, at) >= at
                           for name in globals_):
                        return False
                    if self.config.verify_ir:
                        verify_function(func)
            except (LoweringError, IRError, RecursionError):
                return False
        for path, _ in edits:
            state = self._units[path] = self._pending.pop(path)
            index = next(i for i, info in enumerate(program.units)
                         if info.name == state.unit.name)
            program.units[index] = UnitInfo.of(state.unit)
        self.swaps += 1
        self.last_swap_defs = tuple(names)
        return True

    def _positions(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Where each name is first declared and where each function is
        defined: indices into the top-level nodes of every unit, in the
        order a cold lowering visits them."""
        declared: Dict[str, int] = {}
        defined: Dict[str, int] = {}
        index = 0
        for path in self._paths:
            state = self._units.get(path)
            if state is None or state.unit is None:
                continue
            for ext in state.unit.ast.ext:
                if isinstance(ext, c_ast.FuncDef):
                    defined.setdefault(ext.decl.name, index)
                    declared.setdefault(ext.decl.name, index)
                elif isinstance(ext, c_ast.Decl) and ext.name:
                    declared.setdefault(ext.name, index)
                index += 1
        return declared, defined


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
