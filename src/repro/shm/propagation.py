"""Phase 1: interprocedural identification of shared-memory pointers.

From the paper (§3.3): *"In the first phase, we discover the
initializing functions in the program and identify the shared memory
pointers initialized. We then propagate these pointers
interprocedurally using a bottom-up and top-down analysis on the
strongly connected components of the call graph."*

We implement the same computation as a whole-program fixpoint over a
function worklist seeded in bottom-up SCC order: region-pointer facts
flow bottom-up through return values and top-down through arguments
until every function's ``Value → RegionSet`` map stabilizes. Because
rule P2 forbids storing shared-memory pointers into memory, pointers
propagate only through SSA values (copies, casts, address arithmetic,
phis) and call bindings — which is what makes the identification
*precise* rather than conservative.

The incremental session keeps one analysis across in-place edits and
calls :meth:`ShmAnalysis.run` again with the functions it re-lowered:
the call graph re-resolves their calls, and the fixpoint is computed
again only for them and for every function their old facts flowed
into (:meth:`ShmAnalysis._update`), which gives the facts a whole run
gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..annotations.lang import (
    AnnotationItem,
    AssertSafe,
    AssumeCore,
    AssumeNoncore,
    AssumeShmvar,
    ShmInit,
)
from ..callgraph import CallGraph
from ..core.config import AnalysisConfig
from ..errors import AnnotationError
from ..frontend.driver import Program
from ..ir import (
    Argument,
    Call,
    Cast,
    FieldAddr,
    Function,
    IndexAddr,
    Instruction,
    Load,
    Phi,
    PointerType,
    Value,
)
from ..ir.values import GlobalVariable
from ..reporting.diagnostics import InitializationIssue, Severity
from .init_analysis import check_init_layout
from .model import EMPTY_REGIONS, RegionSet, SharedRegion


@dataclass
class ResolvedAssume:
    """An ``assume(core(p, off, size))`` with sizes evaluated to bytes."""

    pointer: str
    offset: int
    size: int
    is_parameter: bool
    parameter_index: int = -1
    location: Optional[object] = None


class ShmAnalysis:
    """Phase-1 results: regions, init functions, pointer propagation."""

    def __init__(self, program: Program, config: Optional[AnalysisConfig] = None):
        self.program = program
        self.config = config or AnalysisConfig()
        self.module = program.module
        self.callgraph = CallGraph(self.module)
        #: keep-going analysis (with or without recovery-ladder tiers):
        #: fail closed around whatever the frontend could not certify
        self.fail_closed = self.config.recover_tiers is not None

        self.regions: Dict[str, SharedRegion] = {}
        self.init_functions: Set[str] = set()
        #: function name → resolved assume(core(...)) annotations
        self.monitor_assumes: Dict[str, List[ResolvedAssume]] = {}
        #: function name → socket/descriptor names annotated noncore
        #: (the §3.4.3 message-passing extension)
        self.noncore_descriptors: Dict[str, Set[str]] = {}
        self.init_issues: List[InitializationIssue] = []
        #: region name → static placement (or None) from init analysis
        self.placements: Dict[str, Optional[object]] = {}

        self.value_regions: Dict[Function, Dict[Value, RegionSet]] = {}
        self.arg_regions: Dict[Function, List[RegionSet]] = {}
        self.ret_regions: Dict[Function, RegionSet] = {}
        #: caller → (callee, parameter index) → the regions the caller's
        #: calls pass there: each ``arg_regions`` entry is the join of
        #: these over the callers
        self.flows: Dict[Function, Dict[Tuple[Function, int], RegionSet]] = {}
        #: functions whose body or facts the last :meth:`run` moved;
        #: ``None`` after a whole-program run
        self.moved: Optional[Set[Function]] = None

    # ------------------------------------------------------------------

    def run(self, changed: Optional[Iterable[Function]] = None
            ) -> "ShmAnalysis":
        """Phase 1 over the whole program. With ``changed``, the
        analysis has run before on this program and the incremental
        session has since lowered exactly those functions again in
        place (an init function is not among them): only their share
        of the facts is computed again (:meth:`_update`)."""
        if changed is not None:
            self._update(list(changed))
            return self
        self._collect_annotations()
        if not self.config.unannotated_shm_is_core:
            # paranoid mode: refuse to trust encapsulation — every
            # declared region is treated as writable by non-core
            # components, whether annotated noncore or not
            for region in self.regions.values():
                region.noncore = True
        if self.fail_closed:
            # fail closed: a region initialized by a degraded function
            # cannot have its write-audit trusted, so treat it as
            # writable by non-core components
            degraded = getattr(self.program, "degraded_functions", set())
            for region in self.regions.values():
                if region.init_function in degraded:
                    region.noncore = True
        self._check_init_layouts()
        self._propagate()
        return self

    # ------------------------------------------------------------------
    # annotation collection
    # ------------------------------------------------------------------

    def _collect_annotations(self) -> None:
        sizeof = self.program.sizeof
        # first pass: find init functions and their shmvar declarations
        for fname, items in self.program.function_annotations.items():
            if any(isinstance(i, ShmInit) for i in items):
                self.init_functions.add(fname)
        for fname, items in self.program.function_annotations.items():
            func = self.module.get_function(fname)
            for item in items:
                try:
                    if isinstance(item, AssumeShmvar):
                        self._declare_region(fname, item, sizeof)
                    elif isinstance(item, AssumeNoncore):
                        if fname in self.init_functions:
                            self._mark_noncore(fname, item)
                        else:
                            self.noncore_descriptors.setdefault(
                                fname, set()
                            ).add(item.pointer)
                    elif isinstance(item, AssumeCore):
                        self._resolve_assume_core(fname, func, item, sizeof)
                    elif isinstance(item, (ShmInit, AssertSafe)):
                        continue
                except AnnotationError as exc:
                    if not self.fail_closed:
                        raise
                    self._degrade_annotation(fname, item, exc)

    def _degrade_annotation(self, fname: str, item: AnnotationItem,
                            exc: AnnotationError) -> None:
        """Record a failed annotation item and fail closed around it.

        The owning function is added to ``program.degraded_functions``:
        its monitoring assumptions can no longer be trusted, so the
        value-flow engine treats calls into it as unmonitored flow.
        Recording is idempotent: a memoised program is analyzed again
        under other configs, and must not report the unit twice.
        """
        from ..degrade import KIND_ANNOTATION, DegradedUnit

        degraded = getattr(self.program, "degraded", None)
        unit = DegradedUnit(
            kind=KIND_ANNOTATION,
            name=f"{type(item).__name__}({getattr(item, 'pointer', '')})",
            cause=exc.message,
            location=exc.location,
            function=fname,
        )
        if degraded is not None and unit not in degraded:
            degraded.append(unit)
        functions = getattr(self.program, "degraded_functions", None)
        if functions is not None:
            functions.add(fname)

    def _declare_region(self, fname: str, item: AssumeShmvar, sizeof) -> None:
        if fname not in self.init_functions:
            raise AnnotationError(
                f"shmvar({item.pointer}, ...) outside an shminit function",
                item.location,
            )
        try:
            size = item.size.evaluate(sizeof)
        except Exception as exc:
            raise AnnotationError(
                f"cannot evaluate shmvar size for {item.pointer}: {exc}",
                item.location,
            )
        element_type = None
        gv = self.module.globals.get(item.pointer)
        if gv is not None and isinstance(gv.declared_type, PointerType):
            element_type = gv.declared_type.pointee
        elif gv is None:
            if self.fail_closed:
                # degraded mode reports the missing symbol as a
                # DegradedUnit (fail-closed around the shminit function)
                # rather than a violation pinned to a phantom region
                raise AnnotationError(
                    f"shmvar pointer {item.pointer!r} does not name any "
                    f"global variable",
                    item.location,
                )
            self.init_issues.append(
                InitializationIssue(
                    message=(
                        f"shmvar pointer {item.pointer!r} is not a global "
                        f"shared-memory pointer variable"
                    ),
                    location=item.location,
                    function=fname,
                    severity=Severity.VIOLATION,
                    region_a=item.pointer,
                )
            )
        self.regions[item.pointer] = SharedRegion(
            name=item.pointer,
            size=size,
            element_type=element_type,
            init_function=fname,
            location=item.location,
        )

    def _mark_noncore(self, fname: str, item: AssumeNoncore) -> None:
        region = self.regions.get(item.pointer)
        if region is None:
            raise AnnotationError(
                f"noncore({item.pointer}) has no matching shmvar declaration",
                item.location,
            )
        region.noncore = True

    def _resolve_assume_core(
        self, fname: str, func: Optional[Function], item: AssumeCore, sizeof
    ) -> None:
        try:
            offset = item.offset.evaluate(sizeof)
            size = item.size.evaluate(sizeof)
        except Exception as exc:
            raise AnnotationError(
                f"cannot evaluate core() annotation sizes: {exc}", item.location
            )
        is_param = False
        param_index = -1
        if func is not None:
            for i, arg in enumerate(func.arguments):
                if arg.name == item.pointer:
                    is_param = True
                    param_index = i
                    break
        if not is_param and item.pointer in self.regions:
            region = self.regions[item.pointer]
            if offset != 0 or size != region.size:
                # the annotation must span the entire array — otherwise
                # it is ineffective (§3.1) and we say so explicitly
                self.init_issues.append(
                    InitializationIssue(
                        message=(
                            f"core({item.pointer}, {offset}, {size}) does not "
                            f"span the whole region (size {region.size}); "
                            f"annotation is ineffective"
                        ),
                        location=item.location,
                        function=fname,
                        severity=Severity.WARNING,
                        region_a=item.pointer,
                    )
                )
                return
        resolved = ResolvedAssume(
            pointer=item.pointer,
            offset=offset,
            size=size,
            is_parameter=is_param,
            parameter_index=param_index,
            location=item.location,
        )
        self.monitor_assumes.setdefault(fname, []).append(resolved)

    # ------------------------------------------------------------------
    # init layout checking
    # ------------------------------------------------------------------

    def _check_init_layouts(self) -> None:
        for fname in sorted(self.init_functions):
            func = self.module.get_function(fname)
            if func is None or func.is_declaration:
                continue
            declared = [
                r for r in self.regions.values() if r.init_function == fname
            ]
            issues, placements = check_init_layout(func, declared)
            self.init_issues.extend(issues)
            self.placements.update(placements)

    # ------------------------------------------------------------------
    # interprocedural pointer propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> None:
        functions = list(self.module.defined_functions())
        for func in functions:
            self.value_regions[func] = {}
            self.arg_regions[func] = [EMPTY_REGIONS] * len(func.arguments)
            self.ret_regions[func] = EMPTY_REGIONS
        self.flows = {}
        self.moved = None
        self._fixpoint(functions)

    def _fixpoint(self, functions: List[Function]) -> Set[Function]:
        """Run the worklist from ``functions`` to the fixpoint; returns
        every function whose facts grew on the way."""
        # seed the worklist bottom-up so summaries stabilize quickly
        seeds = set(functions)
        worklist = [f for group in self.callgraph.bottom_up_order()
                    for f in group if f in seeds] or functions
        in_list = set(worklist)
        grown: Set[Function] = set()
        while worklist:
            func = worklist.pop(0)
            in_list.discard(func)
            changed_callers, changed_callees, env_grew = \
                self._analyze_function(func)
            if env_grew:
                grown.add(func)
            grown |= changed_callees
            for other in changed_callers | changed_callees:
                if other not in in_list:
                    worklist.append(other)
                    in_list.add(other)
        return grown

    def _update(self, changed: List[Function]) -> None:
        """The facts after the in-place re-lower of ``changed``.

        The kept facts are a least fixpoint in which nothing outside
        the *influence set* — ``changed`` and every function that the
        old facts made a return value or an argument flow into,
        transitively — received anything from inside it. So the kept
        facts outside the set are the least fixpoint of the program
        without it; the set's facts are dropped, its arguments are
        rebuilt from the flows of callers outside it, and the worklist
        runs from it. Facts only grow from there, and the result is the
        least fixpoint of the edited program: the facts a whole run
        gives, whether an edit adds a flow or removes one. When the
        module's address-taken set moved, the call graph is rebuilt and
        the whole fixpoint computed again."""
        if not self.callgraph.update(changed):
            self._propagate()
            return
        reset = set(changed)
        work = list(changed)
        while work:
            func = work.pop()
            targets = [callee for (callee, _), flow
                       in self.flows.get(func, {}).items() if flow]
            if self.ret_regions[func]:
                targets.extend(self.callgraph.callers(func))
            for target in targets:
                if target not in reset:
                    reset.add(target)
                    work.append(target)
        before = {func: (self.value_regions[func], self.arg_regions[func])
                  for func in reset}
        for func in reset:
            self.value_regions[func] = {}
            self.arg_regions[func] = [EMPTY_REGIONS] * len(func.arguments)
            self.ret_regions[func] = EMPTY_REGIONS
            self.flows.pop(func, None)
        for flows in self.flows.values():
            for (callee, index), flow in flows.items():
                if callee in reset:
                    params = self.arg_regions[callee]
                    params[index] = params[index] | flow
        grown = self._fixpoint([f for f in self.module.defined_functions()
                                if f in reset])
        moved = set(changed) | (grown - reset)
        for func, (values, args) in before.items():
            if self.value_regions[func] != values \
                    or self.arg_regions[func] != args:
                moved.add(func)
        self.moved = moved

    def _analyze_function(
            self, func: Function
    ) -> Tuple[Set[Function], Set[Function], bool]:
        env = self.value_regions[func]
        changed_callees: Set[Function] = set()
        changed_callers: Set[Function] = set()
        env_grew = False

        def get(value: Value) -> RegionSet:
            if isinstance(value, Argument):
                if value.index < len(self.arg_regions[func]):
                    return self.arg_regions[func][value.index]
                return EMPTY_REGIONS
            if isinstance(value, GlobalVariable):
                return EMPTY_REGIONS
            return env.get(value, EMPTY_REGIONS)

        def put(value: Value, regions: RegionSet) -> bool:
            old = env.get(value, EMPTY_REGIONS)
            new = old | regions
            if new != old:
                env[value] = new
                return True
            return False

        stable = False
        while not stable:
            stable = True
            for block in func.blocks:
                for inst in block.instructions:
                    updated = False
                    if isinstance(inst, Load):
                        ptr = inst.pointer
                        if isinstance(ptr, GlobalVariable) and \
                                ptr.name in self.regions:
                            updated = put(inst, frozenset({ptr.name}))
                    elif isinstance(inst, Cast):
                        updated = put(inst, get(inst.source))
                    elif isinstance(inst, (IndexAddr, FieldAddr)):
                        updated = put(inst, get(inst.pointer))
                    elif isinstance(inst, Phi):
                        merged = EMPTY_REGIONS
                        for value in inst.incoming.values():
                            merged |= get(value)
                        updated = put(inst, merged)
                    elif isinstance(inst, Call):
                        updated = self._transfer_call(
                            func, inst, get, put, changed_callees
                        )
                    if updated:
                        stable = False
                        env_grew = True

            # return-value summary
            ret = EMPTY_REGIONS
            for block in func.blocks:
                term = block.terminator
                if term is not None and term.opname() == "ret" and term.operands:
                    ret |= get(term.operands[0])
            if ret != self.ret_regions[func]:
                self.ret_regions[func] = ret
                # callers observe the new summary via the outer worklist
                changed_callers |= self.callgraph.callers(func)

        return changed_callers, changed_callees, env_grew

    def _transfer_call(self, func: Function, inst: Call, get, put,
                       changed_callees: Set[Function]) -> bool:
        updated = False
        targets = []
        if isinstance(inst.callee, Function) and not inst.callee.is_declaration:
            targets = [inst.callee]
        else:
            for site in self.callgraph.sites_in(func):
                if site.call is inst:
                    targets = list(site.targets)
                    break
        for target in targets:
            params = self.arg_regions.get(target)
            if params is None:
                continue
            for i, arg in enumerate(inst.operands):
                if i >= len(params):
                    break
                flow = get(arg)
                if not flow:
                    continue
                flows = self.flows.setdefault(func, {})
                key = (target, i)
                recorded = flows.get(key, EMPTY_REGIONS)
                if not flow <= recorded:
                    flows[key] = recorded | flow
                if not flow <= params[i]:
                    params[i] = params[i] | flow
                    changed_callees.add(target)
            ret = self.ret_regions.get(target, EMPTY_REGIONS)
            if ret:
                updated |= put(inst, ret)
        return updated

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def regions_of(self, func: Function, value: Value) -> RegionSet:
        """Region set a value may point into (empty → not shared memory)."""
        if isinstance(value, Argument):
            regs = self.arg_regions.get(func)
            if regs is not None and value.index < len(regs):
                return regs[value.index]
            return EMPTY_REGIONS
        if isinstance(value, GlobalVariable) and value.name in self.regions:
            # the global *cell* itself is not in shm; loads of it are.
            return EMPTY_REGIONS
        return self.value_regions.get(func, {}).get(value, EMPTY_REGIONS)

    def is_shm_pointer(self, func: Function, value: Value) -> bool:
        return bool(self.regions_of(func, value))

    def noncore_regions_of(self, func: Function, value: Value) -> RegionSet:
        return frozenset(
            name for name in self.regions_of(func, value)
            if self.regions[name].noncore
        )

    def region(self, name: str) -> SharedRegion:
        return self.regions[name]
