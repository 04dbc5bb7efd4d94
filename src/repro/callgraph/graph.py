"""Call graph over IR functions.

SafeFlow's phase 1 propagates shared-memory pointers bottom-up and
top-down over the strongly connected components of the call graph
(§3.3); this module supplies the graph and both traversal orders.

Indirect calls are resolved conservatively: a call through a function
pointer may target any *address-taken* function whose signature has the
same arity. The corpus systems use direct calls only, so this matters
only for user programs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir import Call, Function, Module
from .scc import strongly_connected_components


class CallSite:
    """One call instruction and its resolved possible targets."""

    __slots__ = ("call", "caller", "targets")

    def __init__(self, call: Call, caller: Function, targets: Tuple[Function, ...]):
        self.call = call
        self.caller = caller
        self.targets = targets

    def __repr__(self) -> str:
        names = ",".join(t.name for t in self.targets) or "<external>"
        return f"<callsite {self.caller.name} -> {names}>"


class CallGraph:
    """Whole-program call graph with SCC condensation.

    Call sites are indexed by caller, so that :meth:`sites_in` is a
    lookup and :meth:`update` can re-resolve the calls of functions the
    incremental session lowered again in place.
    """

    def __init__(self, module: Module):
        self.module = module
        self.edges: Dict[Function, Set[Function]] = {}
        self.reverse_edges: Dict[Function, Set[Function]] = {}
        #: caller → its calls with a defined target, in instruction order
        self._sites: Dict[Function, List[CallSite]] = {}
        #: caller → its calls with no defined target
        self._external: Dict[Function, List[Call]] = {}
        #: function → the functions whose address it takes, in order
        self._taken_in: Dict[Function, List[Function]] = {}
        self._sccs: Optional[List[List[Function]]] = None
        self._build()

    def _build(self) -> None:
        functions = list(self.module.defined_functions())
        for func in functions:
            self._taken_in[func] = _taken_in(func)
        self._address_taken = self._merge_taken(functions)
        for func in functions:
            self.edges[func] = set()
            self.reverse_edges.setdefault(func, set())
            self._add_calls(func)

    def _merge_taken(self, functions: List[Function]) -> List[Function]:
        """Address-taken functions in first-use order over the module."""
        taken: Dict[Function, None] = {}
        for func in functions:
            for op in self._taken_in[func]:
                taken.setdefault(op, None)
        return list(taken)

    def _add_calls(self, func: Function) -> None:
        sites: List[CallSite] = []
        external: List[Call] = []
        for call in func.calls():
            targets = self._resolve(call, self._address_taken)
            defined = tuple(t for t in targets if not t.is_declaration)
            if defined:
                sites.append(CallSite(call, func, defined))
                for target in defined:
                    self.edges[func].add(target)
                    self.reverse_edges.setdefault(target, set()).add(func)
            else:
                external.append(call)
        self._sites[func] = sites
        self._external[func] = external

    def update(self, changed: Iterable[Function]) -> bool:
        """Resolve the calls of ``changed`` again after the incremental
        session lowered their bodies again in place: their old sites and
        edges are dropped first (the sites hold torn-down calls). When
        the module's address-taken set moved, an indirect call anywhere
        may resolve elsewhere, so the whole graph is rebuilt and this
        returns ``False``."""
        changed = list(changed)
        functions = list(self.module.defined_functions())
        for func in changed:
            self._taken_in[func] = _taken_in(func)
        address_taken = self._merge_taken(functions)
        if address_taken != self._address_taken:
            self.edges, self.reverse_edges = {}, {}
            self._sites, self._external, self._taken_in = {}, {}, {}
            self._sccs = None
            self._build()
            return False
        for func in changed:
            old = self.edges[func]
            for target in old:
                self.reverse_edges[target].discard(func)
            self.edges[func] = set()
            self._add_calls(func)
            if self.edges[func] != old:
                self._sccs = None
        return True

    @property
    def external_calls(self) -> List[Tuple[Function, Call]]:
        return [(func, call) for func, calls in self._external.items()
                for call in calls]

    def _resolve(self, call: Call, address_taken: List[Function]) -> List[Function]:
        if isinstance(call.callee, Function):
            return [call.callee]
        if isinstance(call.callee, str):
            target = self.module.get_function(call.callee)
            return [target] if target is not None else []
        # indirect call: all address-taken functions of matching arity
        arity = len(call.operands)
        return [
            f
            for f in address_taken
            if len(f.ftype.params) == arity or f.ftype.varargs
        ]

    # ------------------------------------------------------------------

    def callees(self, func: Function) -> Set[Function]:
        return self.edges.get(func, set())

    def callers(self, func: Function) -> Set[Function]:
        return self.reverse_edges.get(func, set())

    def sites_in(self, func: Function) -> List[CallSite]:
        return self._sites.get(func, [])

    def sccs(self) -> List[List[Function]]:
        """SCCs in reverse topological order (callees before callers)."""
        if self._sccs is None:
            nodes = list(self.edges.keys())
            succ = {f: sorted(self.edges[f], key=lambda g: g.name) for f in nodes}
            self._sccs = strongly_connected_components(nodes, succ)
        return self._sccs

    def bottom_up_order(self) -> List[List[Function]]:
        """SCC groups, every callee group before its caller groups."""
        return self.sccs()

    def top_down_order(self) -> List[List[Function]]:
        """SCC groups, every caller group before its callee groups."""
        return list(reversed(self.sccs()))

    def reachable_from(self, roots: Iterable[Function]) -> Set[Function]:
        seen: Set[Function] = set()
        work = list(roots)
        while work:
            func = work.pop()
            if func in seen:
                continue
            seen.add(func)
            work.extend(self.edges.get(func, ()))
        return seen

    @property
    def root(self) -> Optional[Function]:
        main = self.module.get_function("main")
        if main is not None and not main.is_declaration:
            return main
        return None


def _taken_in(func: Function) -> List[Function]:
    """Functions whose address ``func`` takes (used as a value, not
    called), in first-use order."""
    taken: Dict[Function, None] = {}
    for inst in func.instructions():
        for op in inst.operands:
            if isinstance(op, Function) and not (
                isinstance(inst, Call) and inst.callee is op
            ):
                taken.setdefault(op, None)
    return list(taken)
