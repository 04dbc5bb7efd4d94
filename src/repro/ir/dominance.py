"""Dominator / postdominator trees and dominance frontiers.

Implemented with the Cooper–Harvey–Kennedy iterative algorithm, which
is simple and fast on the small CFGs of core components. Postdominance
is computed on the reverse CFG with a virtual exit node joining all
``ret`` blocks (and, conservatively, infinite loops); the control
dependence relation used by the value-flow phase (§3.3/§3.4.1) is
derived from the postdominance frontier in the standard way
(Ferrante–Ottenstein–Warren).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .cfg import BasicBlock
from .function import Function


class _VirtualExit:
    """Placeholder exit block for postdominance on multi-exit CFGs."""

    name = "<exit>"

    def __repr__(self) -> str:
        return "<virtual exit>"


class DominatorTree:
    """Immediate-dominator tree over the blocks of one function."""

    def __init__(self, function: Function, post: bool = False):
        self.function = function
        self.post = post
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        self._order: Dict[BasicBlock, int] = {}
        self._virtual_exit: Optional[_VirtualExit] = None
        self._compute()

    # -- graph orientation --------------------------------------------
    #
    # ``fwd_preds`` is the forward CFG's ``Function.predecessor_map``,
    # built once per pass.

    def _succs(self, block, fwd_preds) -> List:
        if self.post:
            if isinstance(block, _VirtualExit):
                return self._exit_blocks
            return fwd_preds.get(block, [])
        return block.successors()

    def _preds(self, block, fwd_preds) -> List:
        if self.post:
            if isinstance(block, _VirtualExit):
                return []
            preds: List = block.successors()
            if block in self._exit_set:
                preds.append(self._virtual_exit)
            return preds
        return fwd_preds.get(block, [])

    def _compute(self) -> None:
        func = self.function
        if not func.blocks:
            return
        if self.post:
            self._virtual_exit = _VirtualExit()
            self._exit_blocks = [b for b in func.blocks if not b.successors()]
            if not self._exit_blocks:
                # every block loops forever; anchor the exit at the entry
                self._exit_blocks = [func.entry]
            self._exit_set = set(self._exit_blocks)
            root = self._virtual_exit
        else:
            root = func.entry

        fwd_preds = func.predecessor_map()
        order = self._reverse_postorder(root, fwd_preds)
        self._order = {b: i for i, b in enumerate(order)}
        idom: Dict[object, object] = {root: root}
        preds_of = {b: self._preds(b, fwd_preds) for b in order}

        changed = True
        while changed:
            changed = False
            for block in order:
                if block is root:
                    continue
                preds = [p for p in preds_of[block] if p in idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = self._intersect(new_idom, p, idom)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        self.idom = {}
        for block, dom in idom.items():
            self.idom[block] = None if dom is block else dom
        self.children = {}
        for block, dom in self.idom.items():
            if dom is not None:
                self.children.setdefault(dom, []).append(block)
        self._root = root

    def _reverse_postorder(self, root, fwd_preds) -> List:
        # an explicit stack, not recursion: a chain of a few thousand
        # branches must not reach the interpreter's recursion limit
        seen = {root}
        out: List = []
        stack = [(root, iter(self._succs(root, fwd_preds)))]
        while stack:
            block, succs = stack[-1]
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self._succs(succ, fwd_preds))))
                    break
            else:
                stack.pop()
                out.append(block)
        out.reverse()
        return out

    def _intersect(self, a, b, idom):
        while a is not b:
            while self._order.get(a, 0) > self._order.get(b, 0):
                a = idom[a]
            while self._order.get(b, 0) > self._order.get(a, 0):
                b = idom[b]
        return a

    # -- queries -------------------------------------------------------

    @property
    def root(self):
        return self._root

    def dominates(self, a, b) -> bool:
        """True iff ``a`` (post)dominates ``b`` (reflexive)."""
        node = b
        while node is not None:
            if node is a:
                return True
            node = self.idom.get(node)
        return False

    def strictly_dominates(self, a, b) -> bool:
        return a is not b and self.dominates(a, b)

    def tree_children(self, block) -> List:
        return self.children.get(block, [])

    def dominance_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Cytron et al. dominance frontiers for phi placement."""
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {
            b: set() for b in self._order
        }
        fwd_preds = self.function.predecessor_map()
        for block in self._order:
            preds = self._preds(block, fwd_preds)
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner is not None and runner is not self.idom.get(block):
                    frontier.setdefault(runner, set()).add(block)
                    runner = self.idom.get(runner)
        return frontier


def dominator_tree(function: Function, post: bool = False) -> DominatorTree:
    """Memoized :class:`DominatorTree` (see ``Function.cached_analysis``).

    Dominance depends only on the CFG shape, which is final once
    lowering has removed unreachable blocks; SSA's instruction rewrites
    do not disturb it, so the verifier, SSA construction, and the
    value-flow engine can all share one tree per function.
    """
    return function.cached_analysis(
        ("domtree", post), lambda f: DominatorTree(f, post=post)
    )


def control_dependence(function: Function) -> Dict[BasicBlock, Set[BasicBlock]]:
    """Map each block B to the set of blocks whose branch B depends on.

    B is control dependent on A iff A's branch decides whether B
    executes — computed as the postdominance frontier of B. Memoized
    per function: the value-flow engine consults this for every
    (function, context) body it analyzes.
    """
    return function.cached_analysis("control_deps", _control_dependence)


def _control_dependence(
    function: Function,
) -> Dict[BasicBlock, Set[BasicBlock]]:
    pdt = dominator_tree(function, post=True)
    frontier = pdt.dominance_frontier()
    deps: Dict[BasicBlock, Set[BasicBlock]] = {}
    for block in function.blocks:
        deps[block] = {
            b for b in frontier.get(block, set()) if isinstance(b, BasicBlock)
        }
    return deps
