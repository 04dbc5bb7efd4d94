"""Reference SSA construction: the classic mem2reg pass.

Cytron et al. phi placement on the iterated dominance frontier,
followed by a dominator-tree renaming walk and trivial-phi pruning,
over IR lowered with ``run_ssa=False`` (every local an alloca). The
front end builds SSA while it lowers (:mod:`repro.frontend.lower`);
this pass is the oracle the differential tests hold it to: the same
promoted scalars, the same non-phi instructions and the same live
phis in every block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir import (Alloca, BasicBlock, Call, Function, Instruction, Load,
                      Phi, Store, UndefValue, Value, dominator_tree)


def _uses(function: Function) -> Dict[Value, List[Tuple[Instruction, int]]]:
    """Def-use chains: value → list of (instruction, operand index)."""
    uses: Dict[Value, List[Tuple[Instruction, int]]] = {}
    for inst in function.instructions():
        for idx, op in enumerate(inst.operands):
            uses.setdefault(op, []).append((inst, idx))
    return uses


def promotable_allocas(function: Function) -> List[Alloca]:
    """Allocas whose every use is a direct load or store-to.

    An alloca is disqualified if its address is used any other way
    (passed to a call, stored as a value, cast, indexed): those uses
    mean the variable's address escapes and memory semantics must stay.
    """
    uses = _uses(function)
    result = []
    for inst in function.instructions():
        if not isinstance(inst, Alloca):
            continue
        if not inst.allocated_type.is_scalar:
            continue
        ok = True
        for user, idx in uses.get(inst, []):
            if isinstance(user, Load):
                continue
            if isinstance(user, Store) and idx == 1 and user.pointer is inst:
                continue
            ok = False
            break
        if ok:
            result.append(inst)
    return result


def promote_to_ssa(function: Function) -> int:
    """Run mem2reg on ``function``; returns number of promoted allocas."""
    if function.is_declaration:
        return 0
    function.remove_unreachable_blocks()
    allocas = promotable_allocas(function)
    if not allocas:
        return 0

    # the CFG is final here (unreachable blocks were just removed), so
    # this tree seeds the shared cache for the verifier and engine
    dt = dominator_tree(function)
    frontier = dt.dominance_frontier()
    alloca_set = set(allocas)

    # 1. phi placement at the iterated dominance frontier of each store.
    # Worklist and frontier sets are iterated in block order: phi names
    # come from a per-function counter, so placement order must not
    # depend on set order (object hashes vary across processes, and
    # reports must be byte-reproducible for the repro.perf caches).
    block_order = {block: i for i, block in enumerate(function.blocks)}
    phis: Dict[Phi, Alloca] = {}
    for alloca in allocas:
        def_blocks: Set[BasicBlock] = {
            inst.parent
            for inst in function.instructions()
            if isinstance(inst, Store) and inst.pointer is alloca
        }
        placed: Set[BasicBlock] = set()
        work = sorted(def_blocks, key=lambda b: block_order.get(b, -1))
        while work:
            block = work.pop()
            for fblock in sorted(
                frontier.get(block, ()),  # type: ignore[arg-type]
                key=lambda b: block_order.get(b, -1)
                if isinstance(b, BasicBlock) else -1,
            ):
                if not isinstance(fblock, BasicBlock) or fblock in placed:
                    continue
                phi = Phi(alloca.allocated_type, function.temp_name(alloca.name))
                phi.location = alloca.location
                fblock.insert_phi(phi)
                phis[phi] = alloca
                placed.add(fblock)
                if fblock not in def_blocks:
                    work.append(fblock)

    # 2. renaming walk over the dominator tree.
    stacks: Dict[Alloca, List[Value]] = {a: [] for a in allocas}
    to_delete: List[Instruction] = list(allocas)
    replacements: Dict[Instruction, Value] = {}

    # An explicit stack, not recursion: the dominator tree of a long
    # branch chain is as deep as the chain. An entry with ``pushed``
    # set is a block's exit, reached after its whole subtree.
    walk: List[Tuple[BasicBlock, Optional[List[Alloca]]]] = [
        (function.entry, None)]
    while walk:
        block, pushed = walk.pop()
        if pushed is not None:
            for alloca in reversed(pushed):
                stacks[alloca].pop()
            continue
        pushed = []
        for inst in list(block.instructions):
            if isinstance(inst, Phi) and inst in phis:
                stacks[phis[inst]].append(inst)
                pushed.append(phis[inst])
            elif isinstance(inst, Load) and inst.pointer in alloca_set:
                replacements[inst] = _current(stacks, inst.pointer)  # type: ignore[arg-type]
                to_delete.append(inst)
            elif isinstance(inst, Store) and inst.pointer in alloca_set:
                value = replacements.get(inst.value, inst.value)  # chains
                stacks[inst.pointer].append(value)  # type: ignore[index]
                pushed.append(inst.pointer)  # type: ignore[arg-type]
                to_delete.append(inst)
            else:
                for op in list(inst.operands):
                    if op in replacements:
                        inst.replace_operand(op, replacements[op])
                if isinstance(inst, Call) and inst.callee in replacements:
                    inst.callee = replacements[inst.callee]
        for succ in block.successors():
            for phi in succ.phis():
                if phi in phis:
                    phi.add_incoming(block, _current(stacks, phis[phi]))
        walk.append((block, pushed))
        children = [child for child in dt.tree_children(block)
                    if isinstance(child, BasicBlock)]
        walk.extend((child, None) for child in reversed(children))

    # 3. resolve any replacement chains that crossed block boundaries,
    # then delete dead loads/stores/allocas.
    def resolve(value: Value) -> Value:
        seen = set()
        while value in replacements and id(value) not in seen:
            seen.add(id(value))
            value = replacements[value]
        return value

    for inst in function.instructions():
        for op in list(inst.operands):
            if op in replacements:
                inst.replace_operand(op, resolve(op))
        if isinstance(inst, Call) and inst.callee in replacements:
            inst.callee = resolve(inst.callee)
        if isinstance(inst, Phi):
            for blk, val in list(inst.incoming.items()):
                if val in replacements:
                    inst.incoming[blk] = resolve(val)
            inst.operands = list(inst.incoming.values())

    for inst in to_delete:
        if inst.parent is not None:
            inst.parent.remove(inst)

    _prune_trivial_phis(function)
    return len(allocas)


def _current(stacks: Dict[Alloca, List[Value]], alloca: Alloca) -> Value:
    """The value of ``alloca`` on the renaming walk's current path."""
    stack = stacks[alloca]
    if stack:
        return stack[-1]
    return UndefValue(alloca.allocated_type, alloca.name)


def _prune_trivial_phis(function: Function) -> None:
    """Remove phis whose incoming values are all identical (or self)."""
    changed = True
    while changed:
        changed = False
        uses = _uses(function)
        for block in function.blocks:
            for phi in list(block.phis()):
                values = {v for v in phi.incoming.values() if v is not phi}
                if len(values) != 1:
                    continue
                replacement = values.pop()
                for user, _ in uses.get(phi, []):
                    user.replace_operand(phi, replacement)
                block.remove(phi)
                changed = True
