"""Structural well-formedness checks for lowered IR.

Run after lowering and after SSA construction in tests; catches the
lowering bugs that would otherwise surface as bogus analysis results.
"""

from __future__ import annotations

from typing import List

from .cfg import BasicBlock
from .dominance import dominator_tree
from .function import Function, Module
from .instructions import Instruction, Phi
from .values import Argument, Constant, GlobalVariable, UndefValue, Value


class VerificationError(AssertionError):
    """Raised when the IR is structurally malformed."""


def verify_function(function: Function, check_ssa: bool = True) -> None:
    if function.is_declaration:
        return
    errors: List[str] = []

    block_set = set(function.blocks)
    for block in function.blocks:
        if block.parent is not function:
            errors.append(f"{block.name}: wrong parent")
        if not block.is_terminated:
            errors.append(f"{block.name}: not terminated")
        seen_non_phi = False
        for inst in block.instructions:
            if inst.parent is not block:
                errors.append(f"{block.name}: {inst.render()} has wrong parent")
            if isinstance(inst, Phi):
                if seen_non_phi:
                    errors.append(f"{block.name}: phi after non-phi")
            else:
                seen_non_phi = True
            if inst.IS_TERMINATOR and inst is not block.instructions[-1]:
                errors.append(f"{block.name}: terminator not last")
        for succ in block.successors():
            if succ not in block_set:
                errors.append(f"{block.name}: successor {succ.name} not in function")

    pred_map = function.predecessor_map()
    for block in function.blocks:
        preds = set(pred_map.get(block, ()))
        for phi in block.phis():
            for inc in phi.incoming:
                if inc not in preds:
                    errors.append(
                        f"{block.name}: phi {phi.short()} has non-predecessor "
                        f"incoming {inc.name}"
                    )

    if check_ssa:
        _check_dominance(function, errors)

    if errors:
        raise VerificationError(
            f"IR verification failed for {function.name}:\n  " + "\n  ".join(errors)
        )


def _check_dominance(function: Function, errors: List[str]) -> None:
    """Every use must be dominated by its definition (SSA property)."""
    dt = dominator_tree(function)
    def_block = {}
    for inst in function.instructions():
        def_block[inst] = inst.parent
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, Phi):
                for inc_block, value in inst.incoming.items():
                    if isinstance(value, Instruction):
                        if not dt.dominates(def_block[value], inc_block):
                            errors.append(
                                f"{block.name}: phi operand {value.short()} does "
                                f"not dominate incoming edge from {inc_block.name}"
                            )
                continue
            for op in inst.operands:
                if isinstance(op, Instruction):
                    dblock = def_block.get(op)
                    if dblock is None:
                        errors.append(
                            f"{block.name}: use of detached value {op.short()}"
                        )
                    elif dblock is block:
                        if block.instructions.index(op) > block.instructions.index(
                            inst
                        ):
                            errors.append(
                                f"{block.name}: {op.short()} used before defined"
                            )
                    elif not dt.dominates(dblock, block):
                        errors.append(
                            f"{block.name}: def of {op.short()} in {dblock.name} "
                            f"does not dominate use"
                        )
                elif not isinstance(
                    op, (Constant, GlobalVariable, Argument, UndefValue, Value)
                ):
                    errors.append(f"{block.name}: non-value operand {op!r}")


def verify_module(module: Module, check_ssa: bool = True) -> None:
    for func in module.defined_functions():
        verify_function(func, check_ssa=check_ssa)
