"""Pointer rules P1–P3 on shared-memory pointers (§3.2).

- **P1** — shared memory cannot be deallocated until the end of
  ``main``: no ``shmdt``/``shmctl`` on a shared pointer except at a
  point in ``main`` after which no shared-memory access can execute.
- **P2** — no aliasing of shared-memory pointers through memory: a
  shared pointer may live only in SSA registers and in the designated
  global pointer variables assigned by the initializing function;
  taking the address of such a variable, or storing a shared pointer
  into any other memory, is a violation.
- **P3** — no casts of shared-memory pointers to incompatible pointer
  types and no pointer-to-integer casts (initializing functions are
  exempt — that is exactly why ``shminit`` exists, §3.2.1).
"""

from __future__ import annotations

from typing import List, Set

from ..frontend.parser import SHM_DEALLOCATORS
from ..ir import (
    Call,
    Cast,
    Function,
    Instruction,
    Load,
    Store,
    pointer_compatible,
)
from ..ir.values import GlobalVariable
from ..reporting.diagnostics import RestrictionViolation, Severity
from ..shm.propagation import ShmAnalysis


def _violation(rule: str, message: str, inst: Instruction,
               func: Function) -> RestrictionViolation:
    return RestrictionViolation(
        message=f"{rule}: {message}",
        location=inst.location,
        function=func.name,
        severity=Severity.VIOLATION,
        rule=rule,
    )


def accesses_shm(shm: ShmAnalysis, func: Function) -> bool:
    """Does ``func`` itself load or store through a shared pointer?"""
    for inst in func.instructions():
        if isinstance(inst, (Load, Store)) and shm.is_shm_pointer(
                func, inst.pointer):
            return True
    return False


def accessor_closure(shm: ShmAnalysis, direct: Set[Function]) -> Set[Function]:
    """``direct`` and every function that can call into it."""
    accessors = set(direct)
    work = list(direct)
    while work:
        for caller in shm.callgraph.callers(work.pop()):
            if caller not in accessors:
                accessors.add(caller)
                work.append(caller)
    return accessors


def shm_accessing_functions(shm: ShmAnalysis) -> Set[Function]:
    """Functions that (transitively) read or write shared memory."""
    return accessor_closure(shm, {
        func for func in shm.module.defined_functions()
        if accesses_shm(shm, func)})


def check_p1(shm: ShmAnalysis) -> List[RestrictionViolation]:
    accessors = shm_accessing_functions(shm)
    return [v for func in shm.module.defined_functions()
            for v in p1_in(shm, func, accessors)]


def p1_in(shm: ShmAnalysis, func: Function,
          accessors: Set[Function]) -> List[RestrictionViolation]:
    """P1 violations in ``func``; ``accessors`` is read only for
    ``main``."""
    violations: List[RestrictionViolation] = []
    for block in func.blocks:
        for idx, inst in enumerate(block.instructions):
            if not isinstance(inst, Call):
                continue
            name = inst.callee_name
            if name not in SHM_DEALLOCATORS:
                continue
            if name == "shmdt" and inst.operands and not shm.is_shm_pointer(
                func, inst.operands[0]
            ):
                # detaching a non-shared pointer is someone else's bug
                continue
            if func.name != "main":
                violations.append(
                    _violation(
                        "P1",
                        f"shared memory deallocated by {name} outside "
                        f"main",
                        inst,
                        func,
                    )
                )
                continue
            if _shm_use_after(func, block, idx, shm, accessors):
                violations.append(
                    _violation(
                        "P1",
                        f"shared memory deallocated by {name} before "
                        f"the end of main (shared memory is still "
                        f"accessed afterwards)",
                        inst,
                        func,
                    )
                )
    return violations


def _shm_use_after(func: Function, block, idx: int, shm: ShmAnalysis,
                   accessors: Set[Function]) -> bool:
    """Is any shared-memory access reachable after instruction idx?"""

    def uses_shm(inst: Instruction) -> bool:
        if isinstance(inst, (Load, Store)) and shm.is_shm_pointer(
            func, inst.pointer
        ):
            return True
        if isinstance(inst, Call):
            name = inst.callee_name
            if name in SHM_DEALLOCATORS:
                return False
            if isinstance(inst.callee, Function) and inst.callee in accessors:
                return True
        return False

    for later in block.instructions[idx + 1:]:
        if uses_shm(later):
            return True
    seen = set()
    work = list(block.successors())
    while work:
        succ = work.pop()
        if succ in seen:
            continue
        seen.add(succ)
        for inst in succ.instructions:
            if uses_shm(inst):
                return True
        work.extend(succ.successors())
    return False


def check_p2(shm: ShmAnalysis) -> List[RestrictionViolation]:
    return [v for func in shm.module.defined_functions()
            for v in p2_in(shm, func)]


def p2_in(shm: ShmAnalysis, func: Function) -> List[RestrictionViolation]:
    violations: List[RestrictionViolation] = []
    exempt = func.name in shm.init_functions
    for inst in func.instructions():
        # (a) storing a shared pointer into memory
        if isinstance(inst, Store) and not exempt:
            if shm.regions_of(func, inst.value):
                violations.append(
                    _violation(
                        "P2",
                        "shared-memory pointer stored into memory "
                        "(aliasing through memory locations is "
                        "disallowed)",
                        inst,
                        func,
                    )
                )
        # (b) taking the address of a designated shared pointer
        # variable: the global appears as a plain value operand
        for opi, op in enumerate(inst.operands):
            if not isinstance(op, GlobalVariable) or op.name not in shm.regions:
                continue
            if isinstance(inst, Load) and inst.pointer is op:
                continue
            if isinstance(inst, Store) and opi == 1 and inst.pointer is op:
                continue
            violations.append(
                _violation(
                    "P2",
                    f"address of shared-memory pointer variable "
                    f"{op.name} is taken",
                    inst,
                    func,
                )
            )
    return violations


def check_p3(shm: ShmAnalysis) -> List[RestrictionViolation]:
    return [v for func in shm.module.defined_functions()
            for v in p3_in(shm, func)]


def p3_in(shm: ShmAnalysis, func: Function) -> List[RestrictionViolation]:
    violations: List[RestrictionViolation] = []
    if func.name in shm.init_functions:
        return violations  # shminit exemption (§3.2.1)
    for inst in func.instructions():
        if not isinstance(inst, Cast):
            continue
        if not shm.regions_of(func, inst.source):
            continue
        if inst.kind == "ptrtoint":
            violations.append(
                _violation(
                    "P3",
                    "shared-memory pointer cast to an integer",
                    inst,
                    func,
                )
            )
        elif inst.kind == "bitcast" and not pointer_compatible(
            inst.source.type, inst.type
        ):
            violations.append(
                _violation(
                    "P3",
                    f"shared-memory pointer cast between incompatible "
                    f"types ({inst.source.type!r} to {inst.type!r})",
                    inst,
                    func,
                )
            )
    return violations
