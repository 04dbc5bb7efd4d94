"""Array rules A1/A2 for arrays in shared memory (§3.2).

Every indexed access into a shared region must be provably in bounds:

- **A1** — constant indices must satisfy ``0 <= i < N``;
- **A2** — loop-varying indices must be affine in the loop induction
  variables, the loop bounds must themselves be affine, and the
  resulting constraint system must make out-of-bounds infeasible.
  Indices depending on symbolic values the analysis cannot bound are
  conservatively rejected (A2(c)).

Constraint systems go to the Fourier–Motzkin feasibility checker in
:mod:`repro.restrictions.solver` (the Omega substitute).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Set

from ..errors import SolverError
from ..ir import (
    ArrayType,
    Constant,
    Function,
    IndexAddr,
    Phi,
    PointerType,
    Value,
)
from ..reporting.diagnostics import RestrictionViolation, Severity
from ..shm.propagation import ShmAnalysis
from .affine import (
    AffineExpr,
    InductionInfo,
    LoopBound,
    affine_of,
    induction_info,
    loop_bounds_for,
)
from .solver import Constraint, can_violate_bounds


def check_arrays(shm: ShmAnalysis) -> List[RestrictionViolation]:
    return [v for func in shm.module.defined_functions()
            for v in arrays_in(shm, func)]


def arrays_in(shm: ShmAnalysis, func: Function) -> List[RestrictionViolation]:
    violations: List[RestrictionViolation] = []
    if func.name in shm.init_functions:
        return violations  # init layout is checked separately (InitCheck)
    for inst in func.instructions():
        if not isinstance(inst, IndexAddr):
            continue
        regions = shm.regions_of(func, inst.pointer)
        if not regions:
            continue
        bound = _bound_for(inst, regions, shm)
        if bound is None:
            continue  # scalar region; offset-0 decay only
        message = _check_access(func, inst, bound)
        if message is not None:
            rule = "A1" if isinstance(inst.index, Constant) else "A2"
            violations.append(
                RestrictionViolation(
                    message=f"{rule}: {message} "
                    f"(shared array {'/'.join(sorted(regions))}, "
                    f"bound {bound})",
                    location=inst.location,
                    function=func.name,
                    severity=Severity.VIOLATION,
                    rule=rule,
                )
            )
    return violations


def _bound_for(inst: IndexAddr, regions, shm: ShmAnalysis) -> Optional[int]:
    """Number of valid elements for this access, or None for unchecked."""
    ptype = inst.pointer.type
    assert isinstance(ptype, PointerType)
    if isinstance(ptype.pointee, ArrayType) and ptype.pointee.count is not None:
        return ptype.pointee.count
    # top-level region access: bound = size / sizeof(element)
    counts = [shm.region(name).element_count for name in regions]
    bound = min(counts) if counts else None
    if bound == 1:
        # scalar shared variable: only the implicit &r[0] decay is legal
        if isinstance(inst.index, Constant) and inst.index.value == 0:
            return None
        return 1
    return bound


def _check_access(func: Function, inst: IndexAddr,
                  bound: int) -> Optional[str]:
    index = inst.index
    if isinstance(index, Constant):
        if isinstance(index.value, int) and 0 <= index.value < bound:
            return None
        return f"constant index {index.value} out of bounds"

    expr = affine_of(index)
    if expr is None:
        return "index expression is not affine"

    constraints: List[Constraint] = []
    bounded: Set[Value] = set()
    pending = list(expr.leaves())
    seen: Set[Value] = set()
    while pending:
        leaf = pending.pop()
        if leaf in seen:
            continue
        seen.add(leaf)
        if not isinstance(leaf, Phi):
            return (
                f"index depends on symbolic value {leaf.short()} that the "
                f"analysis cannot bound"
            )
        info = induction_info(leaf)
        if info is None:
            return (
                f"{leaf.short()} is not a recognizable affine induction "
                f"variable"
            )
        guards = loop_bounds_for(func, leaf)
        added = _induction_constraints(info, guards, constraints, pending)
        if added is None:
            return (
                f"loop bounds for {leaf.short()} are not provably affine"
            )
        bounded.add(leaf)

    try:
        if can_violate_bounds(expr.coeffs, expr.const, bound, constraints):
            return "index may leave the array bounds"
    except SolverError as exc:
        return f"bounds system unsolvable ({exc})"
    return None


def _induction_constraints(
    info: InductionInfo,
    guards: List[LoopBound],
    constraints: List[Constraint],
    pending: List[Value],
) -> Optional[bool]:
    """Add init/guard constraints for one induction variable.

    Returns None when the loop shape cannot be bounded (A2 violation);
    new leaves appearing in bounds are queued on ``pending``.
    """
    phi = info.phi
    if info.step > 0:
        # phi >= init
        coeffs = {phi: Fraction(1)}
        for v, c in info.init.coeffs.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) - c
            pending.append(v)
        constraints.append(Constraint.ge_zero(coeffs, -info.init.const))
    elif info.step < 0:
        # phi <= init
        coeffs = {phi: Fraction(-1)}
        for v, c in info.init.coeffs.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + c
            pending.append(v)
        constraints.append(Constraint.ge_zero(coeffs, info.init.const))
    else:
        return None

    usable = False
    for guard in guards:
        expr = guard.bound
        for v in expr.leaves():
            pending.append(v)
        if guard.op in ("<", "<=") and info.step > 0:
            # phi <= bound - adj
            adj = Fraction(1) if guard.op == "<" else Fraction(0)
            coeffs = {phi: Fraction(-1)}
            for v, c in expr.coeffs.items():
                coeffs[v] = coeffs.get(v, Fraction(0)) + c
            constraints.append(Constraint.ge_zero(coeffs, expr.const - adj))
            usable = True
        elif guard.op in (">", ">=") and info.step < 0:
            adj = Fraction(1) if guard.op == ">" else Fraction(0)
            coeffs = {phi: Fraction(1)}
            for v, c in expr.coeffs.items():
                coeffs[v] = coeffs.get(v, Fraction(0)) - c
            constraints.append(Constraint.ge_zero(coeffs, -expr.const - adj))
            usable = True
    if not usable:
        return None
    return True
