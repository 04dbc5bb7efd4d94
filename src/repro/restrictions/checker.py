"""Top-level driver for the phase-2 restriction checks."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.config import AnalysisConfig
from ..frontend.driver import Program
from ..ir import Function
from ..reporting.diagnostics import RestrictionViolation, sort_key
from ..shm.propagation import ShmAnalysis
from .array_rules import arrays_in
from .pointer_rules import accessor_closure, accesses_shm, p1_in, p2_in, p3_in


class RestrictionFindings:
    """Phase 2's findings, per function.

    Every rule but ``main``'s P1 check reads one function's body and
    shm facts, so the incremental session keeps these across in-place
    edits: :meth:`update` checks again only the functions whose body or
    facts the last :meth:`ShmAnalysis.run` moved, and ``main`` when the
    set of functions that reach a shared-memory access moved too.
    """

    def __init__(self):
        self._by_function: Dict[Function, List[RestrictionViolation]] = {}
        #: functions that load or store through a shared pointer
        self._direct: Set[Function] = set()
        #: ``_direct`` and every function that can call into it;
        #: ``None`` until a first update checked every function
        self._accessors: Optional[Set[Function]] = None

    def update(self, shm: ShmAnalysis) -> List[RestrictionViolation]:
        """The findings for ``shm``'s facts, sorted."""
        moved = shm.moved
        functions = list(shm.module.defined_functions())
        if moved is None or self._accessors is None:
            self._by_function, self._direct = {}, set()
            todo = functions
        else:
            todo = [f for f in functions if f in moved]
        for func in todo:
            if accesses_shm(shm, func):
                self._direct.add(func)
            else:
                self._direct.discard(func)
        accessors = accessor_closure(shm, self._direct)
        main = shm.module.get_function("main")
        if main is not None and not main.is_declaration \
                and main not in todo and accessors != self._accessors:
            todo.append(main)
        self._accessors = accessors
        for func in todo:
            self._by_function[func] = (
                p1_in(shm, func, accessors) + p2_in(shm, func)
                + p3_in(shm, func) + arrays_in(shm, func))
        # the sort is stable, and findings that tie on its key share one
        # rule and one function, so they stay in instruction order
        return sorted((v for func in functions
                       for v in self._by_function[func]), key=sort_key)


def check_restrictions(
    program: Program, shm: ShmAnalysis, config: AnalysisConfig,
    findings: Optional[RestrictionFindings] = None,
) -> List[RestrictionViolation]:
    """Run P1–P3 and A1/A2 over the program; returns sorted violations.
    ``findings`` is the incremental session's kept
    :class:`RestrictionFindings` (a fresh one checks every function)."""
    return (findings or RestrictionFindings()).update(shm)
