"""Unification-based, field-sensitive points-to analysis.

This is the Data Structure Analysis substitute: the SafeFlow paper uses
DSA [15] only to know *which memory cells a value may reach*, so taint
stored through one name is observed through another. A Steensgaard-
style unification analysis with field cells gives the same conservative
reachability at a fraction of the complexity:

- every ``alloca``/global/``malloc`` gets a cell;
- ``p->f`` / ``p[i]`` navigate field cells (arrays collapse to one
  element cell — the paper's whole-array granularity);
- a store of pointer ``q`` through ``p`` unifies ``pts(p).pointee``
  with ``pts(q)``;
- call argument/return bindings unify caller and callee cells, which
  makes out-parameter writes visible across functions.

Every constraint is an equality that the union-find keeps once made:
a later union merges pointee and field cells too, so it cannot undo
an earlier one. One pass over the program is therefore complete — a
second adds no union (``tests/test_pointer.py`` checks this over the
corpus, the benchmark rungs and the examples).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..callgraph import CallGraph
from ..ir import (
    Alloca,
    Argument,
    ArrayType,
    Call,
    Cast,
    FieldAddr,
    Function,
    IndexAddr,
    Instruction,
    Load,
    Module,
    Phi,
    PointerType,
    Ret,
    Store,
    Value,
)
from ..ir.values import Constant, GlobalVariable, UndefValue
from .cells import Cell

#: external allocators returning fresh memory
ALLOCATORS = frozenset({"malloc", "calloc", "shmat"})

#: externals that copy bytes from arg1's cell into arg0's cell
COPYING_EXTERNALS = frozenset({"memcpy", "strcpy", "strncpy", "memmove"})

#: the instructions :meth:`PointsToAnalysis._transfer` reads
_TRANSFERRED = (Alloca, FieldAddr, IndexAddr, Cast, Load, Store, Phi, Call,
                Ret)
#: instruction class → whether it is one of ``_TRANSFERRED``: most
#: instructions are arithmetic, and one lookup skips them
_IS_TRANSFERRED: Dict[type, bool] = {}


class PointsToAnalysis:
    """Whole-program points-to; query with :meth:`target_of`."""

    def __init__(self, module: Module, callgraph: Optional[CallGraph] = None):
        self.module = module
        self.callgraph = callgraph or CallGraph(module)
        #: pointer value → cell it points at
        self._points: Dict[Value, Cell] = {}
        #: storage cell of each global / alloca / argument slot
        self._var_cells: Dict[object, Cell] = {}
        self._ret_cells: Dict[Function, Cell] = {}
        self._unions = 0

    # ------------------------------------------------------------------

    def run(self) -> "PointsToAnalysis":
        for gv in self.module.globals.values():
            self._var_cells[gv] = Cell(f"@{gv.name}")
        for func in self.module.defined_functions():
            self._transfer_function(func)
        return self

    # ------------------------------------------------------------------

    def named_roots(self):
        """Deterministic ``(name, cell)`` pairs covering every cell the
        analysis created, for process-independent cell identification
        (:class:`repro.perf.CellNamer`). Cells ``id``s are assigned from
        a process-local counter, so anything persisted across runs must
        go through these structural names instead.

        Instruction-bound cells are named by the instruction's
        (function, block index, instruction index) position, which is
        stable for a fixed program; globals, arguments and return slots
        carry their declared names.
        """
        roots = []
        for name in sorted(self.module.globals):
            cell = self._var_cells.get(self.module.globals[name])
            if cell is not None:
                roots.append((f"@{name}", cell))
        positions: Dict[Value, str] = {}
        for func in self.module.defined_functions():
            for bi, block in enumerate(func.blocks):
                for ii, inst in enumerate(block.instructions):
                    positions[inst] = f"v:{func.name}:{bi}.{ii}"
        for value, cell in self._points.items():
            if isinstance(value, Argument):
                owner = value.function.name if value.function else "?"
                roots.append((f"arg:{owner}.{value.index}", cell))
            elif value in positions:
                roots.append((positions[value], cell))
        for func, cell in self._ret_cells.items():
            roots.append((f"ret:{func.name}", cell))
        return sorted(roots, key=lambda pair: pair[0])

    def target_of(self, value: Value) -> Optional[Cell]:
        """Cell a pointer value points at (None for non-pointers)."""
        if isinstance(value, GlobalVariable):
            return self._var_cells.setdefault(value, Cell(f"@{value.name}")).find()
        cell = self._points.get(value)
        return cell.find() if cell is not None else None

    def _ensure(self, value: Value, label: str = "") -> Cell:
        cell = self._points.get(value)
        if cell is None:
            cell = Cell(label or value.short())
            self._points[value] = cell
        return cell.find()

    def _unify(self, a: Cell, b: Cell) -> None:
        if a.find() is not b.find():
            self._unions += 1
        a.unify(b)

    def _bind(self, value: Value, cell: Cell) -> None:
        existing = self._points.get(value)
        if existing is None:
            self._points[value] = cell
            self._unions += 1
        else:
            self._unify(existing, cell)

    # ------------------------------------------------------------------

    def _transfer_function(self, func: Function) -> None:
        transferred = _IS_TRANSFERRED
        for block in func.blocks:
            for inst in block.instructions:
                kind = type(inst)
                relevant = transferred.get(kind)
                if relevant is None:
                    relevant = transferred[kind] = issubclass(
                        kind, _TRANSFERRED)
                if relevant:
                    self._transfer(func, inst)

    def _transfer(self, func: Function, inst: Instruction) -> None:
        if isinstance(inst, Alloca):
            cell = self._var_cells.get(inst)
            if cell is None:
                cell = Cell(f"{func.name}.{inst.name}")
                self._var_cells[inst] = cell
            self._bind(inst, cell.find())
        elif isinstance(inst, FieldAddr):
            base = self._target_of_operand(inst.pointer)
            self._bind(inst, base.field(inst.field_name))
        elif isinstance(inst, IndexAddr):
            base = self._target_of_operand(inst.pointer)
            ptype = inst.pointer.type
            if isinstance(ptype, PointerType) and isinstance(
                ptype.pointee, ArrayType
            ):
                self._bind(inst, base.field("[]"))
            else:
                self._bind(inst, base)  # pointer arithmetic stays in cell
        elif isinstance(inst, Cast):
            if inst.type.is_pointer:
                self._bind(inst, self._target_of_operand(inst.source))
        elif isinstance(inst, Load):
            if inst.type.is_pointer:
                cell = self._target_of_operand(inst.pointer)
                self._bind(inst, cell.pointee())
        elif isinstance(inst, Store):
            if inst.value.type.is_pointer and not isinstance(
                inst.value, Constant
            ):
                target = self._target_of_operand(inst.pointer)
                source = self._target_of_operand(inst.value)
                self._unify(target.pointee(), source)
        elif isinstance(inst, Phi):
            if inst.type.is_pointer:
                for value in inst.incoming.values():
                    if isinstance(value, (Constant, UndefValue)):
                        continue
                    self._bind(inst, self._target_of_operand(value))
        elif isinstance(inst, Call):
            self._transfer_call(func, inst)
        elif isinstance(inst, Ret):
            if inst.value is not None and inst.value.type.is_pointer and \
                    not isinstance(inst.value, Constant):
                cell = self._ret_cells.setdefault(func, Cell(f"{func.name}.ret"))
                self._unify(cell, self._target_of_operand(inst.value))

    def _target_of_operand(self, value: Value) -> Cell:
        if isinstance(value, GlobalVariable):
            cell = self._var_cells.get(value)
            if cell is None:
                cell = Cell(f"@{value.name}")
                self._var_cells[value] = cell
            return cell.find()
        if isinstance(value, Argument):
            return self._ensure(value, f"arg.{value.name}")
        return self._ensure(value)

    def _transfer_call(self, func: Function, inst: Call) -> None:
        name = inst.callee_name
        targets = []
        if isinstance(inst.callee, Function) and not inst.callee.is_declaration:
            targets = [inst.callee]
        if targets:
            for target in targets:
                for i, actual in enumerate(inst.operands):
                    if i >= len(target.arguments):
                        break
                    if actual.type.is_pointer and not isinstance(
                        actual, Constant
                    ):
                        formal = target.arguments[i]
                        self._bind(formal, self._target_of_operand(actual))
                        # keep both directions in sync
                        self._bind(actual, self._target_of_operand(formal))
                if inst.type.is_pointer:
                    cell = self._ret_cells.setdefault(
                        target, Cell(f"{target.name}.ret")
                    )
                    self._bind(inst, cell.find())
            return
        # external calls
        if name in ALLOCATORS:
            if inst.type.is_pointer:
                self._bind(inst, self._ensure(inst, f"heap.{name}"))
            return
        if name in COPYING_EXTERNALS and len(inst.operands) >= 2:
            dest = inst.operands[0]
            if inst.type.is_pointer and not isinstance(dest, Constant):
                self._bind(inst, self._target_of_operand(dest))
            return
        if inst.type.is_pointer:
            self._ensure(inst, f"ext.{name or 'indirect'}")
