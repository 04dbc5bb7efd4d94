"""The object-domain body analysis: the compiled kernel's oracle.

:class:`ObjectKernel` runs every (function, context) body instruction
by instruction over hash-consed :class:`Taint` objects, re-deriving on
each pass what the compiled kernel hoists into its one-time compile
step: transfer kinds, shared-memory regions, points-to cells and the
branch conditions a block is control dependent on. It shares nothing
with :mod:`repro.valueflow.kernel` and :mod:`repro.valueflow.bitdomain`
except the engine plumbing both report through (cell map, call
dispatch, warnings, critical checks, graph edges) and the object-domain
transfers of the calls the compiled kernel delegates
(``_generic_transfer``), so every report must come out byte-identical.
"""

from repro.ir import (
    ASSERT_SAFE_MARKER,
    Argument,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBranch,
    Constant,
    FieldAddr,
    Function,
    IndexAddr,
    Load,
    Phi,
    Ret,
    Store,
    UnaryOp,
    UndefValue,
    control_dependence,
)
from repro.ir.values import GlobalVariable
from repro.valueflow.engine import (
    IMPLICIT_CRITICAL_CALLS,
    ValueFlowAnalysis,
)
from repro.valueflow.kernel import _MAX_LOCAL_PASSES
from repro.valueflow.taint import SAFE, Taint, join_all
from repro.valueflow.vfg import VFGNode


class _NoKernel:
    """Stands in for the compiled kernel: it runs nothing, so it
    publishes no counters."""

    @staticmethod
    def publish_counters(counters):
        pass


class ObjectKernel(ValueFlowAnalysis):
    """:class:`ValueFlowAnalysis` with the object-domain body."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._kernel = _NoKernel()

    def _analyze_body(self, func, ctx, arg_taints):
        taints = {}
        deps = control_dependence(func)

        def vt(value):
            if isinstance(value, Argument):
                if value.index < len(arg_taints):
                    return arg_taints[value.index]
                return SAFE
            if isinstance(value, (Constant, UndefValue, GlobalVariable,
                                  Function)):
                return SAFE
            return taints.get(value, SAFE)

        for _ in range(_MAX_LOCAL_PASSES):
            changed = False
            for block in func.blocks:
                block_ctl, _ = self._block_control(block, deps, vt)
                phi_ctl, phi_conds = self._phi_control(block, deps, vt)
                for inst in block.instructions:
                    if isinstance(inst, Phi):
                        new = self._transfer(func, inst, ctx, vt, phi_ctl)
                        if new and phi_ctl:
                            for cond in phi_conds:
                                self._edge_value(func, cond, inst, "control")
                    else:
                        new = self._transfer(func, inst, ctx, vt, block_ctl)
                    if new is None:
                        continue
                    if taints.get(inst, SAFE) != new:
                        taints[inst] = new
                        changed = True
            if not changed:
                break

        ret_taint = SAFE
        ret_node = VFGNode("value", f"return of {func.name}", "")
        for block in func.blocks:
            term = block.terminator
            if isinstance(term, Ret) and term.value is not None:
                # which return executes is decided by the branches this
                # block is control dependent on: the summary carries
                # their taint as control provenance (this is how the
                # paper's decision() example becomes unsafe, §3.3)
                block_ctl, controllers = self._block_control(block, deps, vt)
                if vt(term.value):
                    self.vfg.add_edge(
                        self._value_node(func, term.value), ret_node, "data"
                    )
                for cond in controllers:
                    self.vfg.add_edge(
                        self._value_node(func, cond), ret_node, "control"
                    )
                ret_taint = ret_taint.join(vt(term.value)).join(block_ctl)
        return ret_taint

    def _phi_control(self, block, deps, vt):
        """Control taint governing *which incoming value* a phi selects.

        The merge block itself executes unconditionally, so its own
        control dependence is not enough: the selection is decided by
        the branches its predecessors are control dependent on, plus
        any predecessor that itself ends in a conditional branch.
        """
        if not self.config.track_control_dependence:
            return SAFE, []
        result = SAFE
        controllers = []
        for pred in block.predecessors():
            pred_ctl, pred_conds = self._block_control(pred, deps, vt)
            result = result.join(pred_ctl)
            controllers.extend(pred_conds)
            term = pred.terminator
            if isinstance(term, CondBranch):
                cond_taint = vt(term.condition)
                if cond_taint:
                    controllers.append(term.condition)
                result = result.join(cond_taint.as_control())
        return result, controllers

    def _block_control(self, block, deps, vt):
        """Control taint of a block plus the tainted branch conditions."""
        if not self.config.track_control_dependence:
            return SAFE, []
        result = SAFE
        controllers = []
        for controller in deps.get(block, ()):
            term = controller.terminator
            if isinstance(term, CondBranch):
                cond_taint = vt(term.condition)
                if cond_taint:
                    controllers.append(term.condition)
                result = result.join(cond_taint.as_control())
        return result, controllers

    # ------------------------------------------------------------------
    # transfer functions
    # ------------------------------------------------------------------

    def _transfer(self, func, inst, ctx, vt, block_ctl):
        if isinstance(inst, Load):
            return self._transfer_load(func, inst, ctx, vt, block_ctl)
        if isinstance(inst, Store):
            self._transfer_store(func, inst, vt, block_ctl)
            return None
        if isinstance(inst, (BinOp, UnaryOp, Cmp, Cast, FieldAddr, IndexAddr)):
            taint = join_all(vt(op) for op in inst.operands)
            if taint:
                for op in inst.operands:
                    if vt(op):
                        self._edge_value(func, op, inst, "data")
            return taint
        if isinstance(inst, Phi):
            taint = join_all(vt(v) for v in inst.incoming.values())
            if block_ctl:
                taint = taint.join(block_ctl)
            if taint:
                for value in inst.incoming.values():
                    if vt(value):
                        self._edge_value(func, value, inst, "data")
            return taint
        if isinstance(inst, Call):
            return self._transfer_call(func, inst, ctx, vt, block_ctl)
        return None

    def _transfer_load(self, func, inst, ctx, vt, block_ctl):
        regions = self.shm.regions_of(func, inst.pointer)
        if regions:
            unmonitored = [
                name for name in regions
                if self.shm.regions[name].noncore and name not in ctx
            ]
            if unmonitored:
                sources = set()
                for name in unmonitored:
                    source = self._record_warning(func, inst, name)
                    sources.add(source)
                    self._edge_source(source, func, inst)
                return Taint(data=frozenset(sources)).join(block_ctl)
            # all regions are core or assumed core in this context
            core_regions = [
                name for name in regions if not self.shm.regions[name].noncore
            ]
            if core_regions:
                # core shared memory behaves like ordinary memory: taint
                # written by the core component flows back out of it
                cell = self.points_to.target_of(inst.pointer)
                stored = self.cell_taint.get(cell, SAFE) if cell else SAFE
                if stored:
                    self._edge_cell(cell, func, inst)
                return stored.join(block_ctl)
            return block_ctl  # monitored non-core read: safe (§2)
        ptr_taint = vt(inst.pointer)
        cell = self.points_to.target_of(inst.pointer)
        if cell is None:
            stored = SAFE
        elif inst.type.is_aggregate:
            # a struct/array copy reads every field: join field taints
            stored = self._deep_cell_taint(cell)
        else:
            stored = self.cell_taint.get(cell, SAFE)
        if stored and cell is not None:
            self._edge_cell(cell, func, inst)
        return stored.join(ptr_taint).join(block_ctl)

    def _deep_cell_taint(self, cell):
        result = SAFE
        for member in self._field_cells(cell):
            result = result.join(self.cell_taint.get(member, SAFE))
        return result

    def _transfer_store(self, func, inst, vt, block_ctl):
        regions = self.shm.regions_of(func, inst.pointer)
        taint = vt(inst.value).join(block_ctl.as_control())
        if regions:
            noncore = [n for n in regions if self.shm.regions[n].noncore]
            if noncore and len(noncore) == len(regions):
                # write to non-core shm: does not change core/noncore (§2)
                return
        taint = self.strip_placeholders(taint)
        if not taint:
            return
        cell = self.points_to.target_of(inst.pointer)
        if cell is None:
            return
        # an aggregate store overwrites every field; fan the (joined)
        # taint out so later per-field loads observe it
        targets = (list(self._field_cells(cell))
                   if inst.value.type.is_aggregate else [cell])
        for target in targets:
            old = self.cell_taint.get(target, SAFE)
            new = old.join(taint)
            if new != old:
                self.cell_taint[target] = new
            elif self.summary_store is not None:
                self._note_elided_write(target, new)
        if vt(inst.value):
            self._edge_value_to_cell(func, inst.value, cell)

    def _transfer_call(self, func, inst, ctx, vt, block_ctl):
        name = inst.callee_name
        if name == ASSERT_SAFE_MARKER:
            if inst.operands:
                self._check_critical(func, inst, vt(inst.operands[0]),
                                     self._assert_variable(inst))
            return SAFE
        if name in IMPLICIT_CRITICAL_CALLS:
            for index in IMPLICIT_CRITICAL_CALLS[name]:
                if index < len(inst.operands):
                    self._check_critical(
                        func, inst, vt(inst.operands[index]),
                        f"{name}() argument {index}",
                    )
            return SAFE
        transfer = self._generic_transfer(inst)
        if transfer is not None:
            return transfer(func, inst, ctx, vt, block_ctl)

        targets = []
        if isinstance(inst.callee, Function) and not inst.callee.is_declaration:
            targets = [inst.callee]
        else:
            for site in self.shm.callgraph.sites_in(func):
                if site.call is inst:
                    targets = list(site.targets)
                    break
        if targets:
            result = SAFE
            args = tuple(vt(op) for op in inst.operands)
            for target in targets:
                padded = tuple(
                    args[i] if i < len(args) else SAFE
                    for i in range(len(target.arguments))
                )
                # provenance: tainted actuals flow into the callee's
                # formals (needed for cross-function witness paths)
                for i, op in enumerate(inst.operands):
                    if i < len(target.arguments) and args[i]:
                        self.vfg.add_edge(
                            self._value_node(func, op),
                            self._value_node(target, target.arguments[i]),
                            "data",
                        )
                child = self._dispatch_call(target, ctx, padded)
                result = result.join(child)
            if result:
                callee = inst.callee_name or "<indirect>"
                node = VFGNode("value", f"return of {callee}", "")
                self.vfg.add_edge(node, self._value_node(func, inst), "data")
            return result.join(block_ctl)
        # unknown external: the result may depend on its arguments and
        # on anything reachable through its pointer arguments
        result = join_all(vt(op) for op in inst.operands)
        for op in inst.operands:
            if vt(op):
                self._edge_value(func, op, inst, "data")
            if op.type.is_pointer:
                cell = self.points_to.target_of(op)
                if cell is not None:
                    stored = self.cell_taint.get(cell, SAFE)
                    if stored:
                        self._edge_cell(cell, func, inst)
                    result = result.join(stored)
        return result.join(block_ctl)
