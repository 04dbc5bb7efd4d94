"""Compiled value-flow kernels: flat opcode programs over bitset taints.

A body analysis that walks the IR re-discovers, on every pass over
every instruction, facts that never change during a body run: the
instruction's transfer kind, its shared-memory regions, its points-to
cell, the branch conditions its block is control-dependent on, and the
value-flow-graph nodes its effects touch. This module hoists all of
that into a one-time *compile* step: each (function, effective
context) pair is lowered to a flat tuple of opcode tuples per basic
block (see :mod:`repro.valueflow.opcodes` for the codes), and one tight
interpreter loop runs the local fixpoint over ``list``-indexed integer
bitsets (:mod:`repro.valueflow.bitdomain`) instead of hash-consed
:class:`Taint` objects in a dict. It is the only body analysis the
engine runs; the object-domain reference implementation it must agree
with lives with the differential tests (``tests/oracles``).

Everything observable goes through the engine:

- memory-cell reads/writes go through the engine's hooked cell map, so
  sparse-fixpoint read dependencies and summary recorders fire on
  every access;
- call dispatch delegates to ``engine._dispatch_call`` with taints
  decoded back to interned objects, so memoization keys, context
  budgets and summary records are keyed on the lattice, not on bits;
- warnings, critical-dependency failures and VFG edges are emitted
  through the same engine plumbing; taint-conditional edges are
  emitted once per body run (the graph dedupes, so re-adding them
  every pass would change nothing). Edge *nodes* are resolved lazily
  at emission time — compilation stores IR values, and
  ``engine._value_node`` (memoized) renders them only when a tainted
  fact actually flows;
- rare transfer paths (byte-copy builtins, ``recv``, degraded callees)
  compile to :data:`~repro.valueflow.opcodes.OP_GENERIC`, which hands
  the single instruction to the engine's object-domain transfer
  (``engine._generic_transfer``) through a slot-reading ``vt`` shim.

The bitset interner is uncapped, so every body compiles and runs here;
there is no fallback path.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..ir import (
    ASSERT_SAFE_MARKER,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBranch,
    Function,
    IndexAddr,
    FieldAddr,
    Load,
    Phi,
    Ret,
    Store,
    UnaryOp,
    control_dependence,
)
from .bitdomain import PLACEHOLDER_PREFIX, RegionInterner
from .engine import IMPLICIT_CRITICAL_CALLS
from .opcodes import (
    OP_ASSERT,
    OP_CALL_DIRECT,
    OP_CALL_EXTERNAL,
    OP_CRITICAL,
    OP_GENERIC,
    OP_JOIN,
    OP_LOAD_CORE,
    OP_LOAD_CTL,
    OP_LOAD_PLAIN,
    OP_LOAD_UNMON,
    OP_PHI,
    OP_STORE,
    OPCODE_NAMES,
)
from .taint import SAFE, Taint, TaintSource
from .vfg import VFGNode

#: join-like instruction kinds lowered to :data:`OP_JOIN`
_JOIN_KINDS = (BinOp, UnaryOp, Cmp, Cast, FieldAddr, IndexAddr)

#: bound on the passes of one body's local fixpoint
_MAX_LOCAL_PASSES = 64


class _BlockProgram:
    """One basic block, compiled."""

    __slots__ = ("ctl_slots", "phi_slots", "ops")

    def __init__(self, ctl_slots, phi_slots, ops):
        self.ctl_slots = ctl_slots    # controller condition slots
        self.phi_slots = phi_slots    # phi-control slots; None = no phis
        self.ops = ops


class CompiledBody:
    """One (function, effective context), compiled."""

    __slots__ = (
        "func", "ctx", "n_slots", "arg_slots", "blocks", "ret_ops",
        "ret_node", "n_sites", "slot_of", "has_generic", "op_histogram",
        "ops_per_pass",
    )

    def __init__(self, func, ctx):
        self.func = func
        self.ctx = ctx
        self.n_slots = 0
        self.arg_slots: Tuple[int, ...] = ()
        self.blocks: Tuple[_BlockProgram, ...] = ()
        self.ret_ops: Tuple = ()
        self.ret_node: Optional[VFGNode] = None
        self.n_sites = 0
        self.slot_of: Dict = {}
        self.has_generic = False
        self.op_histogram: Dict[int, int] = {}
        self.ops_per_pass = 0


class KernelState:
    """Per-analysis compiled-kernel state: interner, program cache,
    and observability counters. Owned by one :class:`ValueFlowAnalysis`;
    programs hold live IR/cell references, so they are process-local
    artifacts — cross-process reuse happens one level up, through the
    segment store, whose fingerprints include the opcode format
    version."""

    def __init__(self, engine):
        assert engine._PLACEHOLDER_PREFIX == PLACEHOLDER_PREFIX
        self.engine = engine
        self.interner = RegionInterner()
        self._programs: Dict[Tuple, CompiledBody] = {}
        self.compile_seconds = 0.0
        #: wall time inside compiled execution at the outermost nesting
        #: level — inclusive of call dispatch into callee bodies,
        #: exclusive of any compilation that happens along the way
        self.execute_seconds = 0.0
        self._depth = 0
        self.compiled_bodies = 0
        self.passes = 0
        self.op_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # public entry
    # ------------------------------------------------------------------

    def run_body(self, func: Function, ctx, arg_taints) -> Taint:
        """Execute one (function, context) body, compiling it first
        on its first run."""
        key = (func, ctx)
        program = self._programs.get(key)
        if program is None:
            t0 = perf_counter()
            program = self._programs[key] = self._compile(func, ctx)
            self.compile_seconds += perf_counter() - t0
        t0 = perf_counter()
        c0 = self.compile_seconds
        self._depth += 1
        try:
            ret = self._execute(program, arg_taints)
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.execute_seconds += (
                    perf_counter() - t0
                ) - (self.compile_seconds - c0)
        self.compiled_bodies += 1
        return ret

    def publish_counters(self, counters: Dict[str, int]) -> None:
        counters["kernel_compiled_bodies"] = self.compiled_bodies
        counters["kernel_compiled_programs"] = len(self._programs)
        counters["kernel_interner_bits"] = len(self.interner)
        counters["kernel_passes"] = self.passes
        counters["kernel_opcode_dispatches"] = sum(self.op_counts.values())
        counters["kernel_compile_us"] = int(self.compile_seconds * 1e6)
        counters["kernel_execute_us"] = int(self.execute_seconds * 1e6)
        for code, count in sorted(self.op_counts.items()):
            counters[f"kernel_op_{OPCODE_NAMES[code]}"] = count

    # ------------------------------------------------------------------
    # compiler
    # ------------------------------------------------------------------

    def _compile(self, func: Function, ctx) -> CompiledBody:
        engine = self.engine
        shm = engine.shm
        regions_of = shm.regions_of
        shm_regions = shm.regions
        target_of = engine.points_to.target_of
        data_bit = self.interner.data_bit
        track = engine.config.track_control_dependence
        deps = control_dependence(func)

        prog = CompiledBody(func, ctx)
        slot_of: Dict = {}
        for arg in func.arguments:
            slot_of[arg] = len(slot_of)
        prog.arg_slots = tuple(range(len(slot_of)))
        func_blocks = func.blocks
        for block in func_blocks:
            for inst in block.instructions:
                slot_of[inst] = len(slot_of)
        prog.slot_of = slot_of
        prog.n_slots = len(slot_of)
        slot_get = slot_of.get

        n_sites = 0
        histogram: Dict[int, int] = {}

        def controllers(block) -> List:
            out = []
            for controller in deps.get(block, ()):
                term = controller.terminator
                if isinstance(term, CondBranch):
                    out.append(term.condition)
            return out

        blocks: List[_BlockProgram] = []
        pred_map = None
        for block in func_blocks:
            if track:
                conds = controllers(block)
                ctl_slots = tuple(
                    s for s in (slot_get(c, -1) for c in conds) if s >= 0
                )
            else:
                ctl_slots = ()
            phi_slots = None
            phi_conds: Tuple = ()
            has_phi = any(
                type(i) is Phi for i in block.instructions
            )
            if has_phi and track:
                raw: List = []
                seen_ids = set()
                if pred_map is None:
                    pred_map = func.predecessor_map()
                for pred in pred_map.get(block, ()):
                    pred_conds = controllers(pred)
                    term = pred.terminator
                    if isinstance(term, CondBranch):
                        pred_conds.append(term.condition)
                    for cond in pred_conds:
                        if id(cond) not in seen_ids:
                            seen_ids.add(id(cond))
                            raw.append(cond)
                entries = [(slot_get(c, -1), c) for c in raw]
                phi_slots = tuple(s for s, _ in entries if s >= 0)
                phi_conds = tuple(
                    (s, c) for s, c in entries if s >= 0
                )
            elif has_phi:
                phi_slots = ()

            ops: List[Tuple] = []
            for inst in block.instructions:
                kind = type(inst)
                if kind in _JOIN_KINDS or isinstance(inst, _JOIN_KINDS):
                    srcs = []
                    edges = []
                    for op in inst.operands:
                        s = slot_get(op, -1)
                        if s >= 0:
                            srcs.append(s)
                            edges.append((n_sites, s, op))
                            n_sites += 1
                    if not srcs:
                        continue
                    ops.append((OP_JOIN, slot_of[inst], tuple(srcs),
                                tuple(edges), inst))
                    histogram[OP_JOIN] = histogram.get(OP_JOIN, 0) + 1
                elif kind is Load:
                    op, n_sites = self._compile_load(
                        engine, shm_regions, regions_of, target_of,
                        data_bit, func, ctx, inst, slot_get,
                        slot_of[inst], n_sites)
                    if op is not None:
                        ops.append(op)
                        histogram[op[0]] = histogram.get(op[0], 0) + 1
                elif kind is Store:
                    op, n_sites = self._compile_store(
                        engine, shm_regions, regions_of, target_of,
                        func, inst, slot_get, n_sites)
                    if op is not None:
                        ops.append(op)
                        histogram[OP_STORE] = histogram.get(
                            OP_STORE, 0) + 1
                elif kind is Phi:
                    srcs = []
                    data_edges = []
                    for value in inst.incoming.values():
                        s = slot_get(value, -1)
                        if s >= 0:
                            srcs.append(s)
                            data_edges.append((n_sites, s, value))
                            n_sites += 1
                    if not srcs and not phi_slots:
                        continue
                    ctl_edges = []
                    for s, cond in phi_conds:
                        ctl_edges.append((n_sites, s, cond))
                        n_sites += 1
                    ops.append((OP_PHI, slot_of[inst], tuple(srcs),
                                tuple(data_edges), tuple(ctl_edges),
                                inst))
                    histogram[OP_PHI] = histogram.get(OP_PHI, 0) + 1
                elif kind is Call:
                    op, n_sites, generic = self._compile_call(
                        engine, shm, target_of, func, inst, slot_get,
                        slot_of[inst], n_sites)
                    if op is not None:
                        ops.append(op)
                        histogram[op[0]] = histogram.get(op[0], 0) + 1
                    if generic:
                        prog.has_generic = True
            blocks.append(_BlockProgram(ctl_slots, phi_slots, tuple(ops)))
        prog.blocks = tuple(blocks)
        prog.op_histogram = histogram
        prog.ops_per_pass = sum(histogram.values())

        ret_ops: List[Tuple] = []
        prog.ret_node = VFGNode("value", f"return of {func.name}", "")
        for block in func_blocks:
            term = block.terminator
            if isinstance(term, Ret) and term.value is not None:
                centries = tuple(
                    (s, c)
                    for s, c in (
                        (slot_get(c, -1), c)
                        for c in (controllers(block) if track else ())
                    )
                    if s >= 0
                )
                ret_ops.append(
                    (slot_get(term.value, -1), term.value, centries)
                )
        prog.ret_ops = tuple(ret_ops)
        prog.n_sites = n_sites
        return prog

    def _compile_load(self, engine, shm_regions, regions_of, target_of,
                      data_bit, func, ctx, inst, slot_get, dslot,
                      n_sites):
        regions = regions_of(func, inst.pointer)
        if regions:
            unmonitored = [
                name for name in regions
                if shm_regions[name].noncore and name not in ctx
            ]
            if unmonitored:
                location = inst.location
                bits = 0
                entries = []
                for name in unmonitored:
                    source = TaintSource(
                        region=name,
                        function=func.name,
                        filename=(location.filename if location
                                  else "<unknown>"),
                        line=location.line if location else 0,
                    )
                    bits |= data_bit(source)
                    entries.append(source)
                return ((OP_LOAD_UNMON, dslot, bits, tuple(entries),
                         inst), n_sites)
            if any(not shm_regions[name].noncore for name in regions):
                cell = target_of(inst.pointer)
                if cell is None:
                    return (OP_LOAD_CTL, dslot), n_sites
                return ((OP_LOAD_CORE, dslot, cell, n_sites, inst),
                        n_sites + 1)
            return (OP_LOAD_CTL, dslot), n_sites
        ptr_slot = slot_get(inst.pointer, -1)
        cell = target_of(inst.pointer)
        if cell is None:
            if ptr_slot < 0:
                return (OP_LOAD_CTL, dslot), n_sites
            return ((OP_LOAD_PLAIN, dslot, ptr_slot, (), -1, None,
                     inst), n_sites)
        cells = (tuple(engine._field_cells(cell))
                 if inst.type.is_aggregate else (cell,))
        return ((OP_LOAD_PLAIN, dslot, ptr_slot, cells, n_sites, cell,
                 inst), n_sites + 1)

    def _compile_store(self, engine, shm_regions, regions_of, target_of,
                       func, inst, slot_get, n_sites):
        regions = regions_of(func, inst.pointer)
        if regions:
            noncore = sum(
                1 for n in regions if shm_regions[n].noncore
            )
            if noncore and noncore == len(regions):
                return None, n_sites  # non-core shm write: no effect (§2)
        cell = target_of(inst.pointer)
        if cell is None:
            return None, n_sites
        targets = (tuple(engine._field_cells(cell))
                   if inst.value.type.is_aggregate else (cell,))
        return ((OP_STORE, slot_get(inst.value, -1), targets, n_sites,
                 inst.value, cell), n_sites + 1)

    def _compile_call(self, engine, shm, target_of, func, inst,
                      slot_get, dslot, n_sites):
        """Compile one call; third result is True for OP_GENERIC."""
        name = inst.callee_name
        if name == ASSERT_SAFE_MARKER:
            if inst.operands:
                s = slot_get(inst.operands[0], -1)
                if s >= 0:
                    return ((OP_ASSERT, s, inst,
                             engine._assert_variable(inst)),
                            n_sites, False)
            return None, n_sites, False
        if name in IMPLICIT_CRITICAL_CALLS:
            checks = tuple(
                (slot_get(inst.operands[index], -1), inst,
                 f"{name}() argument {index}")
                for index in IMPLICIT_CRITICAL_CALLS[name]
                if index < len(inst.operands)
                and slot_get(inst.operands[index], -1) >= 0
            )
            if checks:
                return (OP_CRITICAL, checks), n_sites, False
            return None, n_sites, False
        transfer = engine._generic_transfer(inst)
        if transfer is not None:
            return (OP_GENERIC, dslot, inst, transfer), n_sites, True

        targets: List[Function] = []
        if isinstance(inst.callee, Function) and \
                not inst.callee.is_declaration:
            targets = [inst.callee]
        else:
            for call_site in shm.callgraph.sites_in(func):
                if call_site.call is inst:
                    targets = list(call_site.targets)
                    break
        if targets:
            arg_slots = tuple(slot_get(op, -1) for op in inst.operands)
            compiled_targets = []
            for target in targets:
                formals = target.arguments
                fedges = []
                for i, op in enumerate(inst.operands):
                    if i < len(formals):
                        fedges.append((n_sites, i, op, target,
                                       formals[i]))
                        n_sites += 1
                compiled_targets.append(
                    (target, len(formals), tuple(fedges))
                )
            op = (OP_CALL_DIRECT, dslot, arg_slots,
                  tuple(compiled_targets), n_sites,
                  inst.callee_name or "<indirect>", inst)
            return op, n_sites + 1, False
        entries = []
        for op in inst.operands:
            s = slot_get(op, -1)
            cell = target_of(op) if op.type.is_pointer else None
            if s < 0 and cell is None:
                continue
            vsite = csite = -1
            if s >= 0:
                vsite = n_sites
                n_sites += 1
            if cell is not None:
                csite = n_sites
                n_sites += 1
            entries.append((s, vsite, op, cell, csite))
        return ((OP_CALL_EXTERNAL, dslot, tuple(entries), inst),
                n_sites, False)

    # ------------------------------------------------------------------
    # interpreter
    # ------------------------------------------------------------------

    def _make_vt(self, slots, slot_of):
        decode = self.interner.decode

        def vt(value):
            s = slot_of.get(value)
            if s is None:
                return SAFE
            return decode(slots[s])

        return vt

    def _execute(self, prog: CompiledBody, arg_taints) -> Taint:
        engine = self.engine
        interner = self.interner
        encode = interner.encode
        decode = interner.decode
        as_control = interner.as_control
        cmap = engine.cell_taint
        cmap_get = cmap.get
        recording = engine.summary_store is not None
        note_elided_write = engine._note_elided_write
        add_edge = engine.vfg.add_edge
        value_node = engine._value_node
        dispatch_call = engine._dispatch_call
        ctx = prog.ctx
        func = prog.func
        prog_blocks = prog.blocks

        slots = [0] * prog.n_slots
        for i, s in enumerate(prog.arg_slots):
            if i < len(arg_taints):
                slots[s] = encode(arg_taints[i])
        emitted = bytearray(prog.n_sites)
        vt = self._make_vt(slots, prog.slot_of) if prog.has_generic \
            else None

        passes = 0
        for _ in range(_MAX_LOCAL_PASSES):
            passes += 1
            first = passes == 1
            changed = False
            for block in prog_blocks:
                if block.ctl_slots:
                    orb = 0
                    for s in block.ctl_slots:
                        orb |= slots[s]
                    ctl = as_control(orb) if orb else 0
                else:
                    ctl = 0
                phi_ctl = 0
                if block.phi_slots:
                    orb = 0
                    for s in block.phi_slots:
                        orb |= slots[s]
                    if orb:
                        phi_ctl = as_control(orb)
                for op in block.ops:
                    code = op[0]
                    if code == OP_JOIN:
                        _, dst, srcs, edges, inst = op
                        v = 0
                        for s in srcs:
                            v |= slots[s]
                        if v:
                            for sk, s, src in edges:
                                if slots[s] and not emitted[sk]:
                                    emitted[sk] = 1
                                    add_edge(value_node(func, src),
                                             value_node(func, inst),
                                             "data")
                        if slots[dst] != v:
                            slots[dst] = v
                            changed = True
                    elif code == OP_PHI:
                        _, dst, srcs, data_edges, ctl_edges, inst = op
                        v = phi_ctl
                        for s in srcs:
                            v |= slots[s]
                        if v:
                            for sk, s, src in data_edges:
                                if slots[s] and not emitted[sk]:
                                    emitted[sk] = 1
                                    add_edge(value_node(func, src),
                                             value_node(func, inst),
                                             "data")
                            if phi_ctl:
                                for sk, s, cond in ctl_edges:
                                    if slots[s] and not emitted[sk]:
                                        emitted[sk] = 1
                                        add_edge(
                                            value_node(func, cond),
                                            value_node(func, inst),
                                            "control")
                        if slots[dst] != v:
                            slots[dst] = v
                            changed = True
                    elif code == OP_LOAD_PLAIN:
                        _, dst, ps, cells, sk, cell, inst = op
                        stored = 0
                        for c in cells:
                            stored |= encode(cmap_get(c, SAFE))
                        if stored and sk >= 0 and not emitted[sk]:
                            emitted[sk] = 1
                            add_edge(VFGNode("cell", cell.label, ""),
                                     value_node(func, inst), "data")
                        v = stored | ctl
                        if ps >= 0:
                            v |= slots[ps]
                        if slots[dst] != v:
                            slots[dst] = v
                            changed = True
                    elif code == OP_STORE:
                        _, vs, targets, sk, src, cell = op
                        v = slots[vs] if vs >= 0 else 0
                        t = (v | ctl) & interner.keep_mask
                        if t:
                            for target in targets:
                                old = encode(cmap_get(target, SAFE))
                                new = old | t
                                if new != old:
                                    cmap[target] = decode(new)
                                elif recording:
                                    note_elided_write(target, decode(old))
                            if v and not emitted[sk]:
                                emitted[sk] = 1
                                add_edge(value_node(func, src),
                                         VFGNode("cell", cell.label,
                                                 ""), "data")
                    elif code == OP_CALL_DIRECT:
                        _, dst, arg_slots, targets, sk, callee, inst = op
                        args = [slots[s] if s >= 0 else 0
                                for s in arg_slots]
                        nargs = len(args)
                        result = 0
                        for target, nformals, fedges in targets:
                            for fsk, i, actual, tgt, formal in fedges:
                                if args[i] and not emitted[fsk]:
                                    emitted[fsk] = 1
                                    add_edge(value_node(func, actual),
                                             value_node(tgt, formal),
                                             "data")
                            padded = tuple(
                                decode(args[i]) if i < nargs else SAFE
                                for i in range(nformals)
                            )
                            child = dispatch_call(target, ctx, padded)
                            result |= encode(child)
                        if result and not emitted[sk]:
                            emitted[sk] = 1
                            add_edge(
                                VFGNode("value", f"return of {callee}",
                                        ""),
                                value_node(func, inst), "data")
                        v = result | ctl
                        if slots[dst] != v:
                            slots[dst] = v
                            changed = True
                    elif code == OP_LOAD_UNMON:
                        if first:
                            inst = op[4]
                            for source in op[3]:
                                engine._record_warning_source(
                                    func, inst, source)
                                add_edge(
                                    VFGNode(
                                        "source",
                                        f"noncore read {source.region}",
                                        f"{source.filename}:"
                                        f"{source.line}",
                                    ),
                                    value_node(func, inst), "data")
                        v = op[2] | ctl
                        dst = op[1]
                        if slots[dst] != v:
                            slots[dst] = v
                            changed = True
                    elif code == OP_LOAD_CORE:
                        _, dst, cell, sk, inst = op
                        stored = encode(cmap_get(cell, SAFE))
                        if stored and not emitted[sk]:
                            emitted[sk] = 1
                            add_edge(VFGNode("cell", cell.label, ""),
                                     value_node(func, inst), "data")
                        v = stored | ctl
                        if slots[dst] != v:
                            slots[dst] = v
                            changed = True
                    elif code == OP_LOAD_CTL:
                        dst = op[1]
                        if slots[dst] != ctl:
                            slots[dst] = ctl
                            changed = True
                    elif code == OP_CALL_EXTERNAL:
                        _, dst, entries, inst = op
                        result = 0
                        for s, vsite, operand, cell, csite in entries:
                            if s >= 0:
                                b = slots[s]
                                result |= b
                                if b and not emitted[vsite]:
                                    emitted[vsite] = 1
                                    add_edge(value_node(func, operand),
                                             value_node(func, inst),
                                             "data")
                            if cell is not None:
                                stored = encode(cmap_get(cell, SAFE))
                                if stored and not emitted[csite]:
                                    emitted[csite] = 1
                                    add_edge(
                                        VFGNode("cell", cell.label,
                                                ""),
                                        value_node(func, inst), "data")
                                result |= stored
                        v = result | ctl
                        if slots[dst] != v:
                            slots[dst] = v
                            changed = True
                    elif code == OP_ASSERT:
                        engine._check_critical(
                            func, op[2], decode(slots[op[1]]), op[3])
                    elif code == OP_CRITICAL:
                        for s, inst, label in op[1]:
                            engine._check_critical(
                                func, inst, decode(slots[s]), label)
                    else:  # OP_GENERIC
                        res = op[3](func, op[2], ctx, vt, decode(ctl))
                        if res is not None:
                            v = encode(res)
                            dst = op[1]
                            if slots[dst] != v:
                                slots[dst] = v
                                changed = True
            if not changed:
                break

        self.passes += passes
        op_counts = self.op_counts
        for code, count in prog.op_histogram.items():
            op_counts[code] = op_counts.get(code, 0) + count * passes

        ret = 0
        ret_node = prog.ret_node
        for vslot, value, centries in prog.ret_ops:
            vb = slots[vslot] if vslot >= 0 else 0
            if vb:
                add_edge(value_node(func, value), ret_node, "data")
            orb = 0
            for s, cond in centries:
                cb = slots[s]
                orb |= cb
                if cb:
                    add_edge(value_node(func, cond), ret_node, "control")
            if orb:
                ret |= vb | as_control(orb)
            else:
                ret |= vb
        return decode(ret)
