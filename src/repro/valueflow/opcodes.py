"""Opcode constants of the compiled value-flow kernel.

A compiled function body is a flat sequence of tuples whose first
element is one of the integers below (see :mod:`repro.valueflow.kernel`
for the operand layouts and the interpreter loop). The module is a
leaf on purpose: :mod:`repro.perf.fingerprint` imports the format
version without pulling in the engine.

``OPCODE_FORMAT_VERSION`` names the on-the-wire shape of compiled
programs *and* of everything the kernel's bitset encoding can leak
into persisted state. It is folded into every
:func:`repro.perf.fingerprint.config_fingerprint`, so summary records
written by one program format are never replayed into another. Bump
it on any change to the opcode layouts or the lattice encoding.
"""

from __future__ import annotations

from typing import Dict

#: bump on any change to opcode layouts or the bitset lattice encoding.
#: 2: interleaved data/control bits per source, OP_GENERIC carries its
#: transfer
OPCODE_FORMAT_VERSION = 2

#: pure dataflow join over operand slots (BinOp/UnaryOp/Cmp/Cast/
#: FieldAddr/IndexAddr)
OP_JOIN = 0
#: SSA phi: join of incoming slots plus the block's phi-control taint
OP_PHI = 1
#: load of an unmonitored non-core region: constant source bits
OP_LOAD_UNMON = 2
#: load through core shared memory: one memory-cell read
OP_LOAD_CORE = 3
#: monitored non-core load: the block control taint alone
OP_LOAD_CTL = 4
#: plain memory load: pointer taint joined with the pointee cell(s)
OP_LOAD_PLAIN = 5
#: store: join value and control taint into the target cell(s)
OP_STORE = 6
#: ``assert(safe(x))`` marker: critical-dependency check
OP_ASSERT = 7
#: implicitly critical external (``kill`` pid, §3.1)
OP_CRITICAL = 8
#: call with known targets: interprocedural dispatch per target
OP_CALL_DIRECT = 9
#: call to an unknown external: join args and pointee cells
OP_CALL_EXTERNAL = 10
#: escape hatch: delegate one instruction to the object-domain
#: transfer function (copy calls, recv, degraded callees)
OP_GENERIC = 11

OPCODE_NAMES: Dict[int, str] = {
    OP_JOIN: "join",
    OP_PHI: "phi",
    OP_LOAD_UNMON: "load_unmon",
    OP_LOAD_CORE: "load_core",
    OP_LOAD_CTL: "load_ctl",
    OP_LOAD_PLAIN: "load_plain",
    OP_STORE: "store",
    OP_ASSERT: "assert",
    OP_CRITICAL: "critical",
    OP_CALL_DIRECT: "call_direct",
    OP_CALL_EXTERNAL: "call_external",
    OP_GENERIC: "generic",
}
