"""Three-address IR instructions.

The instruction set deliberately mirrors the LLVM 1.x subset the paper's
prototype analyzed: loads/stores against explicit addresses, ``cast``
for every type conversion (what rule P3 inspects), explicit address
computation (:class:`FieldAddr` / :class:`IndexAddr`, together playing
the role of ``getelementptr``), calls, and CFG terminators. The front end
keeps promotable scalars out of memory and places :class:`Phi` nodes
while it lowers (:mod:`repro.frontend.lower`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import IRError
from .source import SourceLocation
from .types import (
    ArrayType,
    CType,
    PointerType,
    StructType,
    VOID,
)
from .values import Value


class Instruction(Value):
    """Base instruction; also an SSA value when it produces a result."""

    #: subclasses that end a basic block
    IS_TERMINATOR = False

    def __init__(self, type_: CType, operands: Sequence[Value], name: str = ""):
        super().__init__(type_, name)
        self.operands: List[Value] = list(operands)
        self.parent = None  # BasicBlock, set on insertion
        self.location: Optional[SourceLocation] = None

    @property
    def function(self):
        return self.parent.parent if self.parent is not None else None

    def replace_operand(self, old: Value, new: Value) -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new

    def opname(self) -> str:
        return type(self).__name__.lower()

    def render(self) -> str:
        ops = ", ".join(op.short() for op in self.operands)
        head = f"{self.short()} = " if self.type != VOID else ""
        return f"{head}{self.opname()} {ops}"


class Alloca(Instruction):
    """Stack slot for a local variable; result is a pointer to it."""

    def __init__(self, allocated_type: CType, name: str):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type

    def render(self) -> str:
        return f"{self.short()} = alloca {self.allocated_type!r}"


class Load(Instruction):
    def __init__(self, ptr: Value, name: str = ""):
        ptype = ptr.type
        if not isinstance(ptype, PointerType):
            raise IRError(f"load from non-pointer {ptr.short()} : {ptype!r}")
        super().__init__(ptype.pointee, [ptr], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    def __init__(self, value: Value, ptr: Value):
        if not isinstance(ptr.type, PointerType):
            raise IRError(f"store to non-pointer {ptr.short()} : {ptr.type!r}")
        super().__init__(VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class BinOp(Instruction):
    """Arithmetic / bitwise / logical binary operation."""

    OPS = {"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "&&", "||"}

    def __init__(self, op: str, lhs: Value, rhs: Value, type_: CType, name: str = ""):
        if op not in self.OPS:
            raise IRError(f"unknown binary op {op!r}")
        super().__init__(type_, [lhs, rhs], name)
        self.op = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        return (
            f"{self.short()} = binop {self.op!r} "
            f"{self.operands[0].short()}, {self.operands[1].short()}"
        )


class UnaryOp(Instruction):
    OPS = {"-", "~", "!", "+"}

    def __init__(self, op: str, operand: Value, type_: CType, name: str = ""):
        if op not in self.OPS:
            raise IRError(f"unknown unary op {op!r}")
        super().__init__(type_, [operand], name)
        self.op = op

    def render(self) -> str:
        return f"{self.short()} = unop {self.op!r} {self.operands[0].short()}"


class Cmp(Instruction):
    OPS = {"==", "!=", "<", "<=", ">", ">="}

    def __init__(self, op: str, lhs: Value, rhs: Value, type_: CType, name: str = ""):
        if op not in self.OPS:
            raise IRError(f"unknown comparison {op!r}")
        super().__init__(type_, [lhs, rhs], name)
        self.op = op

    def render(self) -> str:
        return (
            f"{self.short()} = cmp {self.op!r} "
            f"{self.operands[0].short()}, {self.operands[1].short()}"
        )


class Cast(Instruction):
    """Explicit type conversion; the only way types change in the IR.

    ``kind`` is one of ``bitcast`` (pointer→pointer), ``ptrtoint``,
    ``inttoptr``, ``numeric`` (int/float conversions). Rule P3 inspects
    ``bitcast`` and ``ptrtoint`` applied to shared-memory pointers.
    """

    KINDS = {"bitcast", "ptrtoint", "inttoptr", "numeric"}

    def __init__(self, value: Value, to_type: CType, name: str = ""):
        super().__init__(to_type, [value], name)
        from_t = value.type
        if from_t.is_pointer and to_type.is_pointer:
            self.kind = "bitcast"
        elif from_t.is_pointer and to_type.is_integer:
            self.kind = "ptrtoint"
        elif from_t.is_integer and to_type.is_pointer:
            self.kind = "inttoptr"
        else:
            self.kind = "numeric"

    @property
    def source(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        return f"{self.short()} = cast({self.kind}) {self.operands[0].short()} to {self.type!r}"


class FieldAddr(Instruction):
    """Address of ``ptr->field`` (struct member access)."""

    def __init__(self, ptr: Value, field_name: str, name: str = ""):
        ptype = ptr.type
        if not isinstance(ptype, PointerType) or not isinstance(
            ptype.pointee, StructType
        ):
            raise IRError(
                f"fieldaddr base {ptr.short()} : {ptype!r} is not a struct pointer"
            )
        field = ptype.pointee.field(field_name)
        super().__init__(PointerType(field.type), [ptr], name)
        self.field_name = field_name
        self.field_offset = field.offset

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        return f"{self.short()} = fieldaddr {self.operands[0].short()}.{self.field_name}"


class IndexAddr(Instruction):
    """Address of ``base[index]`` — array indexing or pointer arithmetic.

    If the base is a pointer to an array, the result points at the
    element type (a decayed access); otherwise it is pointer arithmetic
    on the pointee type.
    """

    def __init__(self, ptr: Value, index: Value, name: str = ""):
        ptype = ptr.type
        if not isinstance(ptype, PointerType):
            raise IRError(f"indexaddr base {ptr.short()} : {ptype!r} is not a pointer")
        if isinstance(ptype.pointee, ArrayType):
            elem = ptype.pointee.element
        else:
            elem = ptype.pointee
        super().__init__(PointerType(elem), [ptr, index], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        return (
            f"{self.short()} = indexaddr {self.operands[0].short()}"
            f"[{self.operands[1].short()}]"
        )


class Call(Instruction):
    """Direct or indirect call. ``callee`` is a Function, a declaration
    name (str) for externals, or a Value for indirect calls."""

    def __init__(self, callee, args: Sequence[Value], ret_type: CType, name: str = ""):
        super().__init__(ret_type, list(args), name)
        self.callee = callee

    @property
    def callee_name(self) -> Optional[str]:
        from .function import Function

        if isinstance(self.callee, str):
            return self.callee
        if isinstance(self.callee, Function):
            return self.callee.name
        return None

    def render(self) -> str:
        target = self.callee_name or self.callee.short()
        args = ", ".join(a.short() for a in self.operands)
        head = f"{self.short()} = " if self.type != VOID else ""
        return f"{head}call {target}({args})"


class Ret(Instruction):
    IS_TERMINATOR = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def render(self) -> str:
        if self.operands:
            return f"ret {self.operands[0].short()}"
        return "ret void"


class Jump(Instruction):
    IS_TERMINATOR = True

    def __init__(self, target):
        super().__init__(VOID, [])
        self.target = target

    def render(self) -> str:
        return f"jump {self.target.name}"


class CondBranch(Instruction):
    IS_TERMINATOR = True

    def __init__(self, cond: Value, true_block, false_block):
        super().__init__(VOID, [cond])
        self.true_block = true_block
        self.false_block = false_block

    @property
    def condition(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        return (
            f"br {self.operands[0].short()} ? "
            f"{self.true_block.name} : {self.false_block.name}"
        )


class Phi(Instruction):
    """SSA phi node; ``incoming`` maps predecessor block → value."""

    def __init__(self, type_: CType, name: str = ""):
        super().__init__(type_, [], name)
        self.incoming: Dict[object, Value] = {}

    def add_incoming(self, block, value: Value) -> None:
        self.incoming[block] = value
        self.operands = list(self.incoming.values())

    def replace_operand(self, old: Value, new: Value) -> None:
        for blk, val in list(self.incoming.items()):
            if val is old:
                self.incoming[blk] = new
        self.operands = list(self.incoming.values())

    def render(self) -> str:
        parts = ", ".join(
            f"[{blk.name}: {val.short()}]" for blk, val in self.incoming.items()
        )
        return f"{self.short()} = phi {parts}"


#: names of the dummy functions the annotation pre-processing pass
#: (paper §3.3, first paragraph) inserts into the source text.
ASSERT_SAFE_MARKER = "__safeflow_assert_safe"
ASSUME_CORE_MARKER = "__safeflow_assume_core"
INIT_CHECK_MARKER = "__safeflow_init_check"

MARKER_FUNCTIONS = frozenset(
    {ASSERT_SAFE_MARKER, ASSUME_CORE_MARKER, INIT_CHECK_MARKER}
)
