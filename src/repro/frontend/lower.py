"""Lowering from the pycparser AST to the SSA IR.

The lowering covers the C subset the paper's restricted language
targets (§3.2): functions, globals, structs/unions/enums, pointers,
fixed-size arrays, the full expression grammar including short-circuit
logicals and the conditional operator, and structured control flow
(``if``/``while``/``do``/``for``/``switch``/``break``/``continue``).
``goto`` is outside the subset and is rejected with a clear error.

It emits SSA directly (Braun et al., "Simple and Efficient
Construction of SSA Form", CC 2013): a scalar local whose address
never escapes is an SSA variable from the start, which makes the
value-flow phase flow-sensitive for registers; aggregates and
address-taken scalars stay in memory as an ``alloca``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set, Tuple

from pycparser import c_ast

from ..degrade import KIND_CONSTRUCT, KIND_FUNCTION, DegradedUnit
from ..errors import IRError, LoweringError
from ..ir import (
    Alloca,
    Argument,
    ArrayType,
    BinOp,
    BasicBlock,
    Call,
    Cast,
    Cmp,
    CondBranch,
    Constant,
    CType,
    FieldAddr,
    FloatType,
    Function,
    FunctionType,
    GlobalVariable,
    IndexAddr,
    Instruction,
    IntType,
    Jump,
    Load,
    Module,
    Phi,
    PointerType,
    Ret,
    Store,
    StructType,
    UnaryOp,
    UndefValue,
    Value,
    VoidType,
)
from ..ir import types as T
from ..ir.source import SourceLocation
from .parser import ParsedUnit

_PRIMITIVES: Dict[Tuple[str, ...], CType] = {}


def _register_primitives() -> None:
    entries = [
        (("void",), T.VOID),
        (("_Bool",), T.BOOL),
        (("char",), T.CHAR),
        (("signed", "char"), T.CHAR),
        (("unsigned", "char"), T.UCHAR),
        (("short",), T.SHORT),
        (("short", "int"), T.SHORT),
        (("signed", "short"), T.SHORT),
        (("signed", "short", "int"), T.SHORT),
        (("unsigned", "short"), T.USHORT),
        (("unsigned", "short", "int"), T.USHORT),
        (("int",), T.INT),
        (("signed",), T.INT),
        (("signed", "int"), T.INT),
        (("unsigned",), T.UINT),
        (("unsigned", "int"), T.UINT),
        (("long",), T.LONG),
        (("long", "int"), T.LONG),
        (("signed", "long"), T.LONG),
        (("signed", "long", "int"), T.LONG),
        (("unsigned", "long"), T.ULONG),
        (("unsigned", "long", "int"), T.ULONG),
        (("long", "long"), T.LONGLONG),
        (("long", "long", "int"), T.LONGLONG),
        (("signed", "long", "long"), T.LONGLONG),
        (("unsigned", "long", "long"), T.ULONGLONG),
        (("unsigned", "long", "long", "int"), T.ULONGLONG),
        (("float",), T.FLOAT),
        (("double",), T.DOUBLE),
        (("long", "double"), T.LONGDOUBLE),
    ]
    for names, type_ in entries:
        _PRIMITIVES[tuple(sorted(names))] = type_


_register_primitives()


def primitive_type(name: str) -> Optional[CType]:
    """The primitive type spelled ``name``, in any specifier order."""
    return _PRIMITIVES.get(tuple(sorted(name.split())))


class TypeBuilder:
    """Builds IR types from pycparser declaration nodes."""

    def __init__(self, module: Module, unit: ParsedUnit):
        self.module = module
        self.unit = unit
        self.typedefs: Dict[str, CType] = {}
        self.enum_constants: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def from_node(self, node) -> CType:
        if isinstance(node, c_ast.TypeDecl):
            return self.from_node(node.type)
        if isinstance(node, c_ast.IdentifierType):
            return self._identifier_type(node)
        if isinstance(node, c_ast.PtrDecl):
            return PointerType(self.from_node(node.type))
        if isinstance(node, c_ast.ArrayDecl):
            elem = self.from_node(node.type)
            count = None
            if node.dim is not None:
                count = self.eval_const(node.dim)
            return ArrayType(elem, count)
        if isinstance(node, (c_ast.Struct, c_ast.Union)):
            return self._struct_type(node)
        if isinstance(node, c_ast.Enum):
            self._register_enum(node)
            return T.INT
        if isinstance(node, c_ast.FuncDecl):
            return self._function_type(node)
        if isinstance(node, c_ast.Typename):
            return self.from_node(node.type)
        raise LoweringError(
            f"unsupported type construct {type(node).__name__}",
            self.unit.origin(getattr(node, "coord", None)),
        )

    def _identifier_type(self, node: c_ast.IdentifierType) -> CType:
        names = tuple(sorted(node.names))
        if names in _PRIMITIVES:
            return _PRIMITIVES[names]
        if len(node.names) == 1 and node.names[0] in self.typedefs:
            return self.typedefs[node.names[0]]
        raise LoweringError(
            f"unknown type name {' '.join(node.names)!r}",
            self.unit.origin(node.coord),
        )

    def _struct_type(self, node) -> StructType:
        is_union = isinstance(node, c_ast.Union)
        tag = node.name
        fields = None
        if tag is None:
            # an anonymous aggregate is tagged by its content, so every
            # unit that spells one layout gets the one type
            fields = self._fields(node)
            digest = hashlib.sha256(repr((is_union, fields)).encode())
            tag = f"__anon_{digest.hexdigest()[:16]}"
        struct = self.module.get_struct(tag, is_union)
        if node.decls is not None and not struct.is_complete:
            struct.set_fields(
                self._fields(node) if fields is None else fields)
        return struct

    def _fields(self, node) -> List[Tuple[str, CType]]:
        return [(decl.name or f"__pad{index}", self.from_node(decl.type))
                for index, decl in enumerate(node.decls or ())]

    def _register_enum(self, node: c_ast.Enum) -> None:
        if node.values is None:
            return
        next_value = 0
        for enumerator in node.values.enumerators:
            if enumerator.value is not None:
                next_value = self.eval_const(enumerator.value)
            self.enum_constants[enumerator.name] = next_value
            next_value += 1

    def _function_type(self, node: c_ast.FuncDecl) -> FunctionType:
        ret = self.from_node(node.type)
        params: List[CType] = []
        varargs = False
        if node.args is None:
            return FunctionType(ret, [], varargs=True)  # K&R empty list
        for param in node.args.params:
            if isinstance(param, c_ast.EllipsisParam):
                varargs = True
                continue
            ptype = self.from_node(param.type)
            if isinstance(ptype, VoidType):
                continue  # f(void)
            if isinstance(ptype, ArrayType):
                ptype = PointerType(ptype.element)  # parameter decay
            if isinstance(ptype, FunctionType):
                ptype = PointerType(ptype)
            params.append(ptype)
        return FunctionType(ret, params, varargs)

    # ------------------------------------------------------------------

    def eval_const(self, node) -> int:
        """Evaluate an integer constant expression (array dims, cases)."""
        if isinstance(node, c_ast.Constant):
            if node.type in ("int", "long int", "unsigned int", "long long int"):
                return _parse_int_literal(node.value)
            if node.type == "char":
                return _parse_char_literal(node.value)
            raise LoweringError(
                f"non-integer constant {node.value!r} in constant expression",
                self.unit.origin(node.coord),
            )
        if isinstance(node, c_ast.ID):
            if node.name in self.enum_constants:
                return self.enum_constants[node.name]
            raise LoweringError(
                f"{node.name!r} is not a constant", self.unit.origin(node.coord)
            )
        if isinstance(node, c_ast.UnaryOp):
            if node.op == "-":
                return -self.eval_const(node.expr)
            if node.op == "+":
                return self.eval_const(node.expr)
            if node.op == "~":
                return ~self.eval_const(node.expr)
            if node.op == "!":
                return int(not self.eval_const(node.expr))
            if node.op == "sizeof":
                return self.from_node(node.expr.type if isinstance(
                    node.expr, c_ast.Typename) else node.expr).sizeof()
        if isinstance(node, c_ast.BinaryOp):
            left = self.eval_const(node.left)
            right = self.eval_const(node.right)
            ops = {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right if right else 0,
                "%": lambda: left % right if right else 0,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
                "&": lambda: left & right,
                "|": lambda: left | right,
                "^": lambda: left ^ right,
                "==": lambda: int(left == right),
                "!=": lambda: int(left != right),
                "<": lambda: int(left < right),
                ">": lambda: int(left > right),
                "<=": lambda: int(left <= right),
                ">=": lambda: int(left >= right),
            }
            if node.op in ops:
                return ops[node.op]()
        if isinstance(node, c_ast.Cast):
            return self.eval_const(node.expr)
        raise LoweringError(
            f"unsupported constant expression {type(node).__name__}",
            self.unit.origin(getattr(node, "coord", None)),
        )


def _parse_int_literal(text: str) -> int:
    cleaned = text.rstrip("uUlL")
    lowered = cleaned.lower()
    if lowered.startswith(("0x", "0b")):
        return int(cleaned, 0)
    if cleaned.startswith("0") and len(cleaned) > 1:
        return int(cleaned, 8)  # C octal literal
    return int(cleaned, 10)


def _parse_char_literal(text: str) -> int:
    body = text[1:-1]
    escapes = {
        "\\n": "\n", "\\t": "\t", "\\r": "\r", "\\0": "\0",
        "\\\\": "\\", "\\'": "'", '\\"': '"',
    }
    if body in escapes:
        return ord(escapes[body])
    if body.startswith("\\x"):
        return int(body[2:], 16)
    if body.startswith("\\") and body[1:].isdigit():
        return int(body[1:], 8)
    return ord(body[0]) if body else 0


class _LoopContext:
    __slots__ = ("break_block", "continue_block")

    def __init__(self, break_block: BasicBlock, continue_block: Optional[BasicBlock]):
        self.break_block = break_block
        self.continue_block = continue_block


#: what a variable holds where no definition reaches (a read of it
#: becomes an ``UndefValue`` when the function is finished)
_NO_DEF = object()


class _AddressTaken(Exception):
    """A promoted local's address escapes (``args[0]``: its declaring
    node): lower the function again with that local in memory."""


class ModuleLowerer:
    """Lowers one or more parsed units into a single IR module."""

    def __init__(self, module_name: str = "program", run_ssa: bool = True,
                 recover: bool = False, module: Optional[Module] = None):
        #: lowering into an existing module (``module=``) is the
        #: incremental session's per-definition re-lower: an edited
        #: definition fills its own (reset) function object, and its
        #: calls bind to the live function objects of the module
        self.module = module if module is not None else Module(module_name)
        self.run_ssa = run_ssa
        #: function name → start SourceLocation, used for annotation
        #: attachment by the front-end driver
        self.function_starts: Dict[str, SourceLocation] = {}
        #: per-function/per-construct failures isolated in recover mode
        #: (degraded-mode analysis) instead of aborting the whole unit
        self.recover = recover
        self.degraded: List[DegradedUnit] = []
        #: typedefs every unit of the module shares (also what
        #: annotation ``sizeof`` expressions resolve against)
        self.typedefs: Dict[str, CType] = {}
        self._shared_enums: Dict[str, int] = {}

    def lower_unit(self, unit: ParsedUnit) -> Module:
        types = TypeBuilder(self.module, unit)
        types.typedefs = self.typedefs
        types.enum_constants = self._shared_enums
        # first sweep: typedefs and type definitions so later sizes work
        for ext in unit.ast.ext:
            if isinstance(ext, c_ast.Typedef):
                types.typedefs[ext.name] = types.from_node(ext.type)
            elif isinstance(ext, c_ast.Decl) and isinstance(
                ext.type, (c_ast.Struct, c_ast.Union, c_ast.Enum)
            ) and ext.name is None:
                types.from_node(ext.type)

        for ext in unit.ast.ext:
            if isinstance(ext, c_ast.Typedef):
                continue
            if isinstance(ext, c_ast.FuncDef):
                if self.recover:
                    self._lower_funcdef_recover(ext, types, unit)
                else:
                    self._lower_funcdef(ext, types, unit)
            elif isinstance(ext, c_ast.Decl):
                try:
                    self._lower_global_decl(ext, types, unit)
                except (LoweringError, IRError) as exc:
                    if not self.recover:
                        raise
                    self.degraded.append(DegradedUnit(
                        kind=KIND_CONSTRUCT,
                        name=ext.name or "<anonymous>",
                        cause=exc.message,
                        location=unit.origin(getattr(ext, "coord", None)),
                    ))
            elif isinstance(ext, c_ast.Pragma):
                continue
            elif self.recover:
                self.degraded.append(DegradedUnit(
                    kind=KIND_CONSTRUCT,
                    name=type(ext).__name__,
                    cause=f"unsupported top-level construct "
                          f"{type(ext).__name__}",
                    location=unit.origin(getattr(ext, "coord", None)),
                ))
            else:
                raise LoweringError(
                    f"unsupported top-level construct {type(ext).__name__}",
                    unit.origin(getattr(ext, "coord", None)),
                )
        if unit.name not in self.module.source_files:
            self.module.source_files.append(unit.name)
        return self.module

    # ------------------------------------------------------------------

    def _lower_global_decl(self, decl: c_ast.Decl, types: TypeBuilder,
                           unit: ParsedUnit) -> None:
        if decl.name is None:
            types.from_node(decl.type)  # bare struct/enum definition
            return
        dtype = types.from_node(decl.type)
        if isinstance(dtype, FunctionType):
            func = self.module.get_function(decl.name)
            if func is None:
                self.module.add_function(Function(decl.name, dtype))
            return
        initializer = None
        if decl.init is not None:
            initializer = self._const_initializer(decl.init, types)
        gv = GlobalVariable(
            decl.name, dtype, initializer, unit.origin(decl.coord)
        )
        self.module.add_global(gv)

    def _const_initializer(self, node, types: TypeBuilder):
        try:
            if isinstance(node, c_ast.InitList):
                return [self._const_initializer(e, types) for e in node.exprs]
            if isinstance(node, c_ast.Constant) and node.type in ("float", "double"):
                return float(node.value.rstrip("fFlL"))
            if isinstance(node, c_ast.Constant) and node.type == "string":
                return node.value.strip('"')
            return types.eval_const(node)
        except LoweringError:
            return None

    def _lower_funcdef(self, funcdef: c_ast.FuncDef, types: TypeBuilder,
                       unit: ParsedUnit) -> None:
        decl = funcdef.decl
        ftype = types.from_node(decl.type)
        assert isinstance(ftype, FunctionType)
        func = self.module.get_function(decl.name)
        if func is None or not func.is_declaration:
            func = Function(decl.name, ftype)
            self.module.add_function(func)
        else:
            func.ftype = ftype
            func.type = ftype
        func.location = unit.origin(funcdef.coord)
        self.function_starts[decl.name] = func.location

        param_decls = []
        fdecl = decl.type
        if fdecl.args is not None:
            for param in fdecl.args.params:
                if isinstance(param, c_ast.EllipsisParam):
                    continue
                ptype = types.from_node(param.type)
                if isinstance(ptype, VoidType):
                    continue
                param_decls.append(param)

        # scalars are promoted optimistically; one whose address turns
        # out to escape is pinned to memory and the body lowered again
        pinned: Set[object] = set()
        while True:
            lowerer = FunctionLowerer(self, func, types, unit, pinned)
            try:
                lowerer.lower_body(param_decls, funcdef.body)
                return
            except _AddressTaken as exc:
                pinned.add(exc.args[0])
            func.reset_body()

    def _lower_funcdef_recover(self, funcdef: c_ast.FuncDef,
                               types: TypeBuilder, unit: ParsedUnit) -> None:
        """Lower one function, demoting it to a declaration on failure.

        A function whose body cannot be lowered (unsupported construct,
        SSA failure, runaway recursion) keeps its symbol in the module
        so call sites still resolve, but loses its blocks —
        ``is_declaration`` becomes true, the value-flow engine treats
        calls to it as unmonitored non-core flow, and a
        :class:`DegradedUnit` records the cause.
        """
        name = getattr(funcdef.decl, "name", None) or "<unknown>"
        try:
            self._lower_funcdef(funcdef, types, unit)
        except (LoweringError, IRError, RecursionError) as exc:
            cause = getattr(exc, "message", None) or (
                "function nesting exceeds the lowering recursion limit"
                if isinstance(exc, RecursionError) else str(exc)
            )
            location = getattr(exc, "location", None) or unit.origin(
                getattr(funcdef, "coord", None))
            func = self.module.get_function(name)
            if func is not None:
                func.blocks = []
            self.degraded.append(DegradedUnit(
                kind=KIND_FUNCTION,
                name=name,
                cause=cause,
                location=location,
                function=name,
            ))


class FunctionLowerer:
    """Lowers one function body."""

    def __init__(self, parent: ModuleLowerer, func: Function,
                 types: TypeBuilder, unit: ParsedUnit, pinned: Set[object]):
        self.parent = parent
        self.module = parent.module
        self.func = func
        self.types = types
        self.unit = unit
        self.scopes: List[Dict[str, Value]] = [{}]
        self.block: Optional[BasicBlock] = None
        self.loops: List[_LoopContext] = []
        self.current_loc: Optional[SourceLocation] = None
        #: declarations whose address an earlier attempt saw escape
        self.pinned = pinned
        # SSA construction state: the promoted locals (allocas never
        # inserted in a block) with their declaration order and node,
        # each block's predecessors reachable from the entry, its
        # variable definitions, the loop headers still waiting for back
        # edges with their operandless phis, each phi's variable, and
        # the trivial phis removed so far with their replacement
        self._promoted: Dict[Alloca, Tuple[int, object]] = {}
        self._entry: Optional[BasicBlock] = None
        self._preds: Dict[BasicBlock, List[BasicBlock]] = {}
        self._defs: Dict[BasicBlock, Dict[Alloca, object]] = {}
        self._incomplete: Dict[BasicBlock, Dict[Alloca, Phi]] = {}
        self._phi_var: Dict[Phi, Alloca] = {}
        self._forward: Dict[Phi, object] = {}
        # each read of a promoted variable (a load never inserted) and
        # the definition it reads
        self._reads: Dict[Load, object] = {}

    # -- plumbing ------------------------------------------------------

    def error(self, message: str, node=None) -> LoweringError:
        loc = self.unit.origin(getattr(node, "coord", None)) if node is not None \
            else self.current_loc
        return LoweringError(message, loc)

    def current_block(self) -> BasicBlock:
        if self.block is None:
            # unreachable code (after return/break); park it in a fresh
            # block which dead-block removal will discard.
            self.block = self.func.new_block("dead")
        return self.block

    def emit(self, inst: Instruction) -> Instruction:
        block = self.current_block()
        inst.location = self.current_loc
        block.append(inst)
        return inst

    def set_block(self, block: Optional[BasicBlock], seal: bool = True) -> None:
        """Enter ``block``: sealed, since it has all its predecessors,
        unless it is a loop header (see :meth:`seal`)."""
        self.block = block
        if not seal:
            self._incomplete[block] = {}

    def terminate(self, inst: Instruction) -> None:
        block = self.block
        if block is not None and not block.is_terminated:
            inst.location = self.current_loc
            block.append(inst)
            # edges out of unreachable code add no phi operands: only a
            # block with a live predecessor (or the entry) is live
            if block is self._entry or block in self._preds:
                for succ in block.successors():
                    self._preds.setdefault(succ, []).append(block)
        self.block = None

    def load(self, addr, name: str = "") -> Value:
        read = Load(addr, name)
        if addr not in self._promoted:
            return self.emit(read)
        # a promoted variable's load is made but never inserted, so
        # lowering takes the decisions it takes on a load; once the
        # function is finished its uses get the value it reads
        tasks: List[list] = []
        self._reads[read] = self._lookup(addr, self.current_block(), tasks)
        self._fill(addr, tasks)
        return read

    def store(self, value: Value, addr) -> None:
        if addr in self._promoted:
            self._defs.setdefault(self.current_block(), {})[addr] = value
        else:
            self.emit(Store(value, addr))

    def address(self, addr):
        """``addr`` used as an address value, not loaded or stored."""
        if addr in self._promoted:
            raise _AddressTaken(self._promoted[addr][1])
        return addr

    def lookup(self, name: str) -> Optional[Value]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.module.globals:
            return self.module.globals[name]
        func = self.module.get_function(name)
        if func is not None:
            return func
        return None

    def declare_local(self, name: str, type_: CType, decl=None) -> Alloca:
        """A new local. ``decl`` is its declaring node (None for temps,
        whose address never escapes). A promoted scalar's alloca is
        never inserted: it only names the SSA variable."""
        alloca = Alloca(type_, name)
        alloca.location = self.current_loc
        self.scopes[-1][name] = alloca
        if self.parent.run_ssa and type_.is_scalar \
                and decl not in self.pinned:
            self._promoted[alloca] = (len(self._promoted), decl)
            return alloca
        entry = self.func.entry
        insert_at = 0
        for i, inst in enumerate(entry.instructions):
            if isinstance(inst, Alloca):
                insert_at = i + 1
            else:
                break
        alloca.parent = entry
        entry.instructions.insert(insert_at, alloca)
        return alloca

    # -- body ----------------------------------------------------------

    def lower_body(self, param_decls, body: c_ast.Compound) -> None:
        entry = self._entry = self.func.new_block("entry")
        self.set_block(entry)
        for i, param in enumerate(param_decls):
            ptype = self.func.ftype.params[i] if i < len(self.func.ftype.params) \
                else T.INT
            name = param.name or f"arg{i}"
            arg = self.func.add_argument(ptype, name)
            slot = self.declare_local(name, ptype, param)
            self.store(arg, slot)
        self.lower_stmt(body)
        # close any dangling fall-off-the-end path
        if self.block is not None and not self.block.is_terminated:
            ret_type = self.func.return_type
            if isinstance(ret_type, VoidType):
                self.terminate(Ret())
            else:
                self.terminate(Ret(_zero_of(ret_type)))
        for dead in self.func.remove_unreachable_blocks():
            dead.instructions.clear()  # so it dies by refcount
        if self._promoted:
            self._finish_ssa()

    # -- SSA construction (Braun et al.) ---------------------------------
    #
    # Every walk below runs on an explicit stack: a chain of thousands
    # of branches is as deep as it is long.

    def seal(self, block: BasicBlock) -> None:
        """All of ``block``'s predecessors exist: fill its open phis."""
        for var, phi in self._incomplete.pop(block).items():
            self._fill(var, [[phi, self._preds.get(block, []), 0]])

    def _lookup(self, var: Alloca, block: BasicBlock, tasks: List[list]):
        """The definition of ``var`` reaching the end of ``block``: up
        single-predecessor chains to a definition, an open loop header
        (an operandless phi) or a join (a phi, its operands pushed onto
        ``tasks``). Every block walked through remembers the answer."""
        walked = []
        while (value := self._defs.get(block, {}).get(var)) is None:
            walked.append(block)
            preds = self._preds.get(block)
            if block in self._incomplete:
                value = self._incomplete[block][var] = \
                    self._new_phi(var, block)
            elif not preds:
                value = _NO_DEF
            elif len(preds) == 1:
                block = preds[0]
                continue
            else:
                value = self._new_phi(var, block)
                tasks.append([value, preds, 0])
            break
        for seen in walked:
            self._defs.setdefault(seen, {})[var] = value
        return value

    def _fill(self, var: Alloca, tasks: List[list]) -> None:
        """Read the operands of the phis on ``tasks``, each a list
        [phi, predecessors, next index]; a read may push more."""
        while tasks:
            phi, preds, i = tasks[-1]
            if i == len(preds):
                tasks.pop()
            else:
                tasks[-1][2] = i + 1
                phi.incoming[preds[i]] = self._lookup(var, preds[i], tasks)

    def _new_phi(self, var: Alloca, block: BasicBlock) -> Phi:
        phi = Phi(var.allocated_type, var.name)
        phi.location = var.location
        phi.parent = block
        # a block's phis run in reverse declaration order
        order = self._promoted[var][0]
        insts = block.instructions
        at = 0
        while at < len(insts) and isinstance(insts[at], Phi) \
                and self._promoted[self._phi_var[insts[at]]][0] > order:
            at += 1
        insts.insert(at, phi)
        self._phi_var[phi] = var
        return phi

    def _resolve(self, value, final: bool = True):
        """What ``value`` stands for once removed phis are forwarded.

        A read no definition reaches is its own undefined value; a phi
        operand no definition reaches stays ``_NO_DEF``. Unless
        ``final``, a read of a phi is itself, because the phi may yet
        turn out to have no definition.
        """
        read = None
        while True:
            if type(value) is Load and value in self._reads:
                read = value
                value = self._reads[value]
            elif type(value) is Phi and value in self._forward:
                value = self._forward[value]
            else:
                break
        if value is _NO_DEF and read is not None:
            var = read.pointer
            value = self._reads[read] = UndefValue(var.allocated_type,
                                                   var.name)
        if read is not None and not final and type(value) is Phi:
            return read
        return value

    def _remove_if_trivial(self, phi: Phi, final: bool) -> bool:
        """Remove ``phi`` if it merges one value (besides itself)."""
        same = None
        for value in phi.incoming.values():
            value = self._resolve(value, final)
            if value is phi or value is same or (
                    same is not None and value == same):
                continue
            if same is not None:
                return False
            same = value
        phi.parent.instructions.remove(phi)
        # a loop header's phi is often its own operand: drop the cycle
        phi.parent = None
        phi.incoming = {}
        self._forward[phi] = _NO_DEF if same is None else same
        return True

    def _finish_ssa(self) -> None:
        """Remove the trivial phis (until none is left), replace every
        read by its value, and name the phis that remain.

        Reads of phis compare as distinct until no phi is left that
        could turn out to have no definition: two reads of one such phi
        are two undefined values, which a phi does not merge.
        """
        phis = [phi for block in self.func.blocks for phi in block.phis()]
        for final in (False, True):
            while any([self._remove_if_trivial(phi, final) for phi in phis
                       if phi.parent is not None]):
                pass
        for block in self.func.blocks:
            for inst in block.instructions:
                if type(inst) is Phi:
                    var = self._phi_var[inst]
                    for pred, value in inst.incoming.items():
                        value = self._resolve(value)
                        inst.incoming[pred] = UndefValue(
                            var.allocated_type, var.name) \
                            if value is _NO_DEF else value
                    inst.operands = list(inst.incoming.values())
                    continue
                # only phis read a phi directly; everything else reads
                # through a load
                ops = inst.operands
                for i, op in enumerate(ops):
                    if type(op) is Load and op in self._reads:
                        ops[i] = self._resolve(op)
                if type(inst) is Call and inst.callee in self._reads:
                    inst.callee = self._resolve(inst.callee)
        # numbered after every lowering temp, variable by variable
        phis = [phi for phi in phis if phi.parent is not None]
        phis.sort(key=lambda phi: self._promoted[self._phi_var[phi]][0])
        for phi in phis:
            phi.name = self.func.temp_name(phi.name)

    # -- statements ------------------------------------------------------

    def lower_stmt(self, node) -> None:
        if node is None:
            return
        self.current_loc = self.unit.origin(getattr(node, "coord", None)) or \
            self.current_loc
        method = getattr(self, f"_stmt_{type(node).__name__}", None)
        if method is None:
            raise self.error(
                f"unsupported statement {type(node).__name__}", node
            )
        method(node)

    def _stmt_Compound(self, node: c_ast.Compound) -> None:
        self.scopes.append({})
        for item in node.block_items or []:
            self.lower_stmt(item)
        self.scopes.pop()

    def _stmt_Decl(self, node: c_ast.Decl) -> None:
        if node.name is None:
            self.types.from_node(node.type)
            return
        dtype = self.types.from_node(node.type)
        if isinstance(dtype, FunctionType):
            if self.module.get_function(node.name) is None:
                self.module.add_function(Function(node.name, dtype))
            return
        slot = self.declare_local(node.name, dtype, node)
        if node.init is not None:
            self._lower_initializer(slot, dtype, node.init)

    def _stmt_DeclList(self, node: c_ast.DeclList) -> None:
        for decl in node.decls:
            self.lower_stmt(decl)

    def _lower_initializer(self, ptr: Value, dtype: CType, init) -> None:
        if isinstance(init, c_ast.InitList):
            if isinstance(dtype, ArrayType):
                for i, expr in enumerate(init.exprs):
                    addr = self.emit(IndexAddr(ptr, Constant(T.INT, i)))
                    self._lower_initializer(addr, dtype.element, expr)
            elif isinstance(dtype, StructType) and dtype.fields is not None:
                for field, expr in zip(dtype.fields, init.exprs):
                    addr = self.emit(FieldAddr(ptr, field.name))
                    self._lower_initializer(addr, field.type, expr)
            return
        value = self.rvalue(init)
        self.store(self.coerce(value, dtype), ptr)

    def _stmt_If(self, node: c_ast.If) -> None:
        cond = self.to_bool(self.rvalue(node.cond))
        then_block = self.func.new_block("if.then")
        merge_block = self.func.new_block("if.end")
        else_block = self.func.new_block("if.else") if node.iffalse else merge_block
        self.terminate(CondBranch(cond, then_block, else_block))
        self.set_block(then_block)
        self.lower_stmt(node.iftrue)
        self.terminate(Jump(merge_block))
        if node.iffalse is not None:
            self.set_block(else_block)
            self.lower_stmt(node.iffalse)
            self.terminate(Jump(merge_block))
        self.set_block(merge_block)

    def _stmt_While(self, node: c_ast.While) -> None:
        cond_block = self.func.new_block("while.cond")
        body_block = self.func.new_block("while.body")
        exit_block = self.func.new_block("while.end")
        self.terminate(Jump(cond_block))
        self.set_block(cond_block, seal=False)
        cond = self.to_bool(self.rvalue(node.cond))
        self.terminate(CondBranch(cond, body_block, exit_block))
        self.loops.append(_LoopContext(exit_block, cond_block))
        self.set_block(body_block)
        self.lower_stmt(node.stmt)
        self.terminate(Jump(cond_block))
        self.seal(cond_block)
        self.loops.pop()
        self.set_block(exit_block)

    def _stmt_DoWhile(self, node: c_ast.DoWhile) -> None:
        body_block = self.func.new_block("do.body")
        cond_block = self.func.new_block("do.cond")
        exit_block = self.func.new_block("do.end")
        self.terminate(Jump(body_block))
        self.loops.append(_LoopContext(exit_block, cond_block))
        self.set_block(body_block, seal=False)
        self.lower_stmt(node.stmt)
        self.terminate(Jump(cond_block))
        self.loops.pop()
        self.set_block(cond_block)
        cond = self.to_bool(self.rvalue(node.cond))
        self.terminate(CondBranch(cond, body_block, exit_block))
        self.seal(body_block)
        self.set_block(exit_block)

    def _stmt_For(self, node: c_ast.For) -> None:
        self.scopes.append({})
        if node.init is not None:
            self.lower_stmt(node.init)
        cond_block = self.func.new_block("for.cond")
        body_block = self.func.new_block("for.body")
        step_block = self.func.new_block("for.step")
        exit_block = self.func.new_block("for.end")
        self.terminate(Jump(cond_block))
        self.set_block(cond_block, seal=False)
        if node.cond is not None:
            cond = self.to_bool(self.rvalue(node.cond))
            self.terminate(CondBranch(cond, body_block, exit_block))
        else:
            self.terminate(Jump(body_block))
        self.loops.append(_LoopContext(exit_block, step_block))
        self.set_block(body_block)
        self.lower_stmt(node.stmt)
        self.terminate(Jump(step_block))
        self.loops.pop()
        self.set_block(step_block)
        if node.next is not None:
            self.rvalue_or_void(node.next)
        self.terminate(Jump(cond_block))
        self.seal(cond_block)
        self.set_block(exit_block)
        self.scopes.pop()

    def _stmt_Break(self, node: c_ast.Break) -> None:
        if not self.loops:
            raise self.error("break outside loop or switch", node)
        self.terminate(Jump(self.loops[-1].break_block))

    def _stmt_Continue(self, node: c_ast.Continue) -> None:
        for ctx in reversed(self.loops):
            if ctx.continue_block is not None:
                self.terminate(Jump(ctx.continue_block))
                return
        raise self.error("continue outside loop", node)

    def _stmt_Return(self, node: c_ast.Return) -> None:
        if node.expr is None:
            self.terminate(Ret())
            return
        value = self.rvalue(node.expr)
        self.terminate(Ret(self.coerce(value, self.func.return_type)))

    def _stmt_Switch(self, node: c_ast.Switch) -> None:
        scrutinee = self.rvalue(node.cond)
        exit_block = self.func.new_block("switch.end")
        body = node.stmt
        items = body.block_items or [] if isinstance(body, c_ast.Compound) else [body]
        cases: List[Tuple[Optional[int], List, BasicBlock]] = []
        for item in items:
            if isinstance(item, c_ast.Case):
                value = self.types.eval_const(item.expr)
                cases.append((value, list(item.stmts or []),
                              self.func.new_block(f"case.{value}")))
            elif isinstance(item, c_ast.Default):
                cases.append((None, list(item.stmts or []),
                              self.func.new_block("case.default")))
            else:
                if not cases:
                    raise self.error("statement before first case label", item)
                cases[-1][1].append(item)

        # dispatch chain
        default_block = next((blk for val, _, blk in cases if val is None),
                             exit_block)
        for value, _, blk in cases:
            if value is None:
                continue
            cmp = self.emit(Cmp("==", scrutinee, Constant(T.INT, value), T.INT))
            next_test = self.func.new_block("switch.test")
            self.terminate(CondBranch(cmp, blk, next_test))
            self.set_block(next_test)
        self.terminate(Jump(default_block))

        # case bodies with fallthrough
        self.loops.append(_LoopContext(exit_block, None))
        for i, (_, stmts, blk) in enumerate(cases):
            self.set_block(blk)
            for stmt in stmts:
                self.lower_stmt(stmt)
            fall = cases[i + 1][2] if i + 1 < len(cases) else exit_block
            self.terminate(Jump(fall))
        self.loops.pop()
        self.set_block(exit_block)

    def _stmt_EmptyStatement(self, node) -> None:
        pass

    def _stmt_Assignment(self, node: c_ast.Assignment) -> None:
        self.rvalue(node)

    def _stmt_UnaryOp(self, node: c_ast.UnaryOp) -> None:
        self.rvalue(node)

    def _stmt_FuncCall(self, node: c_ast.FuncCall) -> None:
        self.rvalue_or_void(node)

    def _stmt_ExprList(self, node: c_ast.ExprList) -> None:
        for expr in node.exprs:
            self.rvalue_or_void(expr)

    def _stmt_Cast(self, node: c_ast.Cast) -> None:
        self.rvalue(node)

    def _stmt_BinaryOp(self, node) -> None:
        self.rvalue(node)

    def _stmt_TernaryOp(self, node) -> None:
        self.rvalue(node)

    def _stmt_ID(self, node) -> None:
        pass  # expression statement with no effect

    def _stmt_Constant(self, node) -> None:
        pass

    def _stmt_Goto(self, node) -> None:
        raise self.error(
            "goto is outside the SafeFlow restricted language subset", node
        )

    def _stmt_Label(self, node) -> None:
        raise self.error(
            "labels are outside the SafeFlow restricted language subset", node
        )

    # -- expressions -----------------------------------------------------

    def rvalue_or_void(self, node) -> Optional[Value]:
        """Evaluate an expression whose value may be discarded."""
        if isinstance(node, c_ast.FuncCall):
            return self._lower_call(node, want_value=False)
        return self.rvalue(node)

    def rvalue(self, node) -> Value:
        self.current_loc = self.unit.origin(getattr(node, "coord", None)) or \
            self.current_loc
        handler = getattr(self, f"_rv_{type(node).__name__}", None)
        if handler is None:
            raise self.error(
                f"unsupported expression {type(node).__name__}", node
            )
        return handler(node)

    def _rv_Constant(self, node: c_ast.Constant) -> Value:
        if node.type in ("int", "long int", "long long int",
                         "unsigned int", "unsigned long int"):
            return Constant(T.INT, _parse_int_literal(node.value))
        if node.type in ("float", "double", "long double"):
            text = node.value.rstrip("fFlL")
            type_ = T.FLOAT if node.value.rstrip("lL").endswith(("f", "F")) \
                else T.DOUBLE
            return Constant(type_, float(text))
        if node.type == "char":
            return Constant(T.CHAR, _parse_char_literal(node.value))
        if node.type == "string":
            return Constant(PointerType(T.CHAR), node.value[1:-1])
        raise self.error(f"unsupported literal type {node.type!r}", node)

    def _rv_ID(self, node: c_ast.ID) -> Value:
        if node.name in self.types.enum_constants:
            return Constant(T.INT, self.types.enum_constants[node.name])
        target = self.lookup(node.name)
        if target is None:
            raise self.error(f"use of undeclared identifier {node.name!r}", node)
        if isinstance(target, Function):
            return target
        declared = _declared_type(target)
        if isinstance(declared, ArrayType):
            return self.emit(IndexAddr(target, Constant(T.INT, 0)))  # decay
        # a promoted read draws its name too: temp numbers do not
        # depend on which locals are promoted
        return self.load(target, self.func.temp_name(node.name))

    def lvalue(self, node) -> Value:
        """Address of an assignable expression."""
        self.current_loc = self.unit.origin(getattr(node, "coord", None)) or \
            self.current_loc
        if isinstance(node, c_ast.ID):
            target = self.lookup(node.name)
            if target is None:
                raise self.error(
                    f"use of undeclared identifier {node.name!r}", node
                )
            if isinstance(target, Function):
                raise self.error(f"cannot assign to function {node.name!r}", node)
            return target
        if isinstance(node, c_ast.UnaryOp) and node.op == "*":
            return self.rvalue(node.expr)
        if isinstance(node, c_ast.StructRef):
            return self._struct_member_addr(node)
        if isinstance(node, c_ast.ArrayRef):
            return self._array_elem_addr(node)
        if isinstance(node, c_ast.Cast):
            # (T*)expr used as lvalue target — lower the cast of the address
            inner = self.address(self.lvalue(node.expr))
            to_type = self.types.from_node(node.to_type)
            return self.emit(Cast(inner, PointerType(to_type)))
        raise self.error(
            f"expression {type(node).__name__} is not an lvalue", node
        )

    def _struct_member_addr(self, node: c_ast.StructRef) -> Value:
        if node.type == "->":
            base = self.rvalue(node.name)
        else:
            base = self.lvalue(node.name)
        btype = base.type
        if not isinstance(btype, PointerType):
            raise self.error("member access on non-pointer base", node)
        if not isinstance(btype.pointee, StructType):
            raise self.error(
                f"member access on non-struct type {btype.pointee!r}", node
            )
        try:
            return self.emit(FieldAddr(base, node.field.name))
        except KeyError as exc:
            raise self.error(str(exc.args[0]) if exc.args else str(exc),
                             node)

    def _array_elem_addr(self, node: c_ast.ArrayRef) -> Value:
        name_type = self._static_type(node.name)
        if isinstance(name_type, ArrayType):
            base = self.lvalue(node.name)
        else:
            base = self.rvalue(node.name)
        index = self.rvalue(node.subscript)
        return self.emit(IndexAddr(base, index))

    def _static_type(self, node) -> Optional[CType]:
        """Best-effort static type of an expression (for array decay)."""
        if isinstance(node, c_ast.ID):
            target = self.lookup(node.name)
            if target is not None:
                return _declared_type(target)
        if isinstance(node, c_ast.StructRef):
            try:
                base = self._static_type(node.name)
            except LoweringError:
                return None
            if node.type == "->" and isinstance(base, PointerType):
                base = base.pointee
            if isinstance(base, StructType) and base.is_complete:
                try:
                    return base.field(node.field.name).type
                except KeyError:
                    return None
        if isinstance(node, c_ast.ArrayRef):
            base = self._static_type(node.name)
            if isinstance(base, ArrayType):
                return base.element
            if isinstance(base, PointerType):
                return base.pointee
        return None

    def _rv_StructRef(self, node: c_ast.StructRef) -> Value:
        addr = self._struct_member_addr(node)
        pointee = addr.type.pointee  # type: ignore[attr-defined]
        if isinstance(pointee, ArrayType):
            return self.emit(IndexAddr(addr, Constant(T.INT, 0)))
        return self.emit(Load(addr))

    def _rv_ArrayRef(self, node: c_ast.ArrayRef) -> Value:
        addr = self._array_elem_addr(node)
        pointee = addr.type.pointee  # type: ignore[attr-defined]
        if isinstance(pointee, ArrayType):
            return self.emit(IndexAddr(addr, Constant(T.INT, 0)))
        return self.emit(Load(addr))

    def _rv_UnaryOp(self, node: c_ast.UnaryOp) -> Value:
        op = node.op
        if op == "&":
            inner = node.expr
            if isinstance(inner, c_ast.ID):
                target = self.lookup(inner.name)
                if isinstance(target, Function):
                    return target
            return self.address(self.lvalue(inner))
        if op == "*":
            ptr = self.rvalue(node.expr)
            if not isinstance(ptr.type, PointerType):
                raise self.error("dereference of non-pointer", node)
            if isinstance(ptr.type.pointee, ArrayType):
                return self.emit(IndexAddr(ptr, Constant(T.INT, 0)))
            return self.emit(Load(ptr))
        if op == "sizeof":
            if isinstance(node.expr, c_ast.Typename):
                return Constant(T.UINT, self.types.from_node(node.expr).sizeof())
            stype = self._static_type(node.expr)
            if stype is not None:
                return Constant(T.UINT, stype.sizeof())
            value = self.rvalue(node.expr)
            return Constant(T.UINT, value.type.sizeof())
        if op in ("++", "--", "p++", "p--"):
            return self._incdec(node)
        if op == "!":
            value = self.to_bool(self.rvalue(node.expr))
            return self.emit(UnaryOp("!", value, T.INT))
        if op in ("-", "+", "~"):
            value = self.rvalue(node.expr)
            if isinstance(value, Constant) and isinstance(
                value.value, (int, float)
            ):
                folded = {"-": lambda v: -v, "+": lambda v: v,
                          "~": lambda v: ~int(v)}[op](value.value)
                return Constant(value.type, folded)
            return self.emit(UnaryOp(op, value, value.type))
        raise self.error(f"unsupported unary operator {op!r}", node)

    def _incdec(self, node: c_ast.UnaryOp) -> Value:
        addr = self.lvalue(node.expr)
        old = self.load(addr)
        delta = Constant(T.INT, 1)
        op = "+" if "++" in node.op else "-"
        if isinstance(old.type, PointerType):
            index = delta if op == "+" else self.emit(
                UnaryOp("-", delta, T.INT))
            new = self.emit(IndexAddr(old, index))
        else:
            new = self.emit(BinOp(op, old, self.coerce(delta, old.type),
                                  old.type))
        self.store(new, addr)
        return old if node.op.startswith("p") else new

    def _rv_BinaryOp(self, node: c_ast.BinaryOp) -> Value:
        op = node.op
        if op in ("&&", "||"):
            return self._short_circuit(node)
        left = self.rvalue(node.left)
        right = self.rvalue(node.right)
        if op in Cmp.OPS:
            left, right = self._usual_conversions(left, right)
            return self.emit(Cmp(op, left, right, T.INT))
        if op in ("+", "-") and isinstance(left.type, PointerType) \
                and not isinstance(right.type, PointerType):
            index = right if op == "+" else self.emit(
                UnaryOp("-", right, right.type))
            return self.emit(IndexAddr(left, index))
        if op == "+" and isinstance(right.type, PointerType):
            return self.emit(IndexAddr(right, left))
        if op == "-" and isinstance(left.type, PointerType) \
                and isinstance(right.type, PointerType):
            li = self.emit(Cast(left, T.INT))
            ri = self.emit(Cast(right, T.INT))
            return self.emit(BinOp("-", li, ri, T.INT))
        left, right = self._usual_conversions(left, right)
        return self.emit(BinOp(op, left, right, left.type))

    def _usual_conversions(self, left: Value, right: Value) -> Tuple[Value, Value]:
        lt, rt = left.type, right.type
        if lt == rt or lt.is_pointer or rt.is_pointer:
            return left, right
        target = _common_type(lt, rt)
        if lt != target:
            left = self.emit(Cast(left, target))
        if rt != target:
            right = self.emit(Cast(right, target))
        return left, right

    def _short_circuit(self, node: c_ast.BinaryOp) -> Value:
        result = self.declare_local(self.func.temp_name("sc"), T.INT)
        rhs_block = self.func.new_block("sc.rhs")
        merge_block = self.func.new_block("sc.end")
        left = self.to_bool(self.rvalue(node.left))
        self.store(left, result)
        if node.op == "&&":
            self.terminate(CondBranch(left, rhs_block, merge_block))
        else:
            self.terminate(CondBranch(left, merge_block, rhs_block))
        self.set_block(rhs_block)
        right = self.to_bool(self.rvalue(node.right))
        self.store(right, result)
        self.terminate(Jump(merge_block))
        self.set_block(merge_block)
        return self.load(result)

    def _rv_TernaryOp(self, node: c_ast.TernaryOp) -> Value:
        then_block = self.func.new_block("sel.then")
        else_block = self.func.new_block("sel.else")
        merge_block = self.func.new_block("sel.end")
        cond = self.to_bool(self.rvalue(node.cond))
        self.terminate(CondBranch(cond, then_block, else_block))

        self.set_block(then_block)
        tval = self.rvalue(node.iftrue)
        slot = self.declare_local(self.func.temp_name("sel"), tval.type)
        self.store(tval, slot)
        self.terminate(Jump(merge_block))

        self.set_block(else_block)
        fval = self.rvalue(node.iffalse)
        self.store(self.coerce(fval, tval.type), slot)
        self.terminate(Jump(merge_block))

        self.set_block(merge_block)
        return self.load(slot)

    def _rv_Assignment(self, node: c_ast.Assignment) -> Value:
        addr = self.lvalue(node.lvalue)
        target_type = addr.type.pointee if isinstance(addr.type, PointerType) \
            else T.INT
        if node.op == "=":
            if isinstance(target_type, (StructType,)):
                src = self.lvalue(node.rvalue)
                value = self.load(src)
                self.store(value, addr)
                return value
            value = self.coerce(self.rvalue(node.rvalue), target_type)
            self.store(value, addr)
            return value
        binop = node.op[:-1]
        old = self.load(addr)
        rhs = self.rvalue(node.rvalue)
        if isinstance(old.type, PointerType) and binop in ("+", "-"):
            index = rhs if binop == "+" else self.emit(
                UnaryOp("-", rhs, rhs.type))
            new: Value = self.emit(IndexAddr(old, index))
        else:
            new = self.emit(
                BinOp(binop, old, self.coerce(rhs, old.type), old.type)
            )
        self.store(new, addr)
        return new

    def _rv_Cast(self, node: c_ast.Cast) -> Value:
        to_type = self.types.from_node(node.to_type)
        value = self.rvalue(node.expr)
        if value.type == to_type:
            return value
        if isinstance(to_type, VoidType):
            return value
        if isinstance(value, Constant) and value.value == 0 and to_type.is_pointer:
            return Constant(to_type, 0)
        return self.emit(Cast(value, to_type))

    def _rv_FuncCall(self, node: c_ast.FuncCall) -> Value:
        value = self._lower_call(node, want_value=True)
        assert value is not None
        return value

    def _lower_call(self, node: c_ast.FuncCall, want_value: bool) -> Optional[Value]:
        callee: object
        ftype: Optional[FunctionType] = None
        if isinstance(node.name, c_ast.ID):
            target = self.lookup(node.name.name)
            if isinstance(target, Function):
                callee = target
                ftype = target.ftype
            elif target is None:
                # C90 implicit declaration: int f();
                implicit = Function(
                    node.name.name, FunctionType(T.INT, [], varargs=True)
                )
                self.module.add_function(implicit)
                callee = implicit
                ftype = implicit.ftype
            else:
                callee = self.load(target)
                ct = callee.type
                if isinstance(ct, PointerType) and isinstance(ct.pointee,
                                                              FunctionType):
                    ftype = ct.pointee
        else:
            callee = self.rvalue(node.name)
            ct = callee.type
            if isinstance(ct, PointerType) and isinstance(ct.pointee,
                                                          FunctionType):
                ftype = ct.pointee

        args: List[Value] = []
        exprs = list(node.args.exprs) if node.args is not None else []
        for i, expr in enumerate(exprs):
            value = self.rvalue(expr)
            if ftype is not None and i < len(ftype.params):
                value = self.coerce(value, ftype.params[i])
            args.append(value)

        ret_type = ftype.ret if ftype is not None else T.INT
        call = Call(callee, args, ret_type)
        self.emit(call)
        if want_value and not isinstance(ret_type, VoidType):
            return call
        return call if isinstance(ret_type, VoidType) else call

    def _rv_ExprList(self, node: c_ast.ExprList) -> Value:
        value: Optional[Value] = None
        for expr in node.exprs:
            value = self.rvalue_or_void(expr)
        if value is None:
            raise self.error("empty expression list", node)
        return value

    # -- conversions -----------------------------------------------------

    def to_bool(self, value: Value) -> Value:
        if isinstance(value, (Cmp,)):
            return value
        if isinstance(value, UnaryOp) and value.op == "!":
            return value
        if isinstance(value.type, PointerType):
            return self.emit(Cmp("!=", value, Constant(value.type, 0), T.INT))
        zero = Constant(value.type, 0 if value.type.is_integer else 0.0)
        return self.emit(Cmp("!=", value, zero, T.INT))

    def coerce(self, value: Value, target: CType) -> Value:
        if value.type == target or isinstance(target, VoidType):
            return value
        if isinstance(target, PointerType):
            if isinstance(value, Constant) and value.value == 0:
                return Constant(target, 0)
            if isinstance(value.type, PointerType):
                return self.emit(Cast(value, target))
            if value.type.is_integer:
                return self.emit(Cast(value, target))
            return value
        if isinstance(value.type, PointerType) and target.is_integer:
            return self.emit(Cast(value, target))
        if (value.type.is_integer or value.type.is_float) and (
            target.is_integer or target.is_float
        ):
            if isinstance(value, Constant):
                if target.is_integer:
                    return Constant(target, int(value.value))
                return Constant(target, float(value.value))
            return self.emit(Cast(value, target))
        return value


def _declared_type(target: Value) -> CType:
    if isinstance(target, GlobalVariable):
        return target.declared_type
    if isinstance(target, Alloca):
        return target.allocated_type
    if isinstance(target.type, PointerType):
        return target.type.pointee
    return target.type


def _common_type(a: CType, b: CType) -> CType:
    for candidate in (T.LONGDOUBLE, T.DOUBLE, T.FLOAT):
        if a == candidate or b == candidate:
            return candidate
    if a.is_integer and b.is_integer:
        return a if a.sizeof() >= b.sizeof() else b
    return a


def _zero_of(type_: CType) -> Value:
    if type_.is_float:
        return Constant(type_, 0.0)
    if type_.is_pointer:
        return Constant(type_, 0)
    return Constant(type_, 0)


def lower_units(units: List[ParsedUnit], module_name: str = "program",
                run_ssa: bool = True,
                recover: bool = False) -> Tuple[Module, ModuleLowerer]:
    """Lower several parsed units into one module; returns (module, lowerer)."""
    lowerer = ModuleLowerer(module_name, run_ssa=run_ssa, recover=recover)
    for unit in units:
        lowerer.lower_unit(unit)
    return lowerer.module, lowerer
