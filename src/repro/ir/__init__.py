"""Typed SSA intermediate representation (LLVM-bytecode substitute).

The SafeFlow prototype in the paper analyzes LLVM 1.x bytecode; this
package provides the equivalent substrate in pure Python: a typed
three-address IR with explicit loads/stores and casts, a CFG, and
dominator and postdominator trees. The front end builds the SSA form
while it lowers (:mod:`repro.frontend.lower`).
"""

from .cfg import BasicBlock
from .dominance import DominatorTree, control_dependence, dominator_tree
from .function import Function, Module
from .instructions import (
    ASSERT_SAFE_MARKER,
    ASSUME_CORE_MARKER,
    INIT_CHECK_MARKER,
    MARKER_FUNCTIONS,
    Alloca,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBranch,
    FieldAddr,
    IndexAddr,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Store,
    UnaryOp,
)
from .interp import Interpreter, InterpError
from .printer import function_to_text, module_to_text
from .source import SourceLocation, UNKNOWN_LOCATION
from .types import (
    ArrayType,
    BOOL,
    CHAR,
    CType,
    DOUBLE,
    FLOAT,
    FunctionType,
    INT,
    IntType,
    FloatType,
    LONG,
    PointerType,
    StructType,
    UINT,
    VOID,
    VOID_PTR,
    VoidType,
    pointer_compatible,
)
from .values import Argument, Constant, GlobalVariable, UndefValue, Value
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "ASSERT_SAFE_MARKER",
    "ASSUME_CORE_MARKER",
    "INIT_CHECK_MARKER",
    "MARKER_FUNCTIONS",
    "Alloca",
    "Argument",
    "ArrayType",
    "BOOL",
    "BasicBlock",
    "BinOp",
    "CHAR",
    "CType",
    "Call",
    "Cast",
    "Cmp",
    "CondBranch",
    "Constant",
    "DOUBLE",
    "DominatorTree",
    "FLOAT",
    "FieldAddr",
    "FloatType",
    "Function",
    "FunctionType",
    "GlobalVariable",
    "INT",
    "IndexAddr",
    "Instruction",
    "IntType",
    "InterpError",
    "Interpreter",
    "Jump",
    "LONG",
    "Load",
    "Module",
    "Phi",
    "PointerType",
    "Ret",
    "SourceLocation",
    "Store",
    "StructType",
    "UINT",
    "UNKNOWN_LOCATION",
    "UnaryOp",
    "UndefValue",
    "VOID",
    "VOID_PTR",
    "Value",
    "VerificationError",
    "VoidType",
    "control_dependence",
    "dominator_tree",
    "function_to_text",
    "module_to_text",
    "pointer_compatible",
    "verify_function",
    "verify_module",
]
