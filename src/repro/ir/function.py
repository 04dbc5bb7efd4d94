"""IR functions and modules."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..errors import IRError
from .cfg import BasicBlock
from .instructions import Call, Instruction
from .source import SourceLocation
from .types import CType, FunctionType, StructType
from .values import Argument, GlobalVariable, Value


class Function(Value):
    """A function definition (with blocks) or declaration (without)."""

    def __init__(self, name: str, type_: FunctionType):
        super().__init__(type_, name)
        self.ftype = type_
        self.arguments: List[Argument] = []
        self.blocks: List[BasicBlock] = []
        self.location: Optional[SourceLocation] = None
        self.module = None
        self._next_temp = 0
        self._next_block = 0
        #: memoized derived analyses (dominator trees, control
        #: dependence, fingerprint); see :meth:`cached_analysis`
        self._analysis_cache: Dict[object, object] = {}

    # -- construction -------------------------------------------------

    def add_argument(self, type_: CType, name: str) -> Argument:
        arg = Argument(type_, name, len(self.arguments), self)
        self.arguments.append(arg)
        return arg

    def new_block(self, hint: str = "bb") -> BasicBlock:
        name = f"{hint}{self._next_block}"
        self._next_block += 1
        block = BasicBlock(name, self)
        self.blocks.append(block)
        return block

    def temp_name(self, hint: str = "t") -> str:
        name = f"{hint}.{self._next_temp}"
        self._next_temp += 1
        return name

    # -- structure ----------------------------------------------------

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no body")
        return self.blocks[0]

    @property
    def return_type(self) -> CType:
        return self.ftype.ret

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def calls(self) -> Iterator[Call]:
        for inst in self.instructions():
            if isinstance(inst, Call):
                yield inst

    def predecessor_map(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Each block's predecessors, in block order, from one pass over
        the CFG (``BasicBlock.predecessors`` scans every block per call)."""
        preds: Dict[BasicBlock, List[BasicBlock]] = {}
        for block in self.blocks:
            for succ in block.successors():
                preds.setdefault(succ, []).append(block)
        return preds

    def remove_unreachable_blocks(self) -> List[BasicBlock]:
        """Drop blocks not reachable from the entry; returns removals.

        Unreachable blocks arise from lowering (e.g. code after
        ``return``). They must be removed before dominance, which
        assumes every block is reachable; no phi has an operand from
        one (the lowerer adds no edge out of unreachable code).
        """
        if not self.blocks:
            return []
        reachable = set()
        work = [self.entry]
        while work:
            block = work.pop()
            if block in reachable:
                continue
            reachable.add(block)
            work.extend(block.successors())
        removed = [b for b in self.blocks if b not in reachable]
        if removed:
            self.invalidate_analyses()
        self.blocks = [b for b in self.blocks if b in reachable]
        return removed

    # -- derived-analysis memoization ----------------------------------

    def cached_analysis(self, key, builder):
        """Build-once cache for per-function derived analyses.

        ``builder`` receives the function and its result is kept until
        :meth:`invalidate_analyses` — which every IR-mutating pass must
        call (:meth:`reset_body` does). Used for dominator trees,
        control dependence and the function's fingerprint, so repeated
        analyses of one loaded Program (warm server, repeated SafeFlow
        runs, an incremental session) stop recomputing them.
        """
        value = self._analysis_cache.get(key)
        if value is None:
            value = builder(self)
            self._analysis_cache[key] = value
        return value

    def invalidate_analyses(self) -> None:
        """Drop memoized analyses after an IR mutation."""
        self._analysis_cache.clear()

    # -- teardown -----------------------------------------------------

    def reset_body(self) -> None:
        """Tear this function's body and arguments down so that they
        die by refcount, leaving a declaration with the same identity
        that lowering can fill again in place.

        Operands, phi incoming maps, branch targets and parent links
        tie blocks and instructions into reference cycles, and IR kept
        past a :func:`repro.perf.gcpause.gc_paused` guard is promoted
        out of generation 0, so without the teardown only a full
        collection would free the old body. Any later use of one of
        its blocks, instructions or arguments raises ``AttributeError``.
        """
        for block in self.blocks:
            for inst in block.instructions:
                inst.__dict__.clear()
            block.__dict__.clear()
        for arg in self.arguments:
            arg.__dict__.clear()
        self.blocks = []
        self.arguments = []
        self._next_temp = 0
        self._next_block = 0
        self.invalidate_analyses()

    def release(self) -> None:
        """:meth:`reset_body`, then clear the function's own state:
        whoever keeps IR past a gc guard calls this when it drops the
        function, and any later use raises ``AttributeError``."""
        self.reset_body()
        self.__dict__.clear()

    def short(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<{kind} {self.name} : {self.ftype!r}>"


class Module:
    """A whole translation-unit set: globals, structs, and functions."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.structs: Dict[str, StructType] = {}
        #: side tables filled by the front end
        self.function_annotations: Dict[str, list] = {}
        self.source_files: List[str] = []

    def add_function(self, func: Function) -> Function:
        existing = self.functions.get(func.name)
        if existing is not None and not existing.is_declaration:
            if not func.is_declaration:
                raise IRError(f"redefinition of function {func.name}")
            return existing
        func.module = self
        self.functions[func.name] = func
        return func

    def get_function(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        existing = self.globals.get(gv.name)
        if existing is not None:
            # a tentative/extern declaration followed by the defining
            # declaration: adopt the initializer
            if existing.initializer is None and gv.initializer is not None:
                existing.initializer = gv.initializer
            return existing
        self.globals[gv.name] = gv
        return gv

    def get_struct(self, tag: str, is_union: bool = False) -> StructType:
        key = ("union " if is_union else "struct ") + tag
        if key not in self.structs:
            self.structs[key] = StructType(tag, is_union)
        return self.structs[key]

    def release(self) -> None:
        """Release every function (:meth:`Function.release`) and drop
        the module's tables. The caller gives the module up: any later
        use raises ``AttributeError``."""
        for func in self.functions.values():
            func.release()
        self.__dict__.clear()

    def defined_functions(self) -> Iterator[Function]:
        for func in self.functions.values():
            if not func.is_declaration:
                yield func

    def __repr__(self) -> str:
        return (
            f"<module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
