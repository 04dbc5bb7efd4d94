"""Front-end driver: C text/files → annotated IR program.

``recover_tiers`` selects the mode (``AnalysisConfig.recover_tiers``).
``None`` is strict: the first failure raises. Any tuple is keep-going:
the driver isolates failures instead of raising — a translation unit
that cannot be read, preprocessed or parsed, a function whose lowering
or verification fails, or an annotation that does not validate each
become a structured :class:`repro.degrade.DegradedUnit` on the returned
:class:`Program`, and the rest of the corpus is still front-ended. The
value-flow engine fails closed around ``Program.degraded_functions``.
The tuple names the enabled tiers of the recovery ladder of
:mod:`repro.frontend.recovery` that a failing unit falls through before
it is recorded as lost (``()``: none, ``--keep-going``); a salvaged
unit is analyzed with every function it defines degraded (fail-closed
around rewritten text).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..annotations.lang import AnnotationItem
from ..degrade import (
    KIND_FUNCTION,
    KIND_RECOVERED,
    DegradedUnit,
    degraded_function_names,
    sort_degraded,
)
from ..errors import LoweringError
from ..ir import CType, Module, StructType, verify_module
from ..ir.source import SourceLocation
from ..ir.verifier import verify_function
from .attach import annotation_line_count, attach_annotations, owning_function
from .lower import ModuleLowerer, lower_units, primitive_type
from .parser import ParsedUnit
from .preprocessor import TORN, ExtractedAnnotation, note_read
from .recovery import RecoveredUnit, frontend_file, frontend_unit


@dataclass(frozen=True)
class UnitInfo:
    """What a :class:`Program` keeps of a translation unit once it is
    lowered: no parse tree and no preprocessed text."""

    name: str
    #: every file the preprocessor read for the unit, includes too
    files: Tuple[str, ...]
    #: line ``i`` (0-based) of the preprocessed unit came from
    #: ``line_map[i]``
    line_map: Tuple[SourceLocation, ...]

    @classmethod
    def of(cls, unit: ParsedUnit) -> "UnitInfo":
        return cls(unit.name, tuple(unit.source.files),
                   tuple(unit.source.line_map))


class SizeofResolver:
    """``sizeof(name)`` for annotation size expressions, answered from
    the typedef table a module's units share and the module's struct
    table — so a :class:`Program` need not keep its lowerer."""

    def __init__(self, typedefs: Dict[str, CType],
                 structs: Dict[str, StructType]):
        self.typedefs = typedefs
        self.structs = structs

    def __call__(self, type_name: str) -> int:
        name = type_name.strip()
        if name.endswith("*"):
            return 4
        for prefix in ("struct ", "union "):
            if name.startswith(prefix):
                struct = self.structs.get(prefix + name[len(prefix):].strip())
                if struct is None:
                    raise LoweringError(f"unknown type in sizeof: {name!r}")
                return struct.sizeof()
        if name in self.typedefs:
            return self.typedefs[name].sizeof()
        primitive = primitive_type(name)
        if primitive is not None:
            return primitive.sizeof()
        struct = self.structs.get("struct " + name)
        if struct is not None:
            return struct.sizeof()
        raise LoweringError(f"unknown type in sizeof: {name!r}")


@dataclass
class Program:
    """A fully front-ended program: IR + annotations + type info.

    It keeps what the analysis phases and the caches read, and no
    parser or lowerer state: every cache that stores a program stores
    only this.
    """

    module: Module
    annotations: List[ExtractedAnnotation] = field(default_factory=list)
    function_annotations: Dict[str, List[AnnotationItem]] = field(
        default_factory=dict
    )
    sizeof: Callable[[str], int] = lambda name: 4
    units: List[UnitInfo] = field(default_factory=list)
    #: frontend failures isolated in recover mode (deterministic order)
    degraded: List[DegradedUnit] = field(default_factory=list)
    #: functions the value-flow engine must fail closed around
    degraded_functions: Set[str] = field(default_factory=set)
    #: per-tier recovery-ladder attempt counts (``--recover`` only)
    recovery_attempts: Dict[str, int] = field(default_factory=dict)
    #: per-tier recovery-ladder success counts (``--recover`` only)
    recovery_successes: Dict[str, int] = field(default_factory=dict)
    #: ``(path, digest)`` of every real file the front end read, each
    #: digest taken from the bytes it read, and ``(path, None)`` for
    #: every include candidate it found absent; ``None`` when unknown
    #: or when one file was seen with two contents. The IR
    #: cache validates its records against it and keeps it beside
    #: the pickle (``CacheEntry.deps``), so it is never pickled here.
    deps: Optional[Tuple[Tuple[str, Optional[str]], ...]] = field(
        default=None, compare=False, repr=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("deps", None)
        return state

    @property
    def annotation_lines(self) -> int:
        return annotation_line_count(self.annotations)

    @property
    def recovered_units(self) -> int:
        """Units the recovery ladder salvaged (analyzed fail-closed)."""
        return sum(1 for u in self.degraded if u.kind == KIND_RECOVERED)


def recover_token(recover_tiers: Optional[Sequence[str]]):
    """The value cache keys carry for ``recover_tiers``.

    Strict (``None``) and keep-going without tiers (``()``) give the
    plain bools ``False`` and ``True`` that IR-cache keys have always
    carried; with tiers it folds in
    :func:`repro.frontend.recovery.recovery_fingerprint` (tier set,
    format version, GNU parser strategy) so recovered programs are
    never replayed across recovery-config changes.
    """
    from .recovery import recovery_fingerprint

    recover = recover_tiers is not None
    fingerprint = recovery_fingerprint(recover_tiers or ())
    if not fingerprint:
        return recover
    return f"{recover}+recovery[{fingerprint}]"


def _merge_counts(into: Dict[str, int], counts: Dict[str, int]) -> None:
    for name, value in counts.items():
        into[name] = into.get(name, 0) + value


def load_source(
    text: str,
    filename: str = "<source>",
    defines: Optional[Dict[str, str]] = None,
    verify: bool = True,
    recover_tiers: Optional[Sequence[str]] = None,
) -> Program:
    """Front-end a single C source string.

    ``recover_tiers`` selects strict, keep-going or recovery-ladder
    front-ending.
    """
    result = frontend_unit(text, filename, defines=defines,
                           recover_tiers=recover_tiers)
    return _finish([result], verify, recover_tiers)


def load_files(
    paths: Sequence[str],
    include_dirs: Sequence[str] = (),
    defines: Optional[Dict[str, str]] = None,
    verify: bool = True,
    recover_tiers: Optional[Sequence[str]] = None,
) -> Program:
    """Front-end several C files into one program (whole-program analysis).

    Under keep-going (``recover_tiers`` not ``None``) each path is
    front-ended in isolation by :func:`repro.frontend.recovery.
    frontend_file`: a unit that fails becomes a :class:`DegradedUnit`
    (after the enabled recovery-ladder tiers) and the remaining units
    are still analyzed.
    """
    results = [frontend_file(path, include_dirs, defines, recover_tiers)
               for path in paths]
    return _finish(results, verify, recover_tiers)


def _smear_recovered(
    units: List[ParsedUnit],
    degraded: List[DegradedUnit],
    lowerer: ModuleLowerer,
) -> None:
    """Degrade every function defined in a recovery-salvaged unit.

    The analyzed text of a recovered unit is not the text the author
    wrote, so nothing defined in it may certify: each of its functions
    gets a :data:`KIND_FUNCTION` record (unless one exists already) and
    the engine fails closed around the whole set. Functions are matched
    by the source file their definition came from, which is exact
    because the line map tracks provenance through includes.
    """
    recovered_tier: Dict[str, str] = {
        u.name: (u.tier or "?")
        for u in degraded if u.kind == KIND_RECOVERED
    }
    if not recovered_tier:
        return
    file_tier: Dict[str, str] = {}
    for unit in units:
        tier = recovered_tier.get(unit.name)
        if tier is None:
            continue
        for fname in list(unit.source.files) + [unit.name]:
            file_tier[fname] = tier
    already = degraded_function_names(degraded)
    for func_name, loc in sorted(lowerer.function_starts.items()):
        tier = file_tier.get(loc.filename)
        if tier is None or func_name in already:
            continue
        degraded.append(DegradedUnit(
            kind=KIND_FUNCTION,
            name=func_name,
            cause=("fail-closed: defined in a unit salvaged by the "
                   f"recovery ladder ({tier} tier)"),
            location=loc,
            function=func_name,
            tier=tier,
        ))


def _finish(
    results: Sequence[RecoveredUnit],
    verify: bool,
    recover_tiers: Optional[Sequence[str]] = None,
) -> Program:
    """Lower the front-ended units of ``results`` into one program."""
    recover = recover_tiers is not None
    units: List[ParsedUnit] = []
    annotations: List[ExtractedAnnotation] = []
    degraded: List[DegradedUnit] = []
    attempts: Dict[str, int] = {}
    successes: Dict[str, int] = {}
    for result in results:
        _merge_counts(attempts, result.attempts)
        _merge_counts(successes, result.successes)
        degraded.extend(result.degraded)
        if result.unit is not None:
            units.append(result.unit)
            annotations.extend(result.annotations)
    module, lowerer = lower_units(units, recover=recover)
    degraded.extend(lowerer.degraded)
    function_annotations = attach_annotations(
        module, annotations, lowerer.function_starts,
        recover=recover, degraded=degraded,
    )
    if verify:
        if recover:
            _verify_recover(module, degraded)
        else:
            verify_module(module)
    _smear_recovered(units, degraded, lowerer)
    # annotation failures degrade their enclosing function (when one is
    # identifiable) so monitors whose annotations were dropped are
    # treated fail-closed rather than as ordinary unannotated code
    resolved: List[DegradedUnit] = []
    for unit in degraded:
        if (unit.function is None and unit.location is not None
                and unit.kind != KIND_RECOVERED):
            # KIND_RECOVERED records stay unit-scoped: their location is
            # the strict-mode failure point, not a function of their own
            owner = owning_function(
                lowerer.function_starts,
                unit.location.filename, unit.location.line,
            )
            if owner is not None:
                unit = replace(unit, function=owner)
        resolved.append(unit)
    resolved = sort_degraded(resolved)
    digests: Dict[str, Optional[str]] = {}
    for result in results:
        for path, digest in result.reads.items():
            note_read(digests, path, digest)
    return Program(
        module=module,
        annotations=annotations,
        function_annotations=function_annotations,
        sizeof=SizeofResolver(lowerer.typedefs, module.structs),
        units=[UnitInfo.of(unit) for unit in units],
        degraded=resolved,
        degraded_functions=degraded_function_names(resolved),
        recovery_attempts=attempts,
        recovery_successes=successes,
        deps=(None if TORN in digests.values()
              else tuple(digests.items())),
    )


def _verify_recover(module: Module, degraded: List[DegradedUnit]) -> None:
    """Verify per function; demote failures to declarations."""
    from ..errors import IRError

    for func in list(module.defined_functions()):
        try:
            verify_function(func)
        except IRError as exc:
            func.blocks = []
            degraded.append(DegradedUnit(
                kind=KIND_FUNCTION,
                name=func.name,
                cause=f"IR verification failed: {exc.message}",
                location=getattr(func, "location", None),
                function=func.name,
            ))
