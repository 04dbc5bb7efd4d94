"""C front end: preprocessing, annotation extraction, parsing, lowering."""

from .attach import annotation_line_count, attach_annotations
from .driver import Program, load_files, load_source
from .lower import ModuleLowerer, TypeBuilder, lower_units
from .parser import (
    BUILTIN_FUNCTIONS,
    BUILTIN_PRELUDE,
    SHM_ALLOCATORS,
    SHM_DEALLOCATORS,
    ParsedUnit,
    parse_preprocessed,
)
from .preprocessor import (
    ANNOTATION_TAG,
    ExtractedAnnotation,
    Macro,
    PreprocessedSource,
    Preprocessor,
)
from .recovery import (
    DEFAULT_TIERS,
    RECOVERY_FORMAT_VERSION,
    TIER_ORDER,
    RecoveredUnit,
    frontend_unit,
    normalize_tiers,
    recovery_fingerprint,
)

__all__ = [
    "DEFAULT_TIERS",
    "RECOVERY_FORMAT_VERSION",
    "RecoveredUnit",
    "TIER_ORDER",
    "frontend_unit",
    "normalize_tiers",
    "recovery_fingerprint",
    "ANNOTATION_TAG",
    "BUILTIN_FUNCTIONS",
    "BUILTIN_PRELUDE",
    "ExtractedAnnotation",
    "Macro",
    "ModuleLowerer",
    "ParsedUnit",
    "PreprocessedSource",
    "Preprocessor",
    "Program",
    "SHM_ALLOCATORS",
    "SHM_DEALLOCATORS",
    "TypeBuilder",
    "annotation_line_count",
    "attach_annotations",
    "load_files",
    "load_source",
    "lower_units",
    "parse_preprocessed",
]
