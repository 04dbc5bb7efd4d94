"""Exception hierarchy for the SafeFlow reproduction.

Every error raised by the library derives from :class:`SafeFlowError`
so callers can catch the whole family with one ``except`` clause.
Errors that carry a source position expose ``location`` (a
:class:`repro.ir.source.SourceLocation` or ``None``).
"""

from __future__ import annotations


class SafeFlowError(Exception):
    """Base class for all errors raised by this library."""

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.message = message
        self.location = location

    def __str__(self) -> str:
        if self.location is not None:
            return f"{self.location}: {self.message}"
        return self.message


class PreprocessorError(SafeFlowError):
    """Raised when the mini C preprocessor cannot process an input."""


class AnnotationError(SafeFlowError):
    """Raised for malformed or misplaced SafeFlow annotations."""


class ParseError(SafeFlowError):
    """Raised when the C parser rejects an input file."""


class LoweringError(SafeFlowError):
    """Raised when a C construct cannot be lowered to the IR.

    The paper's language subset intentionally excludes some constructs
    (e.g. ``goto``); lowering reports them through this error rather
    than silently mis-modelling them.
    """


class IRError(SafeFlowError):
    """Raised for malformed IR detected by the verifier or builders."""


class AnalysisError(SafeFlowError):
    """Raised when an analysis phase cannot complete."""


class ResourceExhaustedError(SafeFlowError):
    """Raised when an analysis exceeds a resource guard.

    ``kind`` names the budget that ran out: ``"deadline"`` (the
    in-analysis wall-clock deadline checked in the outer fixpoint and
    the constraint solver), ``"cpu"`` (the ``RLIMIT_CPU`` soft cap via
    ``SIGXCPU``), or ``"rss"`` (the memory cap — a ``MemoryError``
    under ``RLIMIT_AS``). Worker entry points translate it into a
    structured ``resource_exhausted`` result instead of letting a
    runaway input take the worker (or the whole batch) down.
    """

    def __init__(self, message: str, kind: str = "deadline", location=None):
        super().__init__(message, location)
        self.kind = kind


class SolverError(SafeFlowError):
    """Raised by the affine constraint solver on malformed systems."""


class CorpusError(SafeFlowError):
    """Raised when a bundled corpus system is missing or inconsistent."""


class SimulationError(SafeFlowError):
    """Raised by the runtime/Simplex simulation substrate."""
