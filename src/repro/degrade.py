"""Structured degradation records for partial, fail-closed analyses.

The paper's guarantee is *fail-closed*: anything the analysis cannot
certify must be treated as unmonitored flow into the core.  This module
gives that principle a concrete carrier.  When the frontend, the IR
layer, or the annotation binder cannot process part of a corpus —
a translation unit that does not parse, a function whose SSA
construction fails, an annotation that does not validate — the failure
is captured as a :class:`DegradedUnit` instead of an exception
aborting the whole run.  Downstream consumers react soundly:

- the value-flow engine treats every call into a degraded function as
  an unmonitored non-core source (``degraded:<name>`` taint region),
  so the verdict can only get *stricter*;
- :class:`repro.core.results.AnalysisReport` refuses to report
  ``passed`` while any degraded unit exists and exposes a three-way
  ``verdict`` (``pass`` / ``degraded`` / ``fail``);
- reporting, batch stats, and the server metrics plane surface the
  per-unit provenance so an operator can see *what* was skipped and
  *why* rather than a silently smaller result.

Degradation is opt-in, and there is one keep-going mode: any
``AnalysisConfig.recover_tiers`` other than ``None``. ``()`` is
``--keep-going``, the recovery ladder of :mod:`repro.frontend.recovery`
with zero tiers (a unit the strict front end rejects is lost); a
non-empty tuple is ``--recover`` (the unit first falls through those
tiers). Both isolate failures the same way and fail closed around
them. The strict default (``None``) keeps the seed behaviour of
raising a structured :class:`~repro.errors.SafeFlowError` on the first
unprocessable input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from .ir.source import SourceLocation

__all__ = [
    "DegradedUnit",
    "DEGRADED_REGION_PREFIX",
    "degraded_region",
    "degraded_function_names",
    "sort_degraded",
    "KIND_UNIT",
    "KIND_FUNCTION",
    "KIND_ANNOTATION",
    "KIND_CONSTRUCT",
    "KIND_RECOVERED",
]

#: Reserved taint-region prefix for flows that pass through degraded
#: code.  Real shared-memory regions come from ``shmvar`` annotations
#: and can never contain a colon, so the namespace cannot collide.
DEGRADED_REGION_PREFIX = "degraded:"

# The failure granularities the frontend can isolate.
KIND_UNIT = "unit"              # a whole translation unit (parse/cpp)
KIND_FUNCTION = "function"      # one function body (lowering/SSA/verify)
KIND_ANNOTATION = "annotation"  # one SafeFlow annotation block/item
KIND_CONSTRUCT = "construct"    # one top-level declaration
#: a unit the recovery ladder salvaged by rewriting its text
#: (:mod:`repro.frontend.recovery`): the unit *is* analyzed, but every
#: function defined in it stays fail-closed because the analyzed text
#: is not the text the author wrote
KIND_RECOVERED = "recovered"


def degraded_region(name: str) -> str:
    """The synthetic taint region for flows through degraded ``name``."""
    return DEGRADED_REGION_PREFIX + (name or "<unknown>")


@dataclass(frozen=True)
class DegradedUnit:
    """One isolated frontend/IR failure, kept instead of raised.

    ``kind`` is one of :data:`KIND_UNIT`, :data:`KIND_FUNCTION`,
    :data:`KIND_ANNOTATION`, :data:`KIND_CONSTRUCT`.  ``name`` is the
    failed artifact (file name, function name, or annotation text
    prefix); ``function`` names the enclosing function when one is
    known — the value-flow engine fails closed around exactly that
    set.  ``cause`` is the structured diagnostic message of the
    original error.
    """

    kind: str
    name: str
    cause: str
    location: Optional[SourceLocation] = None
    function: Optional[str] = None
    #: recovery-ladder tier that produced this record (kind
    #: :data:`KIND_RECOVERED` only): "gnu", "prelude", "cleanup", ...
    tier: Optional[str] = None
    #: audited provenance of what the tier rewrote/stripped, one human-
    #: readable entry per edit (kind :data:`KIND_RECOVERED` only)
    edits: Tuple[str, ...] = ()

    def __str__(self) -> str:
        where = f"{self.location}: " if self.location is not None else ""
        base = f"{where}degraded {self.kind} {self.name!r}: {self.cause}"
        if self.tier is not None and self.edits:
            base += f" [tier {self.tier}: " + "; ".join(self.edits) + "]"
        elif self.tier is not None:
            base += f" [tier {self.tier}]"
        return base

    def sort_key(self):
        loc = self.location
        return (
            loc.filename if loc is not None else "",
            loc.line if loc is not None else 0,
            self.kind,
            self.name,
            self.cause,
        )

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "cause": self.cause,
        }
        if self.function is not None:
            payload["function"] = self.function
        if self.tier is not None:
            payload["tier"] = self.tier
        if self.edits:
            payload["edits"] = list(self.edits)
        if self.location is not None:
            payload["location"] = {
                "file": self.location.filename,
                "line": self.location.line,
            }
        return payload


def degraded_function_names(units: Iterable[DegradedUnit]) -> Set[str]:
    """The set of function names the engine must fail closed around."""
    return {u.function for u in units if u.function}


def sort_degraded(units: Iterable[DegradedUnit]) -> list:
    """Deterministic order for rendering and JSON output."""
    return sorted(units, key=DegradedUnit.sort_key)
