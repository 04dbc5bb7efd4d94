"""Aggregated results of a SafeFlow run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..degrade import DegradedUnit
from ..reporting.diagnostics import (
    CriticalDependencyError,
    Diagnostic,
    InitializationIssue,
    RestrictionViolation,
    UnmonitoredReadWarning,
    sort_key,
)


@dataclass
class AnalysisStats:
    """Volume/effort statistics of one run (Table 1 support columns).

    ``phase_timings`` and the cache counters observe the performance
    layer (:mod:`repro.perf`). They are deliberately excluded from
    :meth:`AnalysisReport.summary` / :meth:`AnalysisReport.render` so
    cached and parallel runs stay byte-identical to cold sequential
    ones; they surface through ``repro analyze --stats`` and
    :meth:`AnalysisReport.to_json` instead.
    """

    files: int = 0
    functions: int = 0
    #: total IR instructions, counted once at the end of the pipeline
    instructions: int = 0
    loc_total: int = 0
    annotation_lines: int = 0
    shm_regions: int = 0
    noncore_regions: int = 0
    contexts_analyzed: int = 0
    monitored_functions: int = 0
    #: wall-clock seconds per pipeline phase ("frontend", "shm",
    #: "restrictions", "lint", "valueflow", "total")
    phase_timings: Dict[str, float] = field(default_factory=dict)
    frontend_cache_hits: int = 0
    frontend_cache_misses: int = 0
    summary_cache_hits: int = 0
    summary_cache_misses: int = 0
    #: damaged cache entries (checksum mismatch) evicted and recomputed
    cache_integrity_evictions: int = 0
    #: frontend/annotation failures isolated instead of raised
    #: (degraded-mode analysis; see :mod:`repro.degrade`)
    degraded_units: int = 0
    #: units the recovery ladder salvaged (analyzed fail-closed); see
    #: :mod:`repro.frontend.recovery`
    recovered_units: int = 0
    #: per-tier recovery-ladder attempt counts ("strict", "gnu", ...);
    #: populated only when ``--recover`` is active
    recovery_attempts: Dict[str, int] = field(default_factory=dict)
    #: per-tier recovery-ladder success counts
    recovery_successes: Dict[str, int] = field(default_factory=dict)
    #: incremental analysis (repro.incremental): distinct functions
    #: whose summary bodies were recomputed rather than replayed
    functions_reanalyzed: int = 0
    #: size of the dirty dependency cone the segment store invalidated
    #: at the start of the run (0 when nothing changed)
    dirty_cone_size: int = 0
    #: segments evicted by dirty-cone invalidation this run
    segment_evictions: int = 0
    #: trusted segment replays that failed deferred validation and were
    #: rerun in validating mode (should be rare; >0 is worth a look)
    segment_fallbacks: int = 0
    #: analysis-kernel counters (outer iterations, bodies analyzed,
    #: memo hits, sparse invalidations, cache hit rates of the interned
    #: taint / solver layers); populated by the driver after phase 3
    kernel_counters: Dict[str, int] = field(default_factory=dict)
    #: per-(function, context) value-flow body timings, only collected
    #: under ``AnalysisConfig.profile``; label → {calls, seconds,
    #: self_seconds}
    hotspots: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: the verdict was replayed from the memoised program's last
    #: verdict instead of computed (see ``SafeFlow.analyze_source``)
    verdict_replayed: bool = False

    def verdict_copy(self) -> "AnalysisStats":
        """The fields that describe the program and its verdict, not
        the run that produced them: what a replayed verdict carries."""
        stats = AnalysisStats(**{
            name: getattr(self, name) for name in _VERDICT_STATS})
        stats.recovery_attempts = dict(self.recovery_attempts)
        stats.recovery_successes = dict(self.recovery_successes)
        return stats

    def cache_counters(self) -> Dict[str, int]:
        return {
            "frontend_cache_hits": self.frontend_cache_hits,
            "frontend_cache_misses": self.frontend_cache_misses,
            "summary_cache_hits": self.summary_cache_hits,
            "summary_cache_misses": self.summary_cache_misses,
            "cache_integrity_evictions": self.cache_integrity_evictions,
        }

    def to_json(self) -> Dict[str, object]:
        """Wire form of the stats block.

        One schema shared by ``safeflow analyze --json``
        (:meth:`AnalysisReport.to_json`) and the analysis service,
        whose metrics plane (:mod:`repro.server.metrics`) folds the
        ``phase_timings`` and cache counters of every response into
        its histograms.
        """
        out = {
            "files": self.files,
            "functions": self.functions,
            "instructions": self.instructions,
            "loc_total": self.loc_total,
            "shm_regions": self.shm_regions,
            "noncore_regions": self.noncore_regions,
            "contexts_analyzed": self.contexts_analyzed,
            "monitored_functions": self.monitored_functions,
            "degraded_units": self.degraded_units,
            "functions_reanalyzed": self.functions_reanalyzed,
            "dirty_cone_size": self.dirty_cone_size,
            "segment_evictions": self.segment_evictions,
            "segment_fallbacks": self.segment_fallbacks,
            "phase_timings": dict(self.phase_timings),
            **self.cache_counters(),
        }
        if self.recovered_units:
            out["recovered_units"] = self.recovered_units
        if self.recovery_attempts:
            out["recovery_attempts"] = dict(self.recovery_attempts)
        if self.recovery_successes:
            out["recovery_successes"] = dict(self.recovery_successes)
        if self.kernel_counters:
            out["kernel_counters"] = dict(self.kernel_counters)
        if self.hotspots:
            out["hotspots"] = {
                label: dict(rec) for label, rec in self.hotspots.items()
            }
        if self.verdict_replayed:
            out["verdict_replayed"] = True
        return out


#: program- and verdict-derived stats; everything else describes a run
_VERDICT_STATS = (
    "files", "functions", "instructions", "loc_total", "annotation_lines",
    "shm_regions", "noncore_regions", "contexts_analyzed",
    "monitored_functions", "degraded_units", "recovered_units",
)


@dataclass
class AnalysisReport:
    """Everything SafeFlow found, Table-1-ready.

    ``errors`` includes candidate false positives (the tool reports
    them; the paper's workflow inspects them manually with the value
    flow graphs). ``confirmed_errors`` / ``candidate_false_positives``
    split them by the triage rule of §3.4.1.
    """

    name: str = "program"
    warnings: List[UnmonitoredReadWarning] = field(default_factory=list)
    errors: List[CriticalDependencyError] = field(default_factory=list)
    violations: List[RestrictionViolation] = field(default_factory=list)
    init_issues: List[InitializationIssue] = field(default_factory=list)
    #: advisory findings (e.g. vacuous-monitor lint); do not affect the
    #: Table 1 counts or ``passed``
    lint_findings: List[Diagnostic] = field(default_factory=list)
    stats: AnalysisStats = field(default_factory=AnalysisStats)
    #: DOT text of the value flow graph per error index (for manual triage)
    witness_graphs: Dict[int, str] = field(default_factory=dict)
    #: per-unit provenance of degraded-mode recovery: everything the
    #: frontend could not process and failed closed around
    degraded: List[DegradedUnit] = field(default_factory=list)

    # ------------------------------------------------------------------

    def verdict_copy(self, name: str) -> "AnalysisReport":
        """A fresh report with this one's findings under ``name``.

        The diagnostics are frozen, so copying the lists is enough to
        keep a caller's edits out of the original; the stats carry only
        :meth:`AnalysisStats.verdict_copy`, no timings or counters.
        """
        return AnalysisReport(
            name=name,
            warnings=list(self.warnings),
            errors=list(self.errors),
            violations=list(self.violations),
            init_issues=list(self.init_issues),
            lint_findings=list(self.lint_findings),
            stats=self.stats.verdict_copy(),
            witness_graphs=dict(self.witness_graphs),
            degraded=list(self.degraded),
        )

    @property
    def diagnostics(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        out.extend(self.violations)
        out.extend(self.init_issues)
        out.extend(self.warnings)
        out.extend(self.errors)
        out.extend(self.lint_findings)
        return sorted(out, key=sort_key)

    @property
    def confirmed_errors(self) -> List[CriticalDependencyError]:
        return [e for e in self.errors if not e.candidate_false_positive]

    @property
    def candidate_false_positives(self) -> List[CriticalDependencyError]:
        return [e for e in self.errors if e.candidate_false_positive]

    @property
    def passed(self) -> bool:
        """True when the safe-value-flow property holds unconditionally.

        A degraded run can never pass: parts of the program were not
        analyzed, so the property was not verified for them — the
        fail-closed guarantee is that the tool never certifies what it
        could not see.
        """
        return (not self.errors and not self.violations
                and not self.init_issues and not self.degraded)

    @property
    def verdict(self) -> str:
        """Three-way verdict: ``pass`` / ``degraded`` / ``fail``.

        ``degraded`` means no violation was found in the analyzed part
        *but* some units were skipped fail-closed; ``fail`` means a
        real finding exists (degraded or not).
        """
        if self.errors or self.violations or self.init_issues:
            return "fail"
        if self.degraded:
            return "degraded"
        return "pass"

    def counts(self) -> Dict[str, int]:
        """The Table 1 row for this program."""
        return {
            "warnings": len(self.warnings),
            "errors": len(self.confirmed_errors),
            "false_positives": len(self.candidate_false_positives),
            "violations": len(self.violations),
            "annotation_lines": self.stats.annotation_lines,
        }

    def summary(self) -> str:
        c = self.counts()
        lines = [
            f"SafeFlow report for {self.name}",
            f"  functions analyzed : {self.stats.functions}"
            f" ({self.stats.contexts_analyzed} contexts)",
            f"  shared regions     : {self.stats.shm_regions}"
            f" ({self.stats.noncore_regions} non-core)",
            f"  warnings           : {c['warnings']}",
            f"  error dependencies : {c['errors']}",
            f"  candidate false pos: {c['false_positives']}",
            f"  restriction checks : "
            + ("clean" if not self.violations else f"{c['violations']} violations"),
        ]
        if self.degraded:
            lines.append(
                f"  degraded units     : {len(self.degraded)} (fail-closed)"
            )
        return "\n".join(lines)

    def render(self, verbose: bool = False) -> str:
        """Full human-readable report.

        The degradation section only appears when degradation actually
        occurred, so non-degraded runs stay byte-identical to the
        strict pipeline's output.
        """
        parts = [self.summary(), ""]
        for diag in self.diagnostics:
            parts.append(str(diag))
            if verbose and isinstance(diag, CriticalDependencyError) and diag.witness:
                parts.append("    " + diag.witness_text())
        if self.degraded:
            parts.append("degraded units (analyzed fail-closed):")
            for unit in self.degraded:
                parts.append(f"  {unit}")
        return "\n".join(parts)

    def to_json(self) -> dict:
        """Machine-readable form (used by ``safeflow analyze --json``)."""

        def diag(d) -> dict:
            return {
                "severity": str(d.severity),
                "message": d.message,
                "function": d.function,
                "location": str(d.location) if d.location else None,
            }

        return {
            "name": self.name,
            "counts": self.counts(),
            "passed": self.passed,
            "verdict": self.verdict,
            "degraded": [u.to_json() for u in self.degraded],
            "stats": self.stats.to_json(),
            "warnings": [
                dict(diag(w), region=w.region) for w in self.warnings
            ],
            "errors": [
                dict(
                    diag(e),
                    kind=str(e.kind),
                    variable=e.variable,
                    candidate_false_positive=e.candidate_false_positive,
                    witness=list(e.witness),
                )
                for e in self.errors
            ],
            "violations": [
                dict(diag(v), rule=v.rule) for v in self.violations
            ],
            "init_issues": [diag(i) for i in self.init_issues],
        }
