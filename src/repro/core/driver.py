"""The SafeFlow facade: front end + phases 1–3 + reporting.

This is the entry point a user of the library touches::

    from repro import SafeFlow

    report = SafeFlow().analyze_files(["core_controller.c"])
    print(report.render())

The three phases follow §3.3 of the paper:

1. identify pointers to shared memory interprocedurally
   (:mod:`repro.shm`);
2. enforce the language restrictions P1–P3, A1, A2
   (:mod:`repro.restrictions`);
3. identify non-core accesses and check critical-data dependencies
   (:mod:`repro.valueflow`).

With ``config.cache_dir`` set, the performance layer (:mod:`repro.perf`)
kicks in: front-ended programs are reused from a content-hash-keyed
store on disk. Every verdict computed there is kept beside its
program as a verdict record, and a later hit under the same config
fingerprint replays that verdict without running phases 1-3
(``AnalysisStats.verdict_replayed``). The incremental
session (:mod:`repro.incremental`) additionally hands phase 3 its
segment store, so summary bodies of unchanged functions are replayed
instead of recomputed. All three paths are behavior-preserving —
reports render byte-identical to a cold run — and observable through
``AnalysisStats.phase_timings`` and the cache hit/miss counters.
"""

from __future__ import annotations

import os
import re
import time
from typing import List, Optional, Sequence, Union

from ..frontend.driver import Program, load_files, load_source, recover_token
from .config import AnalysisConfig
from .results import AnalysisReport, AnalysisStats

_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/")


class SafeFlow:
    """Static analyzer enforcing the safe-value-flow property."""

    def __init__(self, config: Optional[AnalysisConfig] = None):
        self.config = config or AnalysisConfig()

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def analyze_source(self, text: str, filename: str = "<source>",
                       name: str = "program") -> AnalysisReport:
        """Analyze a single C source string (the core component)."""
        config = self.config
        return self._analyze_loaded(
            lambda: load_source(
                text, filename=filename, defines=config.defines,
                verify=config.verify_ir, recover_tiers=config.recover_tiers,
            ),
            lambda cache: cache.key_for_source(
                text, filename, config.defines, config.verify_ir,
                self._recover_token(),
            ), name=name, source_text=text)

    def analyze_files(self, paths: Sequence[str],
                      name: str = "program") -> AnalysisReport:
        """Analyze one or more C files as a whole program."""
        config = self.config
        return self._analyze_loaded(
            lambda: load_files(
                paths, include_dirs=config.include_dirs,
                defines=config.defines, verify=config.verify_ir,
                recover_tiers=config.recover_tiers,
            ),
            lambda cache: cache.key_for_files(
                paths, config.include_dirs, config.defines,
                config.verify_ir, self._recover_token(),
            ), name=name)

    def _analyze_loaded(self, frontend, cache_key, name: str,
                        source_text: Optional[str] = None) -> AnalysisReport:
        """Look ``cache_key(cache)`` up in the program store — or build
        the program with ``frontend()`` and store it — and analyze it.

        When this run is eligible (:meth:`_verdict_key`), the store
        answers with the verdict record under the same config
        fingerprint if it has one, and that verdict is replayed
        without running phases 1-3. Otherwise the computed verdict is
        recorded. The program this request built or unpickled is its
        own, and it is released before the request returns.
        """
        from ..perf.gcpause import gc_paused

        with gc_paused(self.config.pause_gc):
            cache = self._ir_cache()
            started = time.perf_counter()
            key = program = verdict = verdict_key = None
            if cache is not None:
                key = cache_key(cache)
                verdict_key = self._verdict_key()
                program, verdict = cache.lease(key, verdict_key)
            if program is None and verdict is None:
                program = frontend()
                if cache is not None:
                    cache.store(key, program)
            frontend_seconds = time.perf_counter() - started
            try:
                if verdict is not None:
                    return _replay(verdict, name, cache, frontend_seconds,
                                   started)
                report = self.analyze_program(
                    program,
                    name=name,
                    source_text=source_text,
                    frontend_seconds=frontend_seconds,
                    ir_cache=cache,
                )
                if verdict_key is not None:
                    cache.store_verdict(key, verdict_key, program.deps,
                                        report.verdict_copy(name))
                return report
            finally:
                if program is not None:
                    program.module.release()
                # drop the frame's reference now, so the program's
                # acyclic parts die by refcount before the guard exits
                program = None

    def analyze_request(self, *, source: Optional[str] = None,
                        filename: str = "<source>",
                        files: Optional[Sequence[str]] = None,
                        name: str = "program") -> AnalysisReport:
        """Analyze exactly one of ``source`` (inline C text) or
        ``files`` (paths).

        The submission shape of the analysis service
        (:mod:`repro.server`): a request carries either the literal
        source of a core component or the paths of its translation
        units, and both routes must produce reports byte-identical to
        the corresponding direct call. ``ValueError`` on an ambiguous
        or empty request.
        """
        if (source is None) == (files is None):
            raise ValueError(
                "analyze_request takes exactly one of source= or files="
            )
        if source is not None:
            return self.analyze_source(source, filename=filename, name=name)
        return self.analyze_files(list(files), name=name)

    def analyze_batch(self, jobs: Sequence, max_workers: Optional[int] = None,
                      timeout: Optional[float] = None,
                      guards=None, max_crashes: int = 2,
                      fail_fast: bool = False):
        """Analyze independent programs in parallel worker processes.

        ``jobs`` is a sequence of :class:`repro.perf.BatchJob` or
        ``(name, [paths])`` pairs; each job is a whole program analyzed
        with this analyzer's config. Returns a
        :class:`repro.perf.BatchOutcome` with per-job reports/errors in
        job order. ``max_workers=1`` runs sequentially in-process.
        ``guards`` (a :class:`repro.resilience.ResourceGuards`) caps
        each worker's CPU/RSS budget; ``max_crashes`` is the
        quarantine threshold of the crash supervision.

        ``fail_fast`` stops dispatching after the first failed job.
        With a ``cache_dir``, the batch is durable: every job that
        finishes leaves an fsynced verdict record, so the same batch run
        again after a crash replays the finished jobs and computes only
        the rest (see :func:`repro.perf.batch.run_batch`).
        """
        from ..perf.batch import BatchJob, run_batch

        normalized: List[BatchJob] = []
        for job in jobs:
            if isinstance(job, BatchJob):
                normalized.append(job)
            else:
                name, files = job
                normalized.append(BatchJob(name=name, files=tuple(files)))
        if max_workers is None:
            max_workers = min(len(normalized), os.cpu_count() or 1)
        return run_batch(
            normalized, self.config, max_workers=max_workers,
            timeout=timeout, guards=guards, max_crashes=max_crashes,
            fail_fast=fail_fast,
        )

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------

    def analyze_program(self, program: Program, name: str = "program",
                        source_text: Optional[str] = None,
                        frontend_seconds: Optional[float] = None,
                        ir_cache=None, summary_store=None) -> AnalysisReport:
        """``summary_store`` is the incremental session's long-lived
        :class:`~repro.incremental.segments.SegmentStore`
        (:mod:`repro.incremental`): successive verdicts record and
        replay summary bodies through one on-disk segment map."""
        from ..perf.gcpause import gc_paused

        with gc_paused(self.config.pause_gc):
            return self._analyze_program(
                program, name=name, source_text=source_text,
                frontend_seconds=frontend_seconds, ir_cache=ir_cache,
                store=summary_store,
            )

    def _analyze_program(self, program: Program, name: str = "program",
                         source_text: Optional[str] = None,
                         frontend_seconds: Optional[float] = None,
                         ir_cache=None, store=None) -> AnalysisReport:
        from ..restrictions.checker import check_restrictions
        from ..shm.propagation import ShmAnalysis
        from ..valueflow.engine import ValueFlowAnalysis

        from ..restrictions.solver import solver_cache_stats
        from ..valueflow.taint import taint_cache_stats

        started = time.perf_counter()
        report = AnalysisReport(name=name)
        report.stats = self._base_stats(program, source_text)
        timings = report.stats.phase_timings
        # the taint/solver caches are process-global; bracket the whole
        # pipeline (the solver runs in phase 2) to report this run's
        # contribution as deltas
        taint_before = taint_cache_stats()
        solver_before = solver_cache_stats()
        if frontend_seconds is not None:
            timings["frontend"] = frontend_seconds
        if ir_cache is not None:
            report.stats.frontend_cache_hits = ir_cache.hits
            report.stats.frontend_cache_misses = ir_cache.misses
            report.stats.cache_integrity_evictions += (
                ir_cache.integrity_evictions)

        # phase 1: shared-memory pointer identification
        phase_start = time.perf_counter()
        shm = ShmAnalysis(program, self.config)
        shm.run()
        timings["shm"] = time.perf_counter() - phase_start
        report.init_issues.extend(shm.init_issues)
        report.stats.shm_regions = len(shm.regions)
        report.stats.noncore_regions = sum(
            1 for r in shm.regions.values() if r.noncore
        )

        # phase 2: language restrictions
        if self.config.check_restrictions:
            phase_start = time.perf_counter()
            report.violations.extend(check_restrictions(program, shm, self.config))
            timings["restrictions"] = time.perf_counter() - phase_start

        # extension: vacuous-monitor lint (advisory)
        if self.config.lint_monitors:
            from ..valueflow.monitor_lint import lint_monitors

            phase_start = time.perf_counter()
            report.lint_findings.extend(
                lint_monitors(program, shm, self.config)
            )
            timings["lint"] = time.perf_counter() - phase_start

        # phase 3: value flow
        phase_start = time.perf_counter()
        if store is not None:
            # the session's store outlives this call: report this run's
            # contribution as deltas
            hits_before = store.hits
            misses_before = store.misses
            integrity_before = store.integrity_evictions
            evictions_before = store.evictions
        vf = ValueFlowAnalysis(program, shm, self.config, summary_store=store)
        vf.run()
        if vf.replay_validation_failed:
            # optimistic (trusted) segment replay could not prove its
            # deferred reads against the converged state: rerun phase 3
            # with validating replay. Every mismatching record is then
            # rejected sweep-by-sweep and recomputed, so the rerun's
            # fixpoint is a cold run's.
            report.stats.segment_fallbacks += 1
            prior_trust = store.trust_replay
            store.trust_replay = False
            try:
                vf = ValueFlowAnalysis(
                    program, shm, self.config, summary_store=store)
                vf.run()
            finally:
                store.trust_replay = prior_trust
        timings["valueflow"] = time.perf_counter() - phase_start
        if store is not None:
            report.stats.summary_cache_hits = store.hits - hits_before
            report.stats.summary_cache_misses = store.misses - misses_before
            report.stats.cache_integrity_evictions += (
                store.integrity_evictions - integrity_before)
            report.stats.functions_reanalyzed = len({
                fname for fname, _, status in vf.summary_events
                if status == "miss"
            })
            report.stats.dirty_cone_size = len(store.last_cone)
            report.stats.segment_evictions = (
                store.evictions - evictions_before)
        report.stats.kernel_counters = dict(vf.kernel_counters)
        for key, value in taint_cache_stats().items():
            report.stats.kernel_counters[key] = value - taint_before.get(key, 0)
        for key, value in solver_cache_stats().items():
            report.stats.kernel_counters[key] = value - solver_before.get(key, 0)
        if self.config.profile:
            report.stats.hotspots = {
                label: rec for label, rec in sorted(
                    vf.body_profile.items(),
                    key=lambda item: item[1]["self_seconds"],
                    reverse=True,
                )
            }
        report.warnings.extend(vf.warnings)
        report.errors.extend(vf.errors)
        report.witness_graphs = vf.witness_graphs
        report.stats.contexts_analyzed = vf.contexts_analyzed
        report.stats.monitored_functions = len(
            [f for f, items in program.function_annotations.items() if items]
        )
        # degraded-mode provenance: everything the frontend (and the
        # shm annotation collector) failed closed around. getattr keeps
        # programs pickled by older cache entries loadable.
        from ..degrade import sort_degraded

        report.degraded = sort_degraded(getattr(program, "degraded", []) or [])
        report.stats.degraded_units = len(report.degraded)
        report.stats.recovery_attempts = dict(
            getattr(program, "recovery_attempts", {}) or {})
        report.stats.recovery_successes = dict(
            getattr(program, "recovery_successes", {}) or {})
        report.stats.recovered_units = sum(
            1 for d in report.degraded if d.kind == "recovered")
        # counted here, not on demand: a lazy count would have to keep
        # the whole IR alive for as long as the report lives
        report.stats.instructions = sum(
            len(block.instructions)
            for func in program.module.defined_functions()
            for block in func.blocks
        )
        timings["total"] = (
            time.perf_counter() - started + (frontend_seconds or 0.0)
        )
        return report

    # ------------------------------------------------------------------
    # performance layer plumbing
    # ------------------------------------------------------------------

    def _recover_token(self):
        return recover_token(self.config.recover_tiers)

    def _ir_cache(self):
        if not self.config.cache_dir:
            return None
        from ..perf.ircache import IRCache

        return IRCache(self.config.cache_dir)

    def _verdict_key(self) -> Optional[str]:
        """The key a verdict record is kept and replayed under, or
        ``None`` when this run must compute: ``profile`` runs measure
        their hotspots."""
        if self.config.profile:
            return None
        from ..perf.fingerprint import config_fingerprint

        return config_fingerprint(self.config)

    # ------------------------------------------------------------------

    def _base_stats(self, program: Program,
                    source_text: Optional[str]) -> AnalysisStats:
        stats = AnalysisStats()
        stats.files = len(program.units)
        stats.functions = sum(1 for _ in program.module.defined_functions())
        stats.annotation_lines = program.annotation_lines
        if source_text is not None:
            stats.loc_total = _count_loc(source_text)
        return stats


def _replay(verdict: AnalysisReport, name: str, cache,
            frontend_seconds: float, started: float) -> AnalysisReport:
    """A stored verdict as this request's report: the findings and
    program-derived stats, with this run's IR-cache counters and a
    ``frontend``/``total`` timing (phases 1-3 did not run)."""
    report = verdict.verdict_copy(name)
    stats = report.stats
    stats.verdict_replayed = True
    stats.frontend_cache_hits = cache.hits
    stats.frontend_cache_misses = cache.misses
    stats.cache_integrity_evictions = cache.integrity_evictions
    stats.phase_timings = {"frontend": frontend_seconds,
                           "total": time.perf_counter() - started}
    return report


def _count_loc(text: str) -> int:
    """Non-blank, non-comment-only line count (Table 1's LOC metric)."""
    count = 0
    in_comment = False
    for line in text.splitlines():
        stripped = line.strip()
        if in_comment:
            if "*/" in stripped:
                in_comment = False
                stripped = stripped.split("*/", 1)[1].strip()
            else:
                continue
        # drop any complete /* ... */ spans within the line
        stripped = _BLOCK_COMMENT_RE.sub("", stripped).strip()
        if stripped.startswith("/*"):
            in_comment = True
            continue
        if not stripped or stripped.startswith("//"):
            continue
        count += 1
    return count
