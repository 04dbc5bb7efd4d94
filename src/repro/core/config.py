"""Analysis configuration knobs (including ablation switches)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass
class AnalysisConfig:
    """Configuration of a SafeFlow run.

    The defaults reproduce the paper's tool. The ablation switches
    exist for the benchmarks in ``benchmarks/bench_ablation.py``:

    - ``context_sensitive=False`` analyzes each function once with the
      union of all assumed-core contexts (the paper argues per-call-
      sequence re-analysis is affordable on small cores, §3.3);
    - ``track_control_dependence=False`` drops control-dependence taint
      entirely (eliminating §3.4.1 false positives *and* real control-
      flow channels — unsound, kept only to quantify the trade-off);
    - ``check_restrictions=False`` skips phase 2 (P1–P3/A1/A2).

    Phase 3 has one implementation and no switches for it: the sparse
    outer fixpoint over compiled bitset bodies
    (:mod:`repro.valueflow.kernel`). The object-domain kernel and the
    dense outer loop it was checked against are test oracles
    (``tests/oracles``), not configuration.
    """

    #: re-analyze functions per assumed-core calling context (§3.3)
    context_sensitive: bool = True
    #: ESP-style summaries (§3.3 last paragraph): analyze each function
    #: once per assumed-core context with *symbolic* parameter taints
    #: and substitute actual argument taints at call sites, instead of
    #: re-analyzing per argument-taint combination. Same reports,
    #: fewer analyses. Only meaningful with context_sensitive=True.
    summary_mode: bool = False
    #: propagate taint through control dependence (§3.4.1)
    track_control_dependence: bool = True
    #: run phase 2 language-restriction checks (P1–P3, A1, A2)
    check_restrictions: bool = True
    #: classify control-dependence-only errors as candidate false
    #: positives in the report (the paper's manual triage aid)
    triage_control_dependence: bool = True
    #: treat reads of shared memory *not* annotated noncore as core
    #: (paper: core(S) holds only "if it can be verified"; shmvar
    #: regions without a noncore annotation are core by declaration).
    #: False = paranoid mode: every region is noncore regardless of
    #: annotations — useful when the write-audit verification of §2
    #: has not been done.
    unannotated_shm_is_core: bool = True
    #: maximum distinct assumed-core contexts per function before the
    #: analysis falls back to merging (guards the exponential blow-up
    #: the paper acknowledges)
    max_contexts_per_function: int = 64
    #: additional defines passed to the preprocessor
    defines: Dict[str, str] = field(default_factory=dict)
    #: extra include directories
    include_dirs: Tuple[str, ...] = ()
    #: run the IR verifier after lowering (cheap; catches front-end bugs)
    verify_ir: bool = True
    #: lint monitoring functions for vacuous monitors (an extension
    #: mitigating the paper's false-negative limitation: an
    #: assume(core(...)) on a function that never tests the monitored
    #: values silently launders unsafe data)
    lint_monitors: bool = True
    #: socket descriptors annotated noncore for the §3.4.3 message-
    #: passing extension are honored when this is on
    message_passing_extension: bool = True
    #: directory for the performance layer's on-disk caches; None
    #: disables all caching (the default — caching is opt-in for the
    #: library, opted into by the CLI): the program store
    #: (:mod:`repro.perf.ircache`) lives under it. Never part of a cache
    #: key.
    cache_dir: Optional[str] = None
    #: collect kernel counters and per-body timings during the
    #: value-flow phase (surfaced as ``AnalysisStats.hotspots`` /
    #: ``kernel_counters`` and by ``safeflow analyze --profile``)
    profile: bool = False
    #: pause the cyclic garbage collector for the duration of each
    #: pipeline run (an amortised collection afterwards, see
    #: :mod:`repro.perf.gcpause`). The analysis
    #: allocates heavily and keeps almost all of it live until the
    #: report is built, so mid-phase collections are pure overhead —
    #: 20-30% of wall time on the bench workloads. Report-preserving,
    #: never part of a cache key.
    pause_gc: bool = True
    #: keep-going analysis, one value for both modes. ``None`` (the
    #: default) is strict: the first unprocessable input raises.
    #: Otherwise frontend and annotation failures are isolated per
    #: translation unit / function / annotation as structured
    #: :class:`repro.degrade.DegradedUnit` records and the rest of the
    #: corpus is still analyzed, failing *closed* around the degraded
    #: parts (calls into them become unmonitored non-core flow and the
    #: verdict becomes ``degraded``). The value names the enabled tiers
    #: of the recovery ladder of :mod:`repro.frontend.recovery` ("gnu",
    #: "prelude", "cleanup", "salvage"), which a unit the strict front
    #: end rejects falls through before it is recorded as lost: ``()``
    #: is ``--keep-going`` (the ladder with zero tiers), a non-empty
    #: tuple is ``--recover``. A salvaged unit is analyzed fail-closed
    #: — every function it defines is degraded, so a verdict can only
    #: go pass → degraded, never degraded → pass. Part of the analysis
    #: fingerprint (with the tier format version and GNU parser
    #: strategy when tiers are on): strict, keep-going and recovering
    #: runs never share cached results.
    recover_tiers: Optional[Tuple[str, ...]] = None
