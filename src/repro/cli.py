"""Command-line interface: ``safeflow``.

Subcommands::

    safeflow analyze FILE...     # run the analysis on C sources
    safeflow watch PATH...       # incremental re-verdicts on file change
    safeflow batch FILE...       # analyze independent programs in parallel
    safeflow serve               # long-lived analysis service (JSON-RPC)
    safeflow chaos               # fault-injection harness (resilience)
    safeflow corpus [KEY]        # analyze a bundled Table-1 system
    safeflow table1              # reproduce Table 1 (measured vs paper)
    safeflow demo                # run the Simplex pendulum demo
    safeflow gen [FILE]          # generate a synthetic core component

``analyze``, ``batch`` and ``serve`` use the on-disk caches of
:mod:`repro.perf` by default (``$SAFEFLOW_CACHE_DIR`` or
``~/.cache/safeflow``); disable with ``--no-cache``, relocate with
``--cache-dir``.

Exit codes are uniform across subcommands:

====  =================================================================
code  meaning
====  =================================================================
0     analysis ran and the property holds for every unit/job
1     analysis ran and found errors/violations, or (keep-going)
      some jobs passed while others were degraded fail-closed
2     the tool itself failed (bad input, job crash, timeout) — or, under
      ``--keep-going``/``--recover``, *nothing was certified*: every
      job's verdict is ``degraded``, so no finding exists but no part of
      the corpus passed either
====  =================================================================

Jobs submitted through a daemon or fleet can additionally be refused
at admission (they never ran, so no verdict exists):

==============  =====================================================
outcome         meaning
==============  =====================================================
rate_limited    the tenant exceeded its token-bucket quota; the error
                carries ``retry_after_s`` and a well-behaved client
                (``SafeFlowClient``) retries after that long, within
                its retry budget
shed            brownout: the daemon is saturated and dropped this
                request *before* accepting it (low-priority tenants
                first, then cold-cache jobs); not retryable until
                load drops — accepted work is never shed
==============  =====================================================

Failures are always reported as structured one-line errors, never raw
tracebacks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

from .core.config import AnalysisConfig
from .core.driver import SafeFlow
from .core.results import AnalysisReport
from .errors import SafeFlowError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safeflow",
        description="SafeFlow: static analysis to enforce safe value flow "
                    "in embedded control systems (DSN 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze C source files")
    analyze.add_argument("files", nargs="+", help="C files of the core component")
    analyze.add_argument("--name", default="program")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable output")
    analyze.add_argument("--verbose", "-v", action="store_true",
                         help="include value-flow witness paths")
    analyze.add_argument("--dot", metavar="FILE",
                         help="write the value flow graph as DOT")
    analyze.add_argument("--no-restrictions", action="store_true",
                         help="skip phase 2 (P1-P3/A1/A2)")
    analyze.add_argument("--context-insensitive", action="store_true",
                         help="ablation: analyze each function once")
    analyze.add_argument("--summaries", action="store_true",
                         help="use ESP-style function summaries (§3.3)")
    analyze.add_argument("--paranoid", action="store_true",
                         help="treat every shared region as non-core")
    analyze.add_argument("--no-lint", action="store_true",
                         help="skip the vacuous-monitor lint")
    analyze.add_argument("--keep-going", action="store_true",
                         help="degraded mode: recover from front-end "
                              "failures, analyze the rest fail-closed "
                              "(a degraded verdict never passes)")
    _add_recover_flag(analyze)
    analyze.add_argument("--include", "-I", action="append", default=[],
                         help="include directory")
    analyze.add_argument("--stats", action="store_true",
                         help="print per-phase timings and cache counters")
    analyze.add_argument("--profile", action="store_true",
                         help="collect analysis-kernel counters and "
                              "per-body timings; print the hottest bodies")
    _add_cache_flags(analyze)

    watch = sub.add_parser(
        "watch",
        help="watch C sources and re-verdict incrementally on change",
        description="Keeps the front end and a disk-backed value-flow "
                    "segment store alive between verdicts: an edit "
                    "re-lowers only the touched unit, invalidates the "
                    "dirty dependency cone, replays every intact "
                    "segment, and emits a verdict byte-identical to a "
                    "cold run.",
    )
    watch.add_argument("paths", nargs="+",
                       help="C files and/or directories to watch "
                            "(directories are rescanned for *.c)")
    watch.add_argument("--name", default="program")
    watch.add_argument("--interval", type=float, default=0.2, metavar="SEC",
                       help="poll interval in seconds (default: 0.2)")
    watch.add_argument("--idle-release", type=float, default=2.0,
                       metavar="SEC",
                       help="seconds without a change before the gc "
                            "pause held across a re-verdict burst is "
                            "released (default: 2.0)")
    watch.add_argument("--once", action="store_true",
                       help="run one verdict and exit")
    watch.add_argument("--max-verdicts", type=int, default=None, metavar="N",
                       help="exit after N verdicts")
    watch.add_argument("--duration", type=float, default=None, metavar="SEC",
                       help="exit after SEC seconds")
    watch.add_argument("--json", action="store_true",
                       help="one JSON object per verdict (JSON lines)")
    watch.add_argument("--verbose", "-v", action="store_true",
                       help="include value-flow witness paths")
    watch.add_argument("--stats", action="store_true",
                       help="print per-verdict timings and incremental "
                            "counters")
    watch.add_argument("--keep-going", action="store_true",
                       help="degraded mode: recover from front-end "
                            "failures, analyze the rest fail-closed")
    _add_recover_flag(watch)
    watch.add_argument("--include", "-I", action="append", default=[],
                       help="include directory")
    _add_cache_flags(watch)

    batch = sub.add_parser(
        "batch", help="analyze independent programs in parallel"
    )
    batch.add_argument("files", nargs="*",
                       help="C files; each file is one independent job")
    batch.add_argument("--corpus", action="store_true",
                       help="add the three bundled Table-1 systems as jobs")
    batch.add_argument("--jobs", "-j", type=int, default=0, metavar="N",
                       help="worker processes (default: CPU count; "
                            "1 = sequential in-process)")
    batch.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-job timeout in seconds")
    batch.add_argument("--json", action="store_true",
                       help="machine-readable output")
    batch.add_argument("--summaries", action="store_true",
                       help="use ESP-style function summaries (§3.3)")
    batch.add_argument("--include", "-I", action="append", default=[],
                       help="include directory")
    batch.add_argument("--stats", action="store_true",
                       help="print batch-level counters (restarts, "
                            "quarantines, cache integrity evictions)")
    batch.add_argument("--max-crashes", type=int, default=2, metavar="N",
                       help="worker crashes before a job is quarantined "
                            "(default: 2)")
    policy = batch.add_mutually_exclusive_group()
    policy.add_argument("--keep-going", action="store_true",
                        help="degraded mode: jobs with front-end "
                             "failures yield fail-closed partial "
                             "verdicts instead of errors")
    policy.add_argument("--fail-fast", action="store_true",
                        help="stop dispatching new jobs after the "
                             "first failure (remaining jobs are "
                             "reported as aborted)")
    _add_recover_flag(batch)
    _add_limit_flags(batch)
    _add_cache_flags(batch)

    serve = sub.add_parser(
        "serve", help="run the long-lived analysis service"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=4650, metavar="PORT",
                       help="TCP port (default: 4650; 0 = ephemeral)")
    serve.add_argument("--unix", metavar="PATH", default=None,
                       help="serve on a Unix socket instead of TCP")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="analysis worker processes (default: CPU count)")
    serve.add_argument("--queue-size", type=int, default=64, metavar="N",
                       help="bounded request queue capacity (default: 64)")
    serve.add_argument("--deadline", type=float, default=None, metavar="SEC",
                       help="default per-request deadline in seconds")
    serve.add_argument("--summaries", action="store_true",
                       help="use ESP-style function summaries (§3.3)")
    serve.add_argument("--include", "-I", action="append", default=[],
                       help="include directory")
    serve.add_argument("--metrics-json", metavar="FILE", default=None,
                       help="write a metrics snapshot to FILE on shutdown")
    serve.add_argument("--max-crashes", type=int, default=2, metavar="N",
                       help="worker crashes before a request is "
                            "quarantined (default: 2)")
    serve.add_argument("--in-process", action="store_true",
                       help="run analyses on in-process threads instead "
                            "of worker subprocesses (lower per-request "
                            "overhead, no crash isolation)")
    _add_qos_flags(serve)
    _add_recover_flag(serve)
    _add_limit_flags(serve)
    _add_cache_flags(serve)

    fleet = sub.add_parser(
        "fleet",
        help="run the sharded analysis fleet (front router + N daemons)",
        description="Starts N `safeflow serve` shards and a consistent-"
                    "hash front router speaking the same NDJSON "
                    "JSON-RPC, so SafeFlowClient works unchanged. Jobs "
                    "route by content fingerprint (warm caches stay "
                    "warm) with load-aware work stealing, automatic "
                    "shard restart + in-flight re-dispatch, and "
                    "rolling restarts via --reload.",
    )
    fleet.add_argument("--shards", type=int, default=4, metavar="N",
                       help="shard daemons behind the router (default: 4)")
    fleet.add_argument("--host", default="127.0.0.1",
                       help="router bind address (default: 127.0.0.1)")
    fleet.add_argument("--port", type=int, default=4650, metavar="PORT",
                       help="router TCP port (default: 4650; "
                            "0 = ephemeral)")
    fleet.add_argument("--workers-per-shard", type=int, default=1,
                       metavar="N",
                       help="analysis workers per shard daemon "
                            "(default: 1)")
    fleet.add_argument("--queue-size", type=int, default=64, metavar="N",
                       help="per-shard request queue capacity "
                            "(default: 64)")
    fleet.add_argument("--summaries", action="store_true",
                       help="use ESP-style function summaries (§3.3)")
    fleet.add_argument("--steal-threshold", type=int, default=2,
                       metavar="N",
                       help="home-shard load at which work stealing is "
                            "considered (default: 2)")
    fleet.add_argument("--steal-margin", type=int, default=2, metavar="N",
                       help="minimum load gap before a colder shard "
                            "steals (default: 2)")
    fleet.add_argument("--health-interval", type=float, default=0.5,
                       metavar="SEC",
                       help="seconds between shard health polls "
                            "(default: 0.5)")
    fleet.add_argument("--conns-per-shard", type=int, default=8,
                       metavar="N",
                       help="concurrent router connections per shard "
                            "(default: 8)")
    fleet.add_argument("--in-process", action="store_true",
                       help="embed shard daemons in the router process "
                            "(testing; no crash isolation)")
    fleet.add_argument("--reload", action="store_true",
                       help="rolling-restart the shards of the fleet "
                            "already running at --host/--port, then "
                            "exit (drains one shard at a time; no "
                            "dropped requests)")
    fleet.add_argument("--metrics-json", metavar="FILE", default=None,
                       help="write a fleet metrics snapshot to FILE on "
                            "shutdown")
    _add_qos_flags(fleet)
    _add_cache_flags(fleet)

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection harness and assert recovery",
        description="Runs a deterministic generated workload under "
                    "named fault schedules (worker kills, poisoned "
                    "inputs, cache corruption) and asserts the final "
                    "verdicts are byte-identical to a fault-free run.",
    )
    chaos.add_argument("--smoke", action="store_true",
                       help="small workload, core schedules only (CI)")
    chaos.add_argument("--schedule", action="append", default=None,
                       metavar="NAME",
                       help="run only this schedule (repeatable); one of "
                            "kill, quarantine, slow, corrupt-ir, "
                            "serve-kill, kill-resume, watch-kill, "
                            "tier-crash, overload")
    chaos.add_argument("--chaos-jobs", type=int, default=6, metavar="N",
                       help="generated programs in the workload "
                            "(default: 6)")
    chaos.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker processes (default: 2)")
    chaos.add_argument("--json", action="store_true",
                       help="machine-readable output")

    corpus = sub.add_parser("corpus", help="analyze a bundled system")
    corpus.add_argument("key", nargs="?", default="ip",
                        choices=["ip", "generic_simplex", "double_ip"])
    corpus.add_argument("--verbose", "-v", action="store_true")

    sub.add_parser("table1", help="reproduce the paper's Table 1")

    demo = sub.add_parser("demo", help="run the Simplex pendulum demo")
    demo.add_argument("--duration", type=float, default=6.0)
    demo.add_argument("--fault-time", type=float, default=1.0)
    demo.add_argument("--rigged", action="store_true",
                      help="inject the feedback-overwrite attack")
    demo.add_argument("--trusting", action="store_true",
                      help="core trusts the shared feedback copy (the bug)")

    gen = sub.add_parser(
        "gen", help="generate a synthetic core component (scaling benches)"
    )
    gen.add_argument("output", nargs="?", default="-", metavar="FILE",
                     help="output path (default: stdout)")
    gen.add_argument("--data-errors", type=int, default=1, metavar="N",
                     help="regions whose unmonitored read corrupts the "
                          "critical output (default: 1)")
    gen.add_argument("--control-fps", type=int, default=1, metavar="N",
                     help="regions steering control flow only — the "
                          "candidate-false-positive class (default: 1)")
    gen.add_argument("--benign", type=int, default=1, metavar="N",
                     help="regions read only for logging (default: 1)")
    gen.add_argument("--monitored", type=int, default=1, metavar="N",
                     help="regions read only through a monitor (default: 1)")
    gen.add_argument("--filler", type=int, default=0, metavar="N",
                     help="pure computation functions (code size)")
    gen.add_argument("--chain", type=int, default=0, metavar="DEPTH",
                     help="call-chain depth (context-sensitivity stress)")
    gen.add_argument("--fanout", type=int, default=0, metavar="N",
                     help="shared helpers every chain function calls "
                          "(call-graph width stress)")
    gen.add_argument("--pipeline", type=int, default=0, metavar="STAGES",
                     help="value-pipeline stages through core shared "
                          "regions (fixpoint-depth stress)")
    gen.add_argument("--no-loops", action="store_true",
                     help="omit loops from generated bodies")
    gen.add_argument("--expect", action="store_true",
                     help="print the expected diagnosis to stderr")
    return parser


def _add_cache_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--no-cache", action="store_true",
                     help="disable the IR cache and segment store")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="cache directory (default: $SAFEFLOW_CACHE_DIR "
                          "or ~/.cache/safeflow)")


def _add_recover_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--recover", nargs="?", const="all", default=None,
                     metavar="TIERS",
                     help="frontend recovery ladder: units the strict "
                          "front end rejects fall through the given "
                          "comma-separated tiers (gnu,prelude,cleanup,"
                          "salvage; no argument = all) before being "
                          "recorded as lost. Salvaged units are "
                          "analyzed fail-closed — they can never "
                          "certify. Implies --keep-going")


def _recover_tiers(args):
    """``AnalysisConfig.recover_tiers`` from ``--keep-going`` and
    ``--recover``: ``None`` (strict), ``()`` (keep-going) or the
    canonical recovery tiers."""
    tiers = ()
    spec = getattr(args, "recover", None)
    if spec is not None:
        from .frontend.recovery import normalize_tiers

        try:
            tiers = normalize_tiers(spec)
        except ValueError as exc:
            raise SafeFlowError(str(exc))
    if tiers or getattr(args, "keep_going", False):
        return tiers
    return None


def _add_qos_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tenants", metavar="FILE", default=None,
                     help="tenants.json quota table: per-tenant weight "
                          "(fair-share), rate/burst (token bucket) and "
                          "priority (brownout shed order); enables "
                          "multi-tenant admission control")
    sub.add_argument("--max-inflight", metavar="N|auto", default=None,
                     help="cap concurrently dispatched analyses: an "
                          "integer fixes the limit, 'auto' adapts it "
                          "(AIMD on the rolling p99)")


def _parse_max_inflight(value):
    """``--max-inflight`` → None | "auto" | int (≥1)."""
    if value is None:
        return None
    if value == "auto":
        return "auto"
    try:
        parsed = int(value)
    except ValueError:
        raise SafeFlowError(
            f"--max-inflight must be an integer or 'auto', got {value!r}")
    if parsed < 1:
        raise SafeFlowError("--max-inflight must be >= 1")
    return parsed


def _load_tenant_table(path):
    if path is None:
        return None
    from .qos import load_tenants

    try:
        return load_tenants(path)
    except (OSError, ValueError) as exc:
        raise SafeFlowError(f"--tenants: {exc}")


def _add_limit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cpu-limit", type=float, default=None, metavar="SEC",
                     help="per-worker CPU-time cap in seconds "
                          "(RLIMIT_CPU; overrun → resource_exhausted)")
    sub.add_argument("--mem-limit", type=float, default=None, metavar="MB",
                     help="per-worker address-space cap in MiB "
                          "(RLIMIT_AS; overrun → resource_exhausted)")


def _guards_from_args(args):
    """:class:`ResourceGuards` from ``--cpu-limit``/``--mem-limit``.

    Sub-second (or zero) values round *up* to the smallest enforceable
    cap rather than truncating to 0, which ``RLIMIT_CPU`` would treat
    as "no budget at all" (instant ``SIGXCPU``); only an omitted flag
    means unlimited.
    """
    if args.cpu_limit is None and args.mem_limit is None:
        return None
    from .resilience import ResourceGuards

    return ResourceGuards(
        cpu_seconds=(max(1, math.ceil(args.cpu_limit))
                     if args.cpu_limit is not None else None),
        rss_bytes=(max(1, math.ceil(args.mem_limit * 1024 * 1024))
                   if args.mem_limit is not None else None),
    )


def _cache_dir(args) -> Optional[str]:
    if args.no_cache:
        return None
    if args.cache_dir:
        return args.cache_dir
    return os.environ.get(
        "SAFEFLOW_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "safeflow"),
    )


def _render_stats(report: AnalysisReport) -> str:
    stats = report.stats
    lines = [f"stats for {report.name}",
             f"  contexts analyzed  : {stats.contexts_analyzed}"]
    for phase, seconds in stats.phase_timings.items():
        lines.append(f"  {phase + ' time':<19}: {seconds * 1000:.1f} ms")
    for counter, value in stats.cache_counters().items():
        lines.append(f"  {counter:<19}: {value}")
    if stats.verdict_replayed:
        lines.append(f"  {'verdict_replayed':<19}: yes")
    incremental = {
        "functions_reanalyzed": stats.functions_reanalyzed,
        "dirty_cone_size": stats.dirty_cone_size,
        "segment_evictions": stats.segment_evictions,
        "segment_fallbacks": stats.segment_fallbacks,
    }
    if any(incremental.values()):
        for counter, value in incremental.items():
            lines.append(f"  {counter:<19}: {value}")
    if stats.recovery_attempts:
        lines.append(f"  recovered units    : {stats.recovered_units}")
        for tier in ("strict", "gnu", "prelude", "cleanup", "salvage"):
            if tier in stats.recovery_attempts:
                lines.append(
                    f"  tier {tier:<14}: "
                    f"{stats.recovery_successes.get(tier, 0)}"
                    f"/{stats.recovery_attempts[tier]} "
                    f"(succeeded/attempted)")
    return "\n".join(lines)


def _render_profile(report: AnalysisReport, top: int = 10) -> str:
    stats = report.stats
    lines = [f"profile for {report.name}"]
    for counter in sorted(stats.kernel_counters):
        lines.append(f"  {counter:<24}: {stats.kernel_counters[counter]}")
    if stats.hotspots:
        lines.append(f"  hottest bodies (self time, top {top}):")
        for label, rec in list(stats.hotspots.items())[:top]:
            lines.append(
                f"    {rec['self_seconds'] * 1000:8.2f} ms "
                f"({rec['calls']:.0f} runs) {label}"
            )
    return "\n".join(lines)


def _report_json(report: AnalysisReport) -> str:
    return json.dumps(report.to_json(), indent=2)


def cmd_analyze(args) -> int:
    config = AnalysisConfig(
        check_restrictions=not args.no_restrictions,
        context_sensitive=not args.context_insensitive,
        summary_mode=args.summaries,
        unannotated_shm_is_core=not args.paranoid,
        lint_monitors=not args.no_lint,
        include_dirs=tuple(args.include),
        cache_dir=_cache_dir(args),
        profile=args.profile,
        recover_tiers=_recover_tiers(args),
    )
    report = SafeFlow(config).analyze_files(args.files, name=args.name)
    if args.json:
        print(_report_json(report))
    else:
        print(report.render(verbose=args.verbose))
        if args.stats:
            print()
            print(_render_stats(report))
        if args.profile:
            print()
            print(_render_profile(report))
    if args.dot and report.witness_graphs:
        with open(args.dot, "w") as f:
            f.write(report.witness_graphs[0])
        print(f"\nvalue flow graph written to {args.dot}")
    return 0 if report.passed else 1


def cmd_watch(args) -> int:
    import time as _time

    from .incremental import IncrementalSession, WatchLoop

    config = AnalysisConfig(
        # incremental replay records/replays summary bodies, so the
        # watch pipeline always runs in summary mode
        summary_mode=True,
        include_dirs=tuple(args.include),
        cache_dir=_cache_dir(args),
        recover_tiers=_recover_tiers(args),
    )
    session = IncrementalSession([], config=config, name=args.name)
    last = {"report": None, "started": _time.perf_counter()}

    def on_report(report):
        elapsed = _time.perf_counter() - last["started"]
        last["report"] = report
        changed = [os.path.basename(p) for p in session.last_changed]
        if args.json:
            payload = report.to_json()
            payload["watch"] = {
                "verdict_index": session.verdicts,
                "changed_files": changed,
                "reverdict_seconds": elapsed,
                "unit_swaps": session.swaps,
                "full_relowers": session.full_relowers,
            }
            print(json.dumps(payload), flush=True)
            return
        header = (f"[verdict {session.verdicts}] "
                  f"{report.verdict.upper()} in {elapsed * 1000:.0f} ms")
        if changed:
            header += f"  changed: {', '.join(changed)}"
        if report.stats.dirty_cone_size:
            header += (f"  cone={report.stats.dirty_cone_size}"
                       f" reanalyzed={report.stats.functions_reanalyzed}")
        print(header, flush=True)
        print(report.render(verbose=args.verbose), flush=True)
        if args.stats:
            print(_render_stats(report), flush=True)
        print(flush=True)

    loop = WatchLoop(
        session, roots=args.paths,
        interval=args.interval, idle_release=args.idle_release,
        on_report=on_report,
    )

    loop_poll = loop.poll_once

    def poll_timed():
        last["started"] = _time.perf_counter()
        return loop_poll()

    loop.poll_once = poll_timed
    try:
        loop.run(max_verdicts=args.max_verdicts,
                 duration=args.duration, once=args.once)
    except KeyboardInterrupt:
        pass
    report = last["report"]
    if report is None:
        print("safeflow watch: no verdict ran", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


def cmd_batch(args) -> int:
    from .perf.batch import BatchJob

    jobs: List[BatchJob] = []
    if args.corpus:
        from .corpus import load_all

        for system in load_all():
            jobs.append(BatchJob(
                name=system.key,
                files=tuple(str(p) for p in system.core_files),
            ))
    for path in args.files:
        jobs.append(BatchJob(name=os.path.basename(path), files=(path,)))
    if not jobs:
        print("safeflow batch: no jobs (give FILES and/or --corpus)",
              file=sys.stderr)
        return 2

    config = AnalysisConfig(
        summary_mode=args.summaries,
        include_dirs=tuple(args.include),
        cache_dir=_cache_dir(args),
        recover_tiers=_recover_tiers(args),
    )
    max_workers = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    outcome = SafeFlow(config).analyze_batch(
        jobs, max_workers=max_workers, timeout=args.timeout,
        guards=_guards_from_args(args), max_crashes=args.max_crashes,
        fail_fast=args.fail_fast,
    )

    if args.json:
        payload = {
            "wall_time": outcome.wall_time,
            "worker_restarts": outcome.worker_restarts,
            "quarantined": list(outcome.quarantined),
            "jobs": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "duration": r.duration,
                    "error": r.error,
                    "code": r.code,
                    "detail": r.detail,
                    "report": r.report.to_json() if r.report else None,
                }
                for r in outcome.results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for result in outcome.results:
            if result.ok:
                counts = result.report.counts()
                status = result.report.verdict.upper()
                print(f"{result.name:<20} {status}  "
                      f"errors={counts['errors']} "
                      f"warnings={counts['warnings']} "
                      f"violations={counts['violations']} "
                      f"({result.duration:.2f}s)")
            else:
                first_line = result.error.strip().splitlines()[-1]
                tag = ""
                if result.code and result.code != "analysis_failed":
                    tag = f"[{result.code}] "
                print(f"{result.name:<20} ERROR {tag}{first_line}")
        failed = sum(1 for r in outcome.results if not r.ok)
        if failed:
            print(f"{failed} job(s) failed", file=sys.stderr)
        print(f"{len(outcome.results)} jobs in {outcome.wall_time:.2f}s "
              f"({max_workers} workers)")
        if args.stats:
            evictions = sum(r.report.stats.cache_integrity_evictions
                            for r in outcome.results if r.ok)
            print(f"worker restarts     : {outcome.worker_restarts}")
            print(f"quarantined jobs    : "
                  f"{', '.join(outcome.quarantined) or 'none'}")
            print(f"integrity evictions : {evictions}")
            degraded = sum(len(r.report.degraded)
                           for r in outcome.results if r.ok)
            print(f"degraded units      : {degraded}")
            attempts: dict = {}
            successes: dict = {}
            recovered = 0
            for r in outcome.results:
                if not r.ok:
                    continue
                recovered += getattr(r.report.stats, "recovered_units", 0)
                for tier, n in getattr(r.report.stats,
                                       "recovery_attempts", {}).items():
                    attempts[tier] = attempts.get(tier, 0) + n
                for tier, n in getattr(r.report.stats,
                                       "recovery_successes", {}).items():
                    successes[tier] = successes.get(tier, 0) + n
            if attempts:
                print(f"recovered units     : {recovered}")
                for tier in ("strict", "gnu", "prelude", "cleanup",
                             "salvage"):
                    if tier in attempts:
                        print(f"  tier {tier:<9}: "
                              f"{successes.get(tier, 0)}/{attempts[tier]} "
                              f"(succeeded/attempted)")
    if not outcome.ok:
        return 2
    reports = [r.report for r in outcome.results]
    if all(r.passed for r in reports):
        return 0
    if (config.recover_tiers is not None
            and all(r.verdict == "degraded" for r in reports)):
        # keep-going batch where *nothing* was certified: every job is
        # degraded and no finding exists — that is a tool-level failure
        # (exit 2), distinct from "findings or mixed" (exit 1)
        print("safeflow batch: nothing certified — every job degraded",
              file=sys.stderr)
        return 2
    return 1


def cmd_serve(args) -> int:
    import signal

    from .server.daemon import SafeFlowServer

    config = AnalysisConfig(
        summary_mode=args.summaries,
        include_dirs=tuple(args.include),
        cache_dir=_cache_dir(args),
        recover_tiers=_recover_tiers(args),
    )
    try:
        server = SafeFlowServer(
            config=config,
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            workers=args.workers if args.workers > 0 else None,
            queue_size=args.queue_size,
            default_deadline=args.deadline,
            use_processes=not args.in_process,
            guards=_guards_from_args(args),
            max_crashes=args.max_crashes,
            tenants=_load_tenant_table(args.tenants),
            max_inflight=_parse_max_inflight(args.max_inflight),
        )
    except OSError as exc:
        print(f"safeflow serve: cannot bind: {exc}", file=sys.stderr)
        return 2
    address = server.address
    where = address if isinstance(address, str) else f"{address[0]}:{address[1]}"
    print(
        f"safeflow serve: listening on {where} "
        f"(pid {os.getpid()}, {server.pool.workers} workers, "
        f"{server.pool.mode}, queue {server.queue.capacity})",
        flush=True,
    )

    def _on_signal(_signum, _frame):
        server.request_shutdown()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - odd hosts
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - handler-less hosts
        server.stop()
    server.wait_stopped(timeout=60.0)
    if args.metrics_json:
        with open(args.metrics_json, "w") as f:
            json.dump(server.metrics.snapshot(), f, indent=2)
        print(f"safeflow serve: metrics written to {args.metrics_json}",
              flush=True)
    return 0


def cmd_fleet(args) -> int:
    import signal
    import threading

    if args.reload:
        from .server.client import SafeFlowClient

        try:
            with SafeFlowClient(host=args.host, port=args.port) as client:
                result = client.call("fleet_reload", timeout=600.0)
        except SafeFlowError as exc:
            print(f"safeflow fleet: reload failed: {exc}", file=sys.stderr)
            return 2
        reloaded = result.get("reloaded", [])
        healthy = result.get("healthy", [])
        print(f"safeflow fleet: reloaded shards {reloaded} "
              f"({len(healthy)}/{len(reloaded)} healthy)")
        return 0 if len(healthy) >= len(reloaded) else 1

    from .fleet import FleetConfig, FleetRouter

    cache_dir = _cache_dir(args)
    if cache_dir is None:
        print("safeflow fleet: shards need a cache directory "
              "(--no-cache is not supported here)", file=sys.stderr)
        return 2
    # shards re-read the table by path; validate it up front so a bad
    # file fails the fleet launch, not N shard spawns later
    _load_tenant_table(args.tenants)
    config = FleetConfig(
        shards=args.shards,
        host=args.host,
        port=args.port,
        cache_root=os.path.join(cache_dir, "fleet"),
        workers_per_shard=args.workers_per_shard,
        queue_size=args.queue_size,
        summaries=args.summaries,
        backend="inprocess" if args.in_process else "process",
        steal_threshold=args.steal_threshold,
        steal_margin=args.steal_margin,
        health_interval=args.health_interval,
        conns_per_shard=args.conns_per_shard,
        tenants_path=args.tenants,
        max_inflight=(str(args.max_inflight)
                      if _parse_max_inflight(args.max_inflight) is not None
                      else None),
    )
    router = FleetRouter(config)
    try:
        host, port = router.start()
    except (OSError, RuntimeError) as exc:
        print(f"safeflow fleet: cannot start: {exc}", file=sys.stderr)
        router.stop()
        return 2
    print(
        f"safeflow fleet: routing on {host}:{port} "
        f"(pid {os.getpid()}, {args.shards} shards x "
        f"{args.workers_per_shard} workers, "
        f"{'in-process' if args.in_process else 'process'} backends)",
        flush=True,
    )

    done = threading.Event()

    def _on_signal(_signum, _frame):
        done.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - odd hosts
            pass
    try:
        done.wait()
    except KeyboardInterrupt:  # pragma: no cover - handler-less hosts
        pass
    snapshot = None
    if args.metrics_json:
        try:
            snapshot = router.metrics_snapshot()
        except RuntimeError:
            pass
    router.stop()
    if args.metrics_json and snapshot is not None:
        with open(args.metrics_json, "w") as f:
            json.dump(snapshot, f, indent=2)
        print(f"safeflow fleet: metrics written to {args.metrics_json}",
              flush=True)
    return 0


def cmd_chaos(args) -> int:
    from .resilience.chaos import run_chaos

    try:
        outcome = run_chaos(
            schedules=args.schedule,
            jobs=args.chaos_jobs,
            workers=args.workers,
            smoke=args.smoke,
        )
    except ValueError as exc:
        print(f"safeflow chaos: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(outcome.to_json(), indent=2))
    else:
        print(outcome.render())
    return 0 if outcome.ok else 2


def cmd_corpus(args) -> int:
    from .corpus import load_system

    system = load_system(args.key)
    report = system.analyze()
    print(report.render(verbose=args.verbose))
    paper = system.paper
    counts = report.counts()
    print(
        f"\npaper reports: errors={paper.error_dependencies} "
        f"warnings={paper.warnings} false_positives={paper.false_positives}"
    )
    match = (
        counts["errors"] == paper.error_dependencies
        and counts["warnings"] == paper.warnings
        and counts["false_positives"] == paper.false_positives
    )
    print("reproduction:", "MATCH" if match else "MISMATCH")
    return 0 if match else 1


def cmd_table1(_args) -> int:
    from .corpus import load_all
    from .reporting.render import table1_comparison

    results = [(system, system.analyze()) for system in load_all()]
    print(table1_comparison(results))
    return 0


def cmd_demo(args) -> int:
    from .simplex import FeedbackOverwrite, pendulum_simplex

    injections = []
    if args.rigged:
        injections.append(
            FeedbackOverwrite(start=args.fault_time, region="feedback",
                              writer="complex")
        )
    system = pendulum_simplex(
        fault_time=args.fault_time,
        fault_mode="reverse",
        trusting_feedback=args.trusting,
        injections=injections,
    )
    trace = system.run(args.duration)
    print(
        f"simplex pendulum: {trace.steps} steps, complex in control "
        f"{100 * trace.complex_ratio:.0f}% of the time, "
        f"{len(trace.rejections)} monitor rejections"
    )
    print(f"max |angle| = {trace.max_abs_state(2):.3f} rad; "
          f"max envelope value = {trace.max_envelope_value:.3f} "
          f"(level {system.envelope.level:.3f})")
    if system.plant.fallen:
        print("PENDULUM FELL — the safe-value-flow property was violated "
              "at run time")
        return 1
    print("pendulum stayed recoverable")
    return 0


def cmd_gen(args) -> int:
    from .corpus import generate_core

    try:
        program = generate_core(
            data_error_regions=args.data_errors,
            control_fp_regions=args.control_fps,
            benign_read_regions=args.benign,
            monitored_regions=args.monitored,
            filler_functions=args.filler,
            chain_depth=args.chain,
            loops=not args.no_loops,
            call_fanout=args.fanout,
            pipeline_stages=args.pipeline,
        )
    except ValueError as exc:
        print(f"safeflow gen: {exc}", file=sys.stderr)
        return 2
    if args.output == "-":
        sys.stdout.write(program.source)
    else:
        with open(args.output, "w") as f:
            f.write(program.source)
    if args.expect:
        print(
            f"safeflow gen: {program.loc} lines, {program.regions} regions; "
            f"expected warnings={program.expected_warnings} "
            f"errors={program.expected_errors} "
            f"false_positives={program.expected_false_positives}",
            file=sys.stderr,
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "watch": cmd_watch,
        "batch": cmd_batch,
        "serve": cmd_serve,
        "fleet": cmd_fleet,
        "chaos": cmd_chaos,
        "corpus": cmd_corpus,
        "table1": cmd_table1,
        "demo": cmd_demo,
        "gen": cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except SafeFlowError as exc:
        print(f"safeflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
