"""The layers the traced run times, and the per-layer metrics.

Spans come from wrapping the program's public entry points (see
:data:`ENTRY_POINTS`); counts come only from what the program already
returns — ``AnalysisStats`` (phase timings, cache counters, kernel
counters) and, for the service, the router/daemon ``metrics`` RPC.
"""

from __future__ import annotations

import importlib
from typing import Iterable, List, Optional, Sequence

from common import Result, median, ms, ratio
from spans import OP, OpBreakdown, Tracer

#: (module, attribute path, layer) — every entry point the traced run
#: wraps. ``parse_preprocessed`` is wrapped at its binding in
#: ``frontend.recovery`` (where the front end calls it); ``lower_units``
#: and ``verify_module`` at theirs in ``frontend.driver``. The
#: incremental session's surgical swap lowers and verifies through
#: ``ModuleLowerer.lower_unit`` and its own ``verify_function``
#: binding, so those are wrapped too.
ENTRY_POINTS = [
    ("repro.frontend.preprocessor", "Preprocessor.process_text",
     "frontend.preprocess"),
    ("repro.frontend.recovery", "parse_preprocessed", "frontend.parse"),
    ("repro.frontend.driver", "lower_units", "frontend.lower"),
    ("repro.frontend.lower", "ModuleLowerer.lower_unit", "frontend.lower"),
    ("repro.frontend.driver", "verify_module", "frontend.verify"),
    ("repro.incremental.watcher", "verify_function", "frontend.verify"),
    ("repro.shm.propagation", "ShmAnalysis.run", "shm"),
    ("repro.restrictions.checker", "check_restrictions", "restrictions"),
    ("repro.pointer.analysis", "PointsToAnalysis.run", "pointer"),
    ("repro.valueflow.engine", "ValueFlowAnalysis.run", "valueflow"),
    ("repro.perf.ircache", "IRCache.fetch", "frontend_cache.fetch"),
    ("repro.perf.ircache", "IRCache.store", "frontend_cache.store"),
    ("repro.incremental.segments", "SegmentStore.flush", "segments.flush"),
    ("repro.incremental.watcher", "IncrementalSession.verdict",
     "incremental.verdict"),
    ("repro.server.client", "SafeFlowClient.analyze", "client.analyze"),
]

FRONTEND_LAYERS = ("frontend.preprocess", "frontend.parse",
                   "frontend.lower", "frontend.verify", "frontend")

#: phases a shard reports in ``phase_timings``, laid out as reported
#: child spans of ``client.analyze`` (``server.other`` is the rest of
#: the shard-reported total)
REPORTED_PHASES = ("frontend", "shm", "restrictions", "lint", "valueflow")


def install(tracer: Tracer) -> None:
    for module_name, path, layer in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        tracer.wrap(owner, attr, layer)


class StatsView:
    """Uniform read access to one analysis's stats, whether an
    in-process ``AnalysisStats`` or the ``report["stats"]`` dict a
    service response carries. Attribute reads only: ``to_json`` would
    walk the whole IR to count instructions."""

    def __init__(self, stats):
        if isinstance(stats, dict):
            self.timings = dict(stats.get("phase_timings") or {})
            self.kernel = dict(stats.get("kernel_counters") or {})
            self.cache_hits = int(stats.get("frontend_cache_hits") or 0)
            self.cache_misses = int(stats.get("frontend_cache_misses") or 0)
        else:
            self.timings = dict(stats.phase_timings)
            self.kernel = dict(stats.kernel_counters)
            self.cache_hits = stats.frontend_cache_hits
            self.cache_misses = stats.frontend_cache_misses
        if "valueflow" not in self.timings:
            # a verdict answered from memory ran no phase: the counters
            # it carries are the previous run's
            self.kernel = {}

    def k(self, name: str) -> float:
        return float(self.kernel.get(name, 0) or 0)


UNMEASURED = "unmeasured: "


def put_unmeasured(result: Result, names: Iterable[str], unit: str,
                   why: str) -> None:
    for name in names:
        result.put(name, 0.0, unit, UNMEASURED + why)


def span_metrics(result: Result, ops: Sequence[OpBreakdown],
                 in_process: bool) -> None:
    """Per-operation medians of layer self times, the frontend share,
    and the unattributed remainder. ``in_process`` is False when the
    phases ran in a shard and only its reported timings are known."""
    n = len(ops)

    def layer_ms(layer: str) -> float:
        return median([ms(op.layers.get(layer, 0.0)) for op in ops])

    note = f"median of {n} ops"
    if in_process:
        for key in ("preprocess", "parse", "lower", "verify"):
            result.put(f"frontend.{key}_ms", layer_ms(f"frontend.{key}"),
                       "ms", note)
        result.put("pointer.busy_ms", layer_ms("pointer"), "ms", note)
    else:
        put_unmeasured(result, ["pointer.busy_ms"], "ms",
                       "runs inside the shard's reported valueflow phase")
        put_unmeasured(
            result, [f"frontend.{k}_ms" for k in
                     ("preprocess", "parse", "lower", "verify")], "ms",
            "the shard reports one frontend time, not its steps")
    result.put("frontend.share", median([
        ratio(sum(op.layers.get(l, 0.0) for l in FRONTEND_LAYERS), op.wall)
        for op in ops]), "ratio", note)
    result.put("shm.busy_ms", layer_ms("shm"), "ms", note)
    result.put("restrictions.busy_ms", layer_ms("restrictions"), "ms", note)
    result.put("valueflow.busy_ms", layer_ms("valueflow"), "ms", note)
    result.put("unattributed_ms", layer_ms(OP), "ms", note)


def kernel_metrics(result: Result, stats: Sequence[StatsView]) -> None:
    """Value-flow kernel and solver counts the reports carry."""
    ran = [s for s in stats if "valueflow" in s.timings]
    note = f"median of {len(ran)} analyses"
    result.put("restrictions.solver_calls", median([
        s.k("solver_cache_hits") + s.k("solver_cache_misses")
        for s in ran]), "count", note)
    result.put("valueflow.kernel_compile_ms", median([
        s.k("kernel_compile_us") / 1000.0 for s in ran]), "ms", note)
    result.put("valueflow.kernel_execute_ms", median([
        s.k("kernel_execute_us") / 1000.0 for s in ran]), "ms", note)
    result.put("valueflow.outer_iterations", median([
        s.k("outer_iterations") for s in ran]), "count", note)
    result.put("valueflow.bodies_analyzed", median([
        s.k("bodies_analyzed") for s in ran]), "count", note)
    hits = sum(s.k("body_memo_hits") for s in ran)
    bodies = sum(s.k("bodies_analyzed") for s in ran)
    result.put("valueflow.body_memo_hit_ratio", ratio(hits, hits + bodies),
               "ratio", f"{hits:.0f} memo hits / {hits + bodies:.0f} "
                        f"body requests")


def cache_metrics(result: Result, stats: Sequence[StatsView],
                  why_unmeasured: Optional[str]) -> None:
    if why_unmeasured is not None:
        put_unmeasured(result, ["frontend_cache.hit_ratio"], "ratio",
                       why_unmeasured)
        put_unmeasured(result, ["frontend_cache.hit_ms"], "ms",
                       why_unmeasured)
        return
    hits = sum(s.cache_hits for s in stats)
    lookups = hits + sum(s.cache_misses for s in stats)
    result.put("frontend_cache.hit_ratio", ratio(hits, lookups), "ratio",
               f"{hits} hits / {lookups} lookups")
    on_hits = [ms(s.timings.get("frontend")) for s in stats if s.cache_hits]
    result.put("frontend_cache.hit_ms", median(on_hits), "ms",
               f"shard-reported frontend time, median of {len(on_hits)} "
               f"hits")


def attribution(ops: Sequence[OpBreakdown]) -> List[str]:
    """Report lines: the median operation's wall time split into layer
    self times plus the unattributed remainder (they sum exactly)."""
    if not ops:
        return ["attribution: no traced operations"]
    ordered = sorted(ops, key=lambda op: op.wall)
    op = ordered[(len(ordered) - 1) // 2]
    lines = [f"attribution of the median operation "
             f"(wall {ms(op.wall):.3f} ms, {len(ops)} traced ops):"]
    for layer, seconds in sorted(op.layers.items(),
                                 key=lambda kv: -kv[1]):
        label = "unattributed" if layer == OP else layer
        lines.append(f"  {label:<24} {ms(seconds):10.3f} ms "
                     f"{100 * ratio(seconds, op.wall):6.2f}%")
    total = sum(op.layers.values())
    lines.append(f"  {'sum':<24} {ms(total):10.3f} ms "
                 f"(wall {ms(op.wall):.3f} ms)")
    return lines


def unmeasured_service(result: Result, why: str) -> None:
    put_unmeasured(result, ["client.rtt_ms", "fleet.router_hop_ms",
                            "server.overhead_ms", "server.analysis_ms"],
                   "ms", why)
    put_unmeasured(result, ["fleet.steals", "qos.refusals",
                            "client.retries"], "count", why)


def unmeasured_incremental(result: Result, why: str) -> None:
    put_unmeasured(result, ["incremental.refresh_ms", "segments.flush_ms"],
                   "ms", why)
    put_unmeasured(result, ["incremental.dirty_cone",
                            "incremental.functions_reanalyzed",
                            "incremental.segment_fallbacks"], "count", why)
    put_unmeasured(result, ["incremental.swap_ratio"], "ratio", why)


def overhead(result: Result, untraced_ops_s: float,
             traced_ops_s: float) -> None:
    result.put("trace.overhead", ratio(traced_ops_s, untraced_ops_s),
               "ratio", f"traced {traced_ops_s:.4g} ops/s over untraced "
                        f"{untraced_ops_s:.4g} ops/s")
