"""Observability plane of the analysis service.

One :class:`ServerMetrics` instance per daemon aggregates, under a
single lock:

- request/response counters per method and per error name;
- analysis outcomes (completed / failed / cancelled / deadline
  exceeded / queue rejections / worker crashes / resource
  exhaustion);
- resilience events from the supervised worker pool (pool restarts,
  resubmitted jobs, quarantined jobs);
- cache effectiveness, folded from the ``AnalysisStats`` cache
  counters of every completed analysis — this is how a warm request
  becomes visible from the outside (``frontend_hits`` > 0), and a
  replayed verdict (``verdict_replays``);
- compiled-kernel totals (``kernel`` block), folded from each
  analysis's ``kernel_*`` counters: opcode dispatches, compiled
  bodies, interner occupancy, compile/execute microseconds;
- latency histograms: whole-request wall time plus one histogram per
  analysis phase (``frontend``, ``shm``, ``restrictions``, ``lint``,
  ``valueflow``, ``total``), folded from ``phase_timings``;
- gauges (queue depth, in-flight count) read through registered
  callables at snapshot time, so they are always current and never
  drift from the queue/pool's own bookkeeping.

``snapshot()`` returns a plain JSON-ready dict: it is the body of the
``metrics`` RPC, the ``safeflow serve --metrics-json`` dump, and what
``make serve-smoke`` scrapes. Histograms use Prometheus-style
cumulative ``le`` buckets so the schema maps 1:1 onto a future
``/metrics`` exposition without re-aggregation.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from ..perf.latency import RollingLatency

#: upper bounds (seconds) of the latency buckets; +Inf is implicit
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (not thread-safe on its own;
    :class:`ServerMetrics` serializes access under its lock)."""

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets=DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if seconds <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.sum += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)

    def snapshot(self) -> Dict[str, object]:
        cumulative: List[List[object]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            cumulative.append([bound, running])
        cumulative.append(["+Inf", running + self.counts[-1]])
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets_le": cumulative,
        }


class ServerMetrics:
    """Thread-safe aggregate state of one daemon."""

    def __init__(self):
        self._lock = threading.Lock()
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self._requests: Dict[str, int] = {}
        self._responses = {"ok": 0, "error": 0}
        self._errors: Dict[str, int] = {}
        self._analyses = {
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "deadline_exceeded": 0,
            "queue_rejections": 0,
            "worker_crashed": 0,
            "resource_exhausted": 0,
        }
        self._cache = {
            "frontend_hits": 0,
            "frontend_misses": 0,
            "integrity_evictions": 0,
            #: verdicts replayed from a memoised program's last verdict
            "verdict_replays": 0,
        }
        self._resilience = {
            "worker_restarts": 0,
            "jobs_resubmitted": 0,
            "jobs_quarantined": 0,
        }
        #: compiled value-flow kernel totals, folded from the
        #: ``kernel_*`` entries of every completed analysis's
        #: ``kernel_counters`` (opcode dispatches, compiled bodies,
        #: compile/execute microseconds, ...)
        self._kernel: Dict[str, int] = {}
        self._degraded = {
            "analyses": 0,  # completed analyses with a degraded verdict
            "units": 0,     # DegradedUnits across them (fail-closed)
        }
        #: frontend recovery-ladder totals (--recover), folded from the
        #: per-tier attempt/success counts of every completed analysis
        self._recovery = {
            "recovered_units": 0,
            "tier_attempts": {},   # tier name → attempts
            "tier_successes": {},  # tier name → successes
        }
        #: admission-control outcomes by tenant (PR 10): tenant name →
        #: {accepted, completed, rate_limited, shed, queue_full}
        self._qos_tenants: Dict[str, Dict[str, int]] = {}
        #: extra QoS state (brownout level, concurrency limit, breaker
        #: states) read live at snapshot time, like gauges
        self._qos_readers: Dict[str, Callable[[], object]] = {}
        self._request_latency = LatencyHistogram()
        #: recent-window request latency: a router polling this
        #: daemon's health plane needs a *live* p50/p99, not the
        #: process-lifetime histogram (thread-safe on its own, so it is
        #: also read without taking the metrics lock)
        self.rolling_latency = RollingLatency()
        self._phase_latency: Dict[str, LatencyHistogram] = {}
        self._gauges: Dict[str, Callable[[], int]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def register_gauge(self, name: str, read: Callable[[], int]) -> None:
        with self._lock:
            self._gauges[name] = read

    def count_request(self, method: str) -> None:
        with self._lock:
            self._requests[method] = self._requests.get(method, 0) + 1

    def count_response(self, ok: bool, error_name: Optional[str] = None,
                       seconds: Optional[float] = None) -> None:
        with self._lock:
            self._responses["ok" if ok else "error"] += 1
            if error_name:
                self._errors[error_name] = self._errors.get(error_name, 0) + 1
            if seconds is not None:
                self._request_latency.observe(seconds)
        if seconds is not None:
            self.rolling_latency.observe(seconds)

    def count_analysis(self, outcome: str) -> None:
        """``outcome`` is one of the ``_analyses`` keys."""
        with self._lock:
            self._analyses[outcome] = self._analyses.get(outcome, 0) + 1

    def count_qos(self, tenant: str, outcome: str) -> None:
        """One admission decision for ``tenant``: ``accepted`` /
        ``completed`` / ``rate_limited`` / ``shed`` / ``queue_full``."""
        with self._lock:
            counts = self._qos_tenants.setdefault(tenant, {})
            counts[outcome] = counts.get(outcome, 0) + 1

    def register_qos(self, name: str, read: Callable[[], object]) -> None:
        """Attach a live QoS state reader (brownout level, concurrency
        limiter snapshot, ...) to the ``qos`` metrics block."""
        with self._lock:
            self._qos_readers[name] = read

    def count_resilience(self, event: str) -> None:
        """``event`` is one of the ``_resilience`` keys (pool events:
        ``worker_restarts`` / ``jobs_resubmitted`` / ``jobs_quarantined``)."""
        with self._lock:
            self._resilience[event] = self._resilience.get(event, 0) + 1

    def observe_analysis(self, stats: Dict[str, object]) -> None:
        """Fold one completed analysis's stats block
        (:meth:`repro.core.results.AnalysisStats.to_json`) in."""
        timings = stats.get("phase_timings") or {}
        with self._lock:
            self._analyses["completed"] += 1
            for phase, seconds in timings.items():
                hist = self._phase_latency.get(phase)
                if hist is None:
                    hist = self._phase_latency[phase] = LatencyHistogram()
                hist.observe(float(seconds))
            self._cache["frontend_hits"] += int(
                stats.get("frontend_cache_hits", 0) or 0)
            self._cache["frontend_misses"] += int(
                stats.get("frontend_cache_misses", 0) or 0)
            self._cache["integrity_evictions"] += int(
                stats.get("cache_integrity_evictions", 0) or 0)
            if stats.get("verdict_replayed"):
                self._cache["verdict_replays"] += 1
            units = int(stats.get("degraded_units", 0) or 0)
            if units:
                self._degraded["analyses"] += 1
                self._degraded["units"] += units
            self._recovery["recovered_units"] += int(
                stats.get("recovered_units", 0) or 0)
            for key, bucket in (("recovery_attempts", "tier_attempts"),
                                ("recovery_successes", "tier_successes")):
                for tier, n in (stats.get(key) or {}).items():
                    counts = self._recovery[bucket]
                    counts[tier] = counts.get(tier, 0) + int(n or 0)
            counters = stats.get("kernel_counters") or {}
            for key, value in counters.items():
                if key.startswith("kernel_"):
                    self._kernel[key] = (
                        self._kernel.get(key, 0) + int(value or 0)
                    )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_mono

    def qos_tenants(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant admission counters (for the ``health`` RPC — the
        fleet router folds these across shards)."""
        with self._lock:
            return {name: dict(counts)
                    for name, counts in self._qos_tenants.items()}

    def degraded_counts(self) -> Dict[str, int]:
        """Degraded-verdict totals (for the ``health`` RPC)."""
        with self._lock:
            return dict(self._degraded)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            gauges = {}
            for name, read in self._gauges.items():
                try:
                    gauges[name] = int(read())
                except Exception:  # a dying pool must not break metrics
                    gauges[name] = -1
            qos: Dict[str, object] = {
                "tenants": {
                    name: dict(sorted(counts.items()))
                    for name, counts in sorted(self._qos_tenants.items())
                },
            }
            for name, read in self._qos_readers.items():
                try:
                    qos[name] = read()
                except Exception:  # QoS state must not break metrics
                    qos[name] = None
            return {
                "started_at": self.started_at,
                "uptime_seconds": self.uptime_seconds(),
                "requests_total": dict(self._requests),
                "responses_total": dict(self._responses),
                "errors_total": dict(self._errors),
                "analyses": dict(self._analyses),
                "gauges": gauges,
                "cache": dict(self._cache),
                "kernel": dict(sorted(self._kernel.items())),
                "resilience": dict(self._resilience),
                "qos": qos,
                "degraded": dict(self._degraded),
                "recovery": {
                    "recovered_units": self._recovery["recovered_units"],
                    "tier_attempts": dict(sorted(
                        self._recovery["tier_attempts"].items())),
                    "tier_successes": dict(sorted(
                        self._recovery["tier_successes"].items())),
                },
                "latency": {
                    "request": self._request_latency.snapshot(),
                    "rolling": self.rolling_latency.quantiles(),
                    "phases": {
                        phase: hist.snapshot()
                        for phase, hist in sorted(self._phase_latency.items())
                    },
                },
            }
