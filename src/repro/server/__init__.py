"""The SafeFlow analysis service: a long-lived serving layer.

The paper positions SafeFlow as a check on every build of an evolving
control system; this package turns the one-shot analyzer into a
daemon so that warm state — the content-hashed ``IRCache`` of
:mod:`repro.perf`, whose verdict records replay a repeat request's
verdict — is amortized across requests instead of across manual CLI
invocations.

- :mod:`repro.server.protocol` — newline-delimited JSON-RPC framing
  and the service error-code space;
- :mod:`repro.server.queue` — bounded admission queue and the
  per-request state machine (deadlines, cancellation);
- :mod:`repro.server.pool` — process worker pool (fork → spawn →
  in-process fallback, shared with :mod:`repro.perf.batch`);
- :mod:`repro.server.daemon` — :class:`SafeFlowServer`, the
  ``safeflow serve`` daemon with graceful drain;
- :mod:`repro.server.metrics` — uptime, queue/in-flight gauges,
  per-phase latency histograms, cache hit/miss counters;
- :mod:`repro.server.client` — :class:`SafeFlowClient`, the blocking
  Python client with connect/request timeouts and bounded retry.
"""

from .client import (
    ConnectionFailed,
    RequestTimeout,
    SafeFlowClient,
    ServerError,
)
from .daemon import SafeFlowServer
from .metrics import LatencyHistogram, ServerMetrics
from .pool import WorkerPool
from .queue import PendingJob, QueueClosedError, QueueFullError, RequestQueue

__all__ = [
    "ConnectionFailed",
    "LatencyHistogram",
    "PendingJob",
    "QueueClosedError",
    "QueueFullError",
    "RequestQueue",
    "RequestTimeout",
    "SafeFlowClient",
    "SafeFlowServer",
    "ServerError",
    "ServerMetrics",
    "WorkerPool",
]
