"""The fleet layer: a consistent-hash front router over N analysis
daemons (:mod:`repro.server`).

One ``safeflow serve`` process is the throughput ceiling of the
serving tier; :class:`FleetRouter` scales it out. The router speaks
the same NDJSON JSON-RPC on its front socket that the daemons speak on
theirs, so :class:`repro.server.SafeFlowClient` works unchanged —
point it at the router and every verdict is byte-identical to a
direct daemon (or a direct :class:`repro.core.SafeFlow` call).

- :mod:`repro.fleet.hashring` — the consistent-hash ring mapping job
  routing keys onto shards, so each shard keeps reading the same
  slice of the one shared store (page-cache locality);
- :mod:`repro.fleet.backend` — shard lifecycle: spawn, supervise,
  restart (``ProcessBackend`` runs real ``safeflow serve``
  subprocesses; ``InProcessBackend`` embeds daemons in-process for
  tests);
- :mod:`repro.fleet.router` — the asyncio router itself: affinity
  routing with load-aware work stealing, backpressure from each
  shard's health plane, automatic restart + in-flight re-dispatch on
  shard death, and rolling drain/restart (``safeflow fleet
  --reload``).
"""

from .hashring import HashRing, routing_key
from .backend import InProcessBackend, ProcessBackend, ShardSpec
from .router import FleetRouter, FleetConfig

__all__ = [
    "HashRing",
    "routing_key",
    "ShardSpec",
    "ProcessBackend",
    "InProcessBackend",
    "FleetRouter",
    "FleetConfig",
]
