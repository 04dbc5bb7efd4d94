"""The long-lived SafeFlow analysis daemon (``safeflow serve``).

One :class:`SafeFlowServer` owns the four moving parts and wires them
together:

- a threaded stream server (TCP on ``host:port`` or a Unix socket)
  speaking the newline-delimited JSON-RPC of
  :mod:`repro.server.protocol` — one handler thread per connection,
  requests on a connection answered in order;
- the bounded :class:`~repro.server.queue.RequestQueue` (admission
  control: a full queue answers ``queue_full`` immediately instead of
  queueing unboundedly);
- the :class:`~repro.server.pool.WorkerPool` of analysis processes
  sharing the on-disk caches, which is what makes repeat requests
  warm;
- the :class:`~repro.server.metrics.ServerMetrics` plane behind the
  ``health`` and ``metrics`` RPCs.

RPC methods: ``analyze`` (inline ``source`` or ``files`` paths, with
optional per-request ``deadline``, ``job_id`` and config overrides),
``cancel`` (by ``job_id``, from any connection), ``health``,
``metrics``, ``ping``, and ``shutdown``.

Graceful shutdown (``shutdown`` RPC, SIGINT/SIGTERM via
:meth:`request_shutdown`, or :meth:`stop`): new ``analyze`` requests
are rejected with ``shutting_down``, the queue backlog and every
running job finish normally, every handler writes its pending
responses, and only then are connections and the listening socket
closed. No admitted request ever loses its response.
"""

from __future__ import annotations

import itertools
import os
import socket
import socketserver
import threading
import time
from typing import Any, Dict, Optional, Tuple, Union

from ..core.config import AnalysisConfig
from ..qos import (AdaptiveLimiter, BrownoutController, FairQueue,
                   RateLimitedError, TenantTable, WarmSet)
from . import protocol
from .metrics import ServerMetrics
from .pool import WorkerPool
from .queue import PendingJob, QueueClosedError, QueueFullError

#: extra seconds a handler waits past the job deadline before declaring
#: the pool wedged (the pool itself resolves deadlines; this is a
#: belt-and-braces bound so a handler can never block forever)
_DEADLINE_GRACE = 10.0

#: AnalysisConfig fields a request may override per-analysis
_CONFIG_OVERRIDES = {
    "summary_mode": bool,
    "check_restrictions": bool,
    "context_sensitive": bool,
    "track_control_dependence": bool,
    "lint_monitors": bool,
    "profile": bool,
    "unannotated_shm_is_core": bool,
    "include_dirs": (list, tuple),
    "defines": dict,
}

_OUTCOME_BY_CODE = {
    protocol.CANCELLED: "cancelled",
    protocol.DEADLINE_EXCEEDED: "deadline_exceeded",
    protocol.WORKER_CRASHED: "worker_crashed",
    protocol.RESOURCE_EXHAUSTED: "resource_exhausted",
}


class _RpcHandler(socketserver.StreamRequestHandler):
    """One connection: read request lines, answer each in order."""

    def setup(self):
        super().setup()
        try:  # line-framed RPC: never wait on Nagle for a sub-MTU line
            self.connection.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # unix sockets have no TCP level
        self.server.safeflow_server._track_connection(self.connection, True)

    def finish(self):
        self.server.safeflow_server._track_connection(self.connection, False)
        super().finish()

    def handle(self):
        server: SafeFlowServer = self.server.safeflow_server
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_MESSAGE_BYTES + 2)
            except (OSError, ValueError):
                return  # connection force-closed during shutdown
            if not line:
                return  # EOF: client went away
            if line.strip() == b"":
                continue
            response = server.handle_line(line)
            try:
                self.wfile.write(protocol.encode(response))
                self.wfile.flush()
            except (OSError, ValueError):
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    block_on_close = False


if hasattr(socketserver, "ThreadingUnixStreamServer"):
    class _UnixServer(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True
        block_on_close = False
else:  # pragma: no cover - non-POSIX platforms
    _UnixServer = None


class SafeFlowServer:
    """The analysis service; see the module docstring."""

    def __init__(self, config: Optional[AnalysisConfig] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None,
                 workers: Optional[int] = None,
                 queue_size: int = 64,
                 default_deadline: Optional[float] = None,
                 use_processes: bool = True,
                 guards=None,
                 max_crashes: int = 2,
                 tenants: Optional[TenantTable] = None,
                 max_inflight: Optional[Union[int, str]] = None,
                 brownout: Optional[BrownoutController] = None):
        self.config = config or AnalysisConfig()
        self.default_deadline = default_deadline
        self.unix_path = unix_path
        self.metrics = ServerMetrics()
        # the admission layer (PR 10): the fair queue is always the
        # queue (with only the default tenant it reproduces the old
        # FIFO exactly); brownout needs tenant priorities to act on,
        # so it arms only when a tenant table (or an explicit
        # controller) is supplied — a tenant-free daemon never sheds
        self.tenant_table = tenants or TenantTable()
        self.queue = FairQueue(queue_size, tenants=self.tenant_table)
        worker_count = max(1, workers or os.cpu_count() or 1)
        self.limiter = self._build_limiter(max_inflight, worker_count)
        self.brownout: Optional[BrownoutController] = None
        self.warm: Optional[WarmSet] = None
        if tenants is not None or brownout is not None:
            self.brownout = brownout or BrownoutController()
            self.warm = WarmSet()
        self.pool = WorkerPool(self.queue, self.config, workers=workers,
                               use_processes=use_processes,
                               guards=guards, max_crashes=max_crashes,
                               events=self.metrics.count_resilience,
                               limiter=self.limiter)
        self.metrics.register_gauge("queue_depth", self.queue.depth)
        self.metrics.register_gauge("in_flight", self.pool.running_count)
        # fleet-era alias of in_flight (the router's field name)
        self.metrics.register_gauge("inflight", self.pool.running_count)
        self.metrics.register_qos("queue", self._qos_queue_state)
        if self.limiter is not None:
            self.metrics.register_qos("concurrency", self.limiter.snapshot)
        if self.brownout is not None:
            self.metrics.register_qos("brownout", self._qos_brownout_state)

        self._lock = threading.Lock()
        self._draining = False
        self._stopping = False
        self._stopped = threading.Event()
        self._serve_thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._active_rpcs = 0
        self._idle = threading.Condition(self._lock)
        self._job_seq = itertools.count(1)
        self._jobs: Dict[str, PendingJob] = {}

        if unix_path is not None:
            if _UnixServer is None:  # pragma: no cover
                raise OSError("unix sockets are not supported here")
            if os.path.exists(unix_path):
                os.unlink(unix_path)  # stale socket from a dead daemon
            self._tcp = _UnixServer(unix_path, _RpcHandler)
        else:
            self._tcp = _TCPServer((host, port), _RpcHandler)
        self._tcp.safeflow_server = self

        self._methods = {
            "analyze": self._rpc_analyze,
            "cancel": self._rpc_cancel,
            "health": self._rpc_health,
            "metrics": self._rpc_metrics,
            "ping": self._rpc_ping,
            "shutdown": self._rpc_shutdown,
        }

    # ------------------------------------------------------------------
    # QoS helpers
    # ------------------------------------------------------------------

    def _build_limiter(self, max_inflight, worker_count: int):
        """``--max-inflight``: None = uncapped (legacy), an int = fixed
        cap, ``"auto"`` = AIMD against the rolling p99."""
        if max_inflight is None:
            return None
        if isinstance(max_inflight, str):
            if max_inflight != "auto":
                raise ValueError(
                    f"max_inflight must be an int or 'auto', "
                    f"not {max_inflight!r}")
            return AdaptiveLimiter(
                limit=worker_count, min_limit=1,
                max_limit=max(8, worker_count * 4), adaptive=True,
                p99=lambda: self.metrics.rolling_latency
                                .quantiles().get("p99_s"))
        n = int(max_inflight)
        if n < 1:
            raise ValueError("max_inflight must be >= 1")
        return AdaptiveLimiter(limit=n, min_limit=1, max_limit=n,
                               adaptive=False)

    def _qos_queue_state(self) -> Dict[str, Any]:
        return {
            "depth_by_tenant": self.queue.depth_by_tenant(),
            "saturation": round(self.queue.saturation(), 4),
        }

    def _qos_brownout_state(self) -> Dict[str, Any]:
        state = self.brownout.snapshot()
        state["warm_keys"] = len(self.warm) if self.warm is not None else 0
        return state

    @staticmethod
    def _warm_key(params: Dict[str, Any]) -> str:
        # deferred import: repro.fleet imports repro.server at package
        # init, so a module-level import here would be circular
        from ..fleet.hashring import routing_key
        return routing_key(params)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        """Bound address: ``(host, port)`` or the Unix socket path."""
        if self.unix_path is not None:
            return self.unix_path
        host, port = self._tcp.server_address[:2]
        return (host, port)

    def serve_forever(self) -> None:
        """Run until shut down (blocks the calling thread)."""
        self.pool.start()
        try:
            self._tcp.serve_forever(poll_interval=0.1)
        finally:
            # when a shutdown is in flight, let it finish tearing down
            # before returning control (KeyboardInterrupt exits here
            # without one; the CLI then calls stop() itself)
            with self._lock:
                stopping = self._stopping
            if stopping:
                self._stopped.wait(timeout=30.0)

    def start(self) -> "SafeFlowServer":
        """Serve on a background thread (tests and embedding)."""
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.1},
            name="safeflow-serve", daemon=True,
        )
        self._serve_thread.start()
        return self

    def request_shutdown(self, drain: bool = True) -> None:
        """Trigger :meth:`stop` from a background thread.

        Safe to call from a signal handler or an RPC handler — both
        run in threads that must not block on the shutdown itself.
        """
        threading.Thread(target=self.stop, kwargs={"drain": drain},
                         name="safeflow-shutdown", daemon=True).start()

    def stop(self, drain: bool = True) -> None:
        """Drain (optionally) and stop; idempotent and blocking."""
        with self._lock:
            if self._stopping:
                self._stopped.wait()
                return
            self._stopping = True
            self._draining = True
        # 1. finish the analysis backlog (or fail it when drain=False)
        self.pool.shutdown(drain=drain, timeout=None if drain else 10.0)
        # 2. let handlers write out every pending response
        with self._idle:
            deadline = time.monotonic() + 30.0
            while self._active_rpcs > 0 and time.monotonic() < deadline:
                self._idle.wait(timeout=0.2)
        # 3. stop accepting and tear the sockets down
        self._tcp.shutdown()
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._tcp.server_close()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._stopped.set()

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        return self._stopped.wait(timeout)

    def __enter__(self) -> "SafeFlowServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # connection / rpc bookkeeping
    # ------------------------------------------------------------------

    def _track_connection(self, conn, active: bool) -> None:
        with self._lock:
            if active:
                self._connections.add(conn)
            else:
                self._connections.discard(conn)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def handle_line(self, line: bytes) -> Dict[str, Any]:
        """Decode, dispatch and answer one request line."""
        try:
            request = protocol.decode_request(line)
        except protocol.ProtocolError as exc:
            self.metrics.count_response(False, protocol.error_name(exc.code))
            return protocol.error_response(None, exc.code, exc.message)
        handler = self._methods.get(request.method)
        if handler is None:
            self.metrics.count_request(request.method)
            self.metrics.count_response(
                False, protocol.error_name(protocol.METHOD_NOT_FOUND))
            return protocol.error_response(
                request.id, protocol.METHOD_NOT_FOUND,
                f"unknown method {request.method!r}",
            )
        self.metrics.count_request(request.method)
        started = time.monotonic()
        with self._idle:
            self._active_rpcs += 1
        try:
            response = handler(request)
        except Exception as exc:  # a handler bug must not kill the daemon
            response = protocol.error_response(
                request.id, protocol.INTERNAL_ERROR,
                f"{type(exc).__name__}: {exc}",
            )
        finally:
            with self._idle:
                self._active_rpcs -= 1
                self._idle.notify_all()
        elapsed = time.monotonic() - started
        error = response.get("error")
        self.metrics.count_response(
            error is None,
            error["name"] if error else None,
            seconds=elapsed,
        )
        return response

    # ------------------------------------------------------------------
    # methods
    # ------------------------------------------------------------------

    def _rpc_ping(self, request) -> Dict[str, Any]:
        return protocol.ok_response(request.id, {"pong": True})

    def _rpc_health(self, request) -> Dict[str, Any]:
        with self._lock:
            draining = self._draining
        degraded = self.metrics.degraded_counts()
        rolling = self.metrics.rolling_latency.quantiles()
        inflight = self.pool.running_count()
        return protocol.ok_response(request.id, {
            "status": "draining" if draining else "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_seconds": self.metrics.uptime_seconds(),
            "workers": self.pool.workers,
            "pool_mode": self.pool.mode,
            "queue_depth": self.queue.depth(),
            "queue_capacity": self.queue.capacity,
            # both spellings: "in_flight" predates the fleet router;
            # "inflight" matches the fleet's backpressure field names
            "in_flight": inflight,
            "inflight": inflight,
            # recent-window latency (seconds; None until first request)
            # — the router's backpressure signal
            "latency_p50_s": rolling["p50_s"],
            "latency_p99_s": rolling["p99_s"],
            "brownout_level": (self.brownout.level
                               if self.brownout is not None else 0),
            "inflight_limit": (self.limiter.limit
                               if self.limiter is not None else None),
            # compact QoS summary for the fleet router's health poll
            "qos": {
                "tenants": self.metrics.qos_tenants(),
                "brownout_level": (self.brownout.level
                                   if self.brownout is not None else 0),
            },
            "worker_restarts": self.pool.worker_restarts,
            "degraded_analyses": degraded["analyses"],
            "degraded_units": degraded["units"],
            "cache_dir": self.config.cache_dir,
        })

    def _rpc_metrics(self, request) -> Dict[str, Any]:
        return protocol.ok_response(request.id, self.metrics.snapshot())

    def _rpc_shutdown(self, request) -> Dict[str, Any]:
        drain = bool(request.params.get("drain", True))
        with self._lock:
            self._draining = True
        self.request_shutdown(drain=drain)
        return protocol.ok_response(request.id,
                                    {"shutting_down": True, "drain": drain})

    def _rpc_cancel(self, request) -> Dict[str, Any]:
        job_id = request.params.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            return protocol.error_response(
                request.id, protocol.INVALID_PARAMS,
                "cancel requires a job_id string",
            )
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return protocol.ok_response(
                request.id, {"job_id": job_id, "found": False,
                             "cancelled": False})
        cancelled = job.cancel()
        return protocol.ok_response(
            request.id, {"job_id": job_id, "found": True,
                         "cancelled": cancelled})

    # -- analyze -------------------------------------------------------

    def _rpc_analyze(self, request) -> Dict[str, Any]:
        try:
            spec, deadline_s, job_id, tenant = self._parse_analyze(
                request.params)
        except ValueError as exc:
            return protocol.error_response(
                request.id, protocol.INVALID_PARAMS, str(exc))
        tenant_name = tenant or self.tenant_table.default.name
        with self._lock:
            if self._draining:
                return protocol.error_response(
                    request.id, protocol.SHUTTING_DOWN,
                    "server is draining; not accepting new analyses",
                )
            if job_id in self._jobs:
                return protocol.error_response(
                    request.id, protocol.INVALID_PARAMS,
                    f"job_id {job_id!r} is already in flight",
                )
        warm_key = None
        if self.brownout is not None:
            level = self.brownout.update(self.queue.saturation())
            warm_key = self._warm_key(request.params)
            if level > 0:
                reason = self.brownout.decide(
                    self.tenant_table.lookup(tenant_name),
                    warm_key in self.warm)
                if reason is not None:
                    self.metrics.count_qos(tenant_name, "shed")
                    return protocol.error_response(
                        request.id, protocol.SHED,
                        f"brownout level {level}: shedding {reason} "
                        f"requests",
                        data={"job_id": job_id, "reason": reason,
                              "brownout_level": level,
                              "retry_after_s": self.brownout.retry_after_s},
                    )
        deadline = None
        if deadline_s is not None:
            deadline = time.monotonic() + deadline_s
        job = PendingJob(job_id, spec, deadline=deadline, tenant=tenant_name)
        job._qos_warm_key = warm_key
        with self._lock:
            self._jobs[job_id] = job
        try:
            try:
                self.queue.put_nowait(job)
                self.metrics.count_qos(tenant_name, "accepted")
            except RateLimitedError as exc:
                self.metrics.count_qos(tenant_name, "rate_limited")
                return protocol.error_response(
                    request.id, protocol.RATE_LIMITED, str(exc),
                    data={"job_id": job_id, "tenant": tenant_name,
                          "retry_after_s": round(exc.retry_after_s, 4)},
                )
            except QueueFullError as exc:
                self.metrics.count_analysis("queue_rejections")
                self.metrics.count_qos(tenant_name, "queue_full")
                return protocol.error_response(
                    request.id, protocol.QUEUE_FULL, str(exc),
                    data={"job_id": job_id},
                )
            except QueueClosedError:
                return protocol.error_response(
                    request.id, protocol.SHUTTING_DOWN,
                    "server is draining; not accepting new analyses",
                    data={"job_id": job_id},
                )
            wait_timeout = None
            if deadline_s is not None:
                wait_timeout = deadline_s + _DEADLINE_GRACE
            if not job.wait(timeout=wait_timeout):
                job.cancel()
                return protocol.error_response(
                    request.id, protocol.INTERNAL_ERROR,
                    "worker pool failed to resolve the request in time",
                    data={"job_id": job_id},
                )
            return self._finish_analyze(request, job)
        finally:
            with self._lock:
                self._jobs.pop(job_id, None)

    def _finish_analyze(self, request, job: PendingJob) -> Dict[str, Any]:
        if job.result is not None:
            stats = (job.result.get("report") or {}).get("stats") or {}
            self.metrics.observe_analysis(stats)
            self.metrics.count_qos(job.tenant or "default", "completed")
            if self.warm is not None:
                key = getattr(job, "_qos_warm_key", None)
                if key:
                    self.warm.add(key)
            result = dict(job.result)
            result.pop("ok", None)
            result["job_id"] = job.id
            return protocol.ok_response(request.id, result)
        code, message = job.error
        self.metrics.count_analysis(_OUTCOME_BY_CODE.get(code, "failed"))
        data = {"job_id": job.id}
        if job.error_data:
            data.update(job.error_data)
        return protocol.error_response(request.id, code, message, data=data)

    def _parse_analyze(self, params: Dict[str, Any]):
        source = params.get("source")
        files = params.get("files")
        if (source is None) == (files is None):
            raise ValueError(
                "analyze takes exactly one of source= or files=")
        if source is not None and not isinstance(source, str):
            raise ValueError("source must be a string of C code")
        if files is not None:
            if (not isinstance(files, list) or not files
                    or not all(isinstance(f, str) for f in files)):
                raise ValueError("files must be a non-empty list of paths")
        name = params.get("name", "program")
        if not isinstance(name, str):
            raise ValueError("name must be a string")
        filename = params.get("filename", "<source>")
        if not isinstance(filename, str):
            raise ValueError("filename must be a string")
        overrides: Dict[str, Any] = {}
        for key, value in (params.get("config") or {}).items():
            expected = _CONFIG_OVERRIDES.get(key)
            if expected is None:
                raise ValueError(f"unknown config override {key!r}")
            if not isinstance(value, expected):
                raise ValueError(f"config override {key!r} has wrong type")
            if key == "include_dirs":
                value = tuple(str(v) for v in value)
            elif key == "defines":
                value = {str(k): str(v) for k, v in value.items()}
            overrides[key] = value
        deadline_s = params.get("deadline", None)
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if deadline_s <= 0:
                raise ValueError("deadline must be positive seconds")
        if self.default_deadline is not None:
            deadline_s = (self.default_deadline if deadline_s is None
                          else min(deadline_s, self.default_deadline))
        job_id = params.get("job_id")
        if job_id is None:
            job_id = f"job-{next(self._job_seq)}"
        elif not isinstance(job_id, str) or not job_id:
            raise ValueError("job_id must be a non-empty string")
        tenant = params.get("tenant")
        if tenant is not None and (not isinstance(tenant, str) or not tenant):
            raise ValueError("tenant must be a non-empty string")
        spec: Dict[str, Any] = {
            "name": name,
            "verbose": bool(params.get("verbose", False)),
        }
        if source is not None:
            spec["source"] = source
            spec["filename"] = filename
        else:
            spec["files"] = list(files)
        if overrides:
            spec["config_overrides"] = overrides
        return spec, deadline_s, job_id, tenant
