"""The asyncio front router of the analysis fleet.

:class:`FleetRouter` listens on one NDJSON JSON-RPC socket — the same
protocol the daemons speak (:mod:`repro.server.protocol`), so
:class:`repro.server.SafeFlowClient` points at it unchanged — and
forwards every ``analyze`` to one of N shard daemons:

*Affinity.* The request's :func:`repro.fleet.hashring.routing_key`
(a hash of the job's shape, no file I/O) is looked up on a
consistent-hash ring, so repeated jobs land on the same shard.
Every shard's store is one directory, ``{cache_root}/store``, and
holds no program in memory, so affinity buys only page-cache
locality: a job stolen or re-dispatched to another shard is the same
verdict-record hit there (:mod:`repro.perf.ircache`).

*Backpressure + work stealing.* The router tracks its own in-flight
count per shard and folds in each shard's health plane
(``queue_depth``, rolling latency) from a periodic poll. When the
home shard's load is past ``steal_threshold`` and another live shard
is markedly colder (by ``steal_margin``), the job is *stolen* by the
cold shard — losing page-cache locality once beats queueing behind a hot
spot — and both sides' metrics record the steal.

*Supervision + re-dispatch.* A failed forward or failed health poll
marks the shard suspect; a supervisor coroutine restarts its backend
(same cache dir — it comes back warm) while every request the shard
was holding re-dispatches along the key's deterministic ring walk.
Analyses are idempotent and a failed forward provably kept no client
response, so re-dispatch never doubles a *kept* result; a request is
failed only after ``redispatch_deadline`` of the whole fleet being
unreachable — zero dropped requests under single-shard chaos.

*Rolling restart.* :meth:`FleetRouter.reload` drains one shard at a
time: mark it draining (the ring walks past it, overflowing its keys
to their next shard), wait for its in-flight count to reach zero,
restart it gracefully, wait until it answers ``ping``, then move on.
Clients see nothing but a brief affinity shift.

Responses to one client connection are written strictly in request
order (the protocol's pipelining contract) even though forwards run
concurrently: each request enqueues its future response into that
connection's delivery queue and a per-connection writer task awaits
them in order.

The router runs one asyncio loop in a dedicated thread; the blocking
backend spawn/stop calls go through an executor so routing and health
checks never stall behind a restart. All counters are touched only on
the loop thread — no locks.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..perf.latency import LatencyRecorder, RollingLatency
from ..qos.breaker import CircuitBreaker
from ..server import protocol
from .backend import InProcessBackend, ProcessBackend, ShardSpec
from .hashring import HashRing, routing_key

#: how long start() waits for the loop thread to come up
START_WAIT = 60.0


@dataclass
class FleetConfig:
    """Shape of one fleet: N shards behind one router socket."""

    shards: int = 4
    host: str = "127.0.0.1"
    port: int = 0
    cache_root: str = ".safeflow-fleet"
    workers_per_shard: int = 1
    queue_size: int = 64
    summaries: bool = False
    #: "process" spawns real `safeflow serve` subprocesses;
    #: "inprocess" embeds the daemons (fast tests)
    backend: str = "process"
    #: False runs each shard's analyses on daemon threads instead of
    #: worker subprocesses (`safeflow serve --in-process`) — fast
    #: tests; production fleets keep worker crash isolation
    use_processes: bool = True
    #: home-shard load (router in-flight + reported queue depth) at or
    #: above which stealing is considered
    steal_threshold: int = 2
    #: a thief must be at least this much colder than the home shard
    steal_margin: int = 2
    #: seconds between health polls of each shard
    health_interval: float = 0.5
    #: per-poll timeout before a shard is declared suspect
    health_timeout: float = 5.0
    #: concurrent router→shard checkouts per shard (each occupies one
    #: handler thread on the daemon)
    conns_per_shard: int = 8
    #: give up re-dispatching a request after this long without any
    #: healthy shard (the whole fleet is down, not one shard)
    redispatch_deadline: float = 60.0
    #: per-shard circuit breaker (PR 10): trip when this fraction of
    #: the last ``breaker_window`` forwards were shard faults
    #: (connection death, ``worker_crashed``, ``deadline_exceeded``) —
    #: at least ``breaker_min_volume`` samples required, so one early
    #: blip cannot open a cold breaker
    breaker_failure_threshold: float = 0.5
    breaker_min_volume: int = 5
    breaker_window: int = 20
    #: seconds an open breaker holds traffic off the shard before
    #: letting one half-open probe through
    breaker_cooldown_s: float = 2.0
    #: path to a tenants.json quota table, given to every shard so
    #: admission control behaves identically wherever a job lands
    tenants_path: Optional[str] = None
    #: per-shard in-flight dispatch cap: "auto" (AIMD), "N" (fixed),
    #: or None (unlimited)
    max_inflight: Optional[str] = None


class _Conn:
    __slots__ = ("reader", "writer", "generation")

    def __init__(self, reader, writer, generation):
        self.reader = reader
        self.writer = writer
        self.generation = generation

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass


class _ShardState:
    """Router-side view of one shard."""

    def __init__(self, sid: int, backend,
                 breaker: Optional[CircuitBreaker] = None):
        self.sid = sid
        self.backend = backend
        #: closed/open/half-open health latch fed by forward outcomes;
        #: an open breaker takes the shard out of the ring walk
        self.breaker = breaker or CircuitBreaker()
        #: bumped on every restart; pooled connections from an older
        #: generation are closed on checkout/release instead of reused
        self.generation = 0
        self.healthy = False
        self.draining = False
        self.outstanding = 0       # forwards currently held by router
        self.routed = 0
        self.steals_in = 0
        self.steals_out = 0
        self.redispatches_out = 0  # forwards lost here and re-routed
        self.restarts = 0
        self.last_health: Dict[str, Any] = {}
        # created on the loop (start of _serve)
        self.free: Optional[asyncio.Queue] = None
        self.checkout: Optional[asyncio.Semaphore] = None
        self.restart_lock: Optional[asyncio.Lock] = None

    @property
    def queue_depth(self) -> int:
        try:
            return int(self.last_health.get("queue_depth") or 0)
        except (TypeError, ValueError):
            return 0

    def load(self) -> int:
        """The routing load signal: what the router has in flight on
        this shard plus what the shard itself reported queued."""
        return self.outstanding + self.queue_depth

    def snapshot(self) -> Dict[str, Any]:
        return {
            "shard": self.sid,
            "healthy": self.healthy,
            "draining": self.draining,
            "generation": self.generation,
            "outstanding": self.outstanding,
            "routed": self.routed,
            "steals_in": self.steals_in,
            "steals_out": self.steals_out,
            "redispatches_out": self.redispatches_out,
            "restarts": self.restarts,
            "breaker": self.breaker.snapshot(),
            "address": list(self.backend.address or ()) or None,
            "pid": self.backend.pid,
            "health": dict(self.last_health),
        }


class FleetRouter:
    """N analysis daemons behind one consistent-hash front socket."""

    def __init__(self, config: Optional[FleetConfig] = None,
                 specs: Optional[List[ShardSpec]] = None):
        self.config = config or FleetConfig()
        if specs is None:
            specs = [
                ShardSpec(
                    shard_id=i,
                    cache_dir=os.path.join(self.config.cache_root, "store"),
                    workers=self.config.workers_per_shard,
                    queue_size=self.config.queue_size,
                    summaries=self.config.summaries,
                    use_processes=self.config.use_processes,
                    tenants_path=self.config.tenants_path,
                    max_inflight=self.config.max_inflight,
                )
                for i in range(self.config.shards)
            ]
        backend_cls = (InProcessBackend if self.config.backend == "inprocess"
                       else ProcessBackend)
        self.shards: Dict[int, _ShardState] = {
            spec.shard_id: _ShardState(
                spec.shard_id, backend_cls(spec),
                breaker=CircuitBreaker(
                    failure_threshold=self.config.breaker_failure_threshold,
                    min_volume=self.config.breaker_min_volume,
                    window=self.config.breaker_window,
                    cooldown_s=self.config.breaker_cooldown_s,
                ))
            for spec in specs
        }
        self.ring = HashRing(self.shards.keys())
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        # single-threaded counters: only the router loop touches them
        self.counters = {
            "requests": 0, "responses": 0, "errors": 0,
            "steals": 0, "redispatches": 0, "shard_restarts": 0,
            "reloads": 0, "local_rpcs": 0,
        }
        self.rolling_latency = RollingLatency()
        self.latency = LatencyRecorder()

        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ring_changed: Optional[asyncio.Event] = None
        self._reload_lock: Optional[asyncio.Lock] = None
        self._monitor_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # lifecycle (thread-owning facade)
    # ------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Start every shard, then serve; blocks until listening."""
        # spawn shards before the loop (concurrently — a process
        # backend blocks on the daemon's startup announcement): a fleet
        # that cannot start its backends should fail loudly, not
        # half-serve
        states = self._shard_list()
        with ThreadPoolExecutor(max_workers=max(1, len(states))) as pool:
            list(pool.map(lambda s: s.backend.start(), states))
        for state in states:
            state.generation += 1
            state.healthy = True
        self._thread = threading.Thread(
            target=self._run_loop, name="safeflow-fleet", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=START_WAIT)
        if self._startup_error is not None:
            raise RuntimeError(
                f"fleet router failed to start: {self._startup_error}")
        if self.address is None:
            raise RuntimeError("fleet router did not start in time")
        return self.address

    def stop(self) -> None:
        """Stop serving, then stop every shard (graceful)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), loop).result(timeout=30.0)
            except Exception:
                pass
        if self._thread is not None:
            self._thread.join(timeout=60.0)
        states = self._shard_list()
        with ThreadPoolExecutor(max_workers=max(1, len(states))) as pool:
            list(pool.map(lambda s: s.backend.stop(), states))

    def reload(self, timeout: float = 600.0) -> Dict[str, Any]:
        """Rolling restart of every shard (blocking facade)."""
        future = asyncio.run_coroutine_threadsafe(
            self._rolling_reload(), self._require_loop())
        return future.result(timeout=timeout)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Thread-safe read (the CLI's --metrics-json dump)."""
        future = asyncio.run_coroutine_threadsafe(
            self._fleet_metrics(), self._require_loop())
        return future.result(timeout=10.0)

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None or not self._loop.is_running():
            raise RuntimeError("fleet router is not running")
        return self._loop

    def _shard_list(self) -> List[_ShardState]:
        return [self.shards[sid] for sid in sorted(self.shards)]

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
        finally:
            loop.close()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        self._ring_changed = asyncio.Event()
        self._reload_lock = asyncio.Lock()
        for state in self._shard_list():
            state.free = asyncio.Queue()
            state.checkout = asyncio.Semaphore(self.config.conns_per_shard)
            state.restart_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._serve_client, host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_MESSAGE_BYTES + 2,
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._monitor_task = asyncio.ensure_future(self._monitor())
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            self._stopping = True
            self._monitor_task.cancel()
            self._server.close()
            await self._server.wait_closed()
            # cancel whatever is still in flight (client handlers,
            # forwards, restarts) and let it unwind
            pending = [t for t in asyncio.all_tasks()
                       if t is not asyncio.current_task()]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            for state in self._shard_list():
                await self._drain_pool(state)

    async def _shutdown(self) -> None:
        self._stopping = True
        if self._stop_event is not None:
            self._stop_event.set()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """One client connection, handled request-by-request.

        Sequential per connection is the daemon's own contract (one
        handler thread reads, answers, reads again), so the router
        mirrors it instead of paying a per-request task + ordered
        delivery queue — concurrency comes from connections, which is
        also how every client (SafeFlowClient, the bench, other
        routers) actually drives it.
        """
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    writer.write(protocol.encode(protocol.error_response(
                        None, protocol.INVALID_REQUEST,
                        "message exceeds MAX_MESSAGE_BYTES")))
                    await writer.drain()
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                writer.write(await self._dispatch(line))
                await writer.drain()
        except asyncio.CancelledError:
            pass  # router shutdown: just close the connection
        except (ConnectionError, OSError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, line: bytes) -> bytes:
        """One request line → one response line (never raises)."""
        started = time.perf_counter()
        self.counters["requests"] += 1
        try:
            payload = json.loads(line.decode("utf-8"))
        except ValueError:
            self.counters["errors"] += 1
            return protocol.encode(protocol.error_response(
                None, protocol.PARSE_ERROR, "request is not valid JSON"))
        req_id = payload.get("id") if isinstance(payload, dict) else None
        method = payload.get("method") if isinstance(payload, dict) else None
        try:
            if method == "analyze":
                raw = await self._forward_analyze(payload, line)
            else:
                self.counters["local_rpcs"] += 1
                raw = protocol.encode(await self._local_rpc(
                    method, payload, req_id))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # the router must always answer
            self.counters["errors"] += 1
            raw = protocol.encode(protocol.error_response(
                req_id, protocol.INTERNAL_ERROR,
                f"fleet router error: {exc}"))
        self.counters["responses"] += 1
        elapsed = time.perf_counter() - started
        self.rolling_latency.observe(elapsed)
        self.latency.record(elapsed)
        return raw

    # ------------------------------------------------------------------
    # analyze forwarding: affinity, stealing, re-dispatch
    # ------------------------------------------------------------------

    async def _forward_analyze(self, payload: Dict[str, Any],
                               line: bytes) -> bytes:
        params = payload.get("params")
        key = routing_key(params if isinstance(params, dict) else {})
        req_id = payload.get("id")
        deadline = time.monotonic() + self.config.redispatch_deadline
        failed: Set[int] = set()
        while True:
            if time.monotonic() >= deadline:
                self.counters["errors"] += 1
                return protocol.encode(protocol.error_response(
                    req_id, protocol.SHUTTING_DOWN,
                    "no healthy shard available"))
            sid = self._route(key, failed)
            if sid is None:
                if failed:
                    # every shard failed this request once; start the
                    # walk over — restarts may have landed by now
                    failed.clear()
                    continue
                await self._wait_ring_change(deadline)
                continue
            state = self.shards[sid]
            if not state.breaker.allow():
                # lost the half-open probe slot to a concurrent request
                # (routable() raced); walk on without recording a fault
                failed.add(sid)
                continue
            state.outstanding += 1
            state.routed += 1
            try:
                raw = await self._shard_call(state, line)
            except (ConnectionError, OSError, EOFError):
                # the forward died before a response: provably no kept
                # result on the client side, so re-dispatch is safe
                failed.add(sid)
                state.breaker.record_failure()
                state.redispatches_out += 1
                self.counters["redispatches"] += 1
                self._mark_suspect(state)
            else:
                self._record_breaker_outcome(state, raw)
                return raw
            finally:
                state.outstanding -= 1

    def _route(self, key: str, failed: Set[int]) -> Optional[int]:
        """Home shard for ``key``, unless stealing is warranted."""
        skip = set(failed)
        for sid, state in self.shards.items():
            if (not state.healthy or state.draining
                    or not state.breaker.routable()):
                skip.add(sid)
        home = self.ring.lookup(key, skip)
        if home is None:
            return None
        home_state = self.shards[home]
        home_load = home_state.load()
        if home_load >= self.config.steal_threshold:
            thief = min(
                (s for sid, s in self.shards.items() if sid not in skip),
                key=lambda s: (s.load(), s.sid),
            )
            if (thief.sid != home
                    and thief.load() + self.config.steal_margin
                    <= home_load):
                home_state.steals_out += 1
                thief.steals_in += 1
                self.counters["steals"] += 1
                return thief.sid
        return home

    #: error codes that indict the *shard* rather than the request —
    #: what the breaker counts as failures. parse/param errors and
    #: admission rejections (queue_full, rate_limited, shed) mean the
    #: shard is alive and answering; crashes, expired deadlines, and
    #: internal errors mean it is not keeping up.
    _SHARD_FAULT_CODES = frozenset({
        protocol.WORKER_CRASHED,
        protocol.DEADLINE_EXCEEDED,
        protocol.INTERNAL_ERROR,
    })

    def _record_breaker_outcome(self, state: _ShardState,
                                raw: bytes) -> None:
        """Feed one forwarded response into the shard's breaker. The
        fast path (no ``"error"`` substring) skips JSON decoding — the
        router passes responses through untouched, so this sniff is
        the only per-response cost the breaker adds."""
        if b'"error"' not in raw:
            state.breaker.record_success()
            return
        try:
            error = (json.loads(raw.decode("utf-8")) or {}).get("error")
            code = (error or {}).get("code")
        except (ValueError, AttributeError):
            code = None
        if code in self._SHARD_FAULT_CODES:
            state.breaker.record_failure()
        else:
            state.breaker.record_success()

    async def _wait_ring_change(self, deadline: float) -> None:
        self._ring_changed.clear()
        timeout = min(1.0, max(0.05, deadline - time.monotonic()))
        try:
            await asyncio.wait_for(self._ring_changed.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    def _notify_ring_change(self) -> None:
        if self._ring_changed is not None:
            self._ring_changed.set()

    # ------------------------------------------------------------------
    # shard connections
    # ------------------------------------------------------------------

    async def _shard_call(self, state: _ShardState, line: bytes) -> bytes:
        """One exclusive round-trip on a pooled shard connection.

        The connection is held for the whole round trip, so the
        response on it is unambiguously *this* request's (the daemon
        answers in order per connection); the raw response line passes
        through to the client untouched.
        """
        conn = await self._acquire_conn(state)
        try:
            conn.writer.write(line)
            await conn.writer.drain()
            raw = await conn.reader.readline()
            if not raw:
                raise ConnectionError("shard closed the connection")
        except BaseException:
            self._discard_conn(state, conn)
            raise
        self._release_conn(state, conn)
        return raw

    async def _acquire_conn(self, state: _ShardState) -> _Conn:
        """Check out a connection; the semaphore bounds concurrent
        checkouts (≙ busy handler threads on the daemon), the free
        queue recycles idle sockets within the current generation."""
        await state.checkout.acquire()
        try:
            while not state.free.empty():
                conn = state.free.get_nowait()
                if conn.generation == state.generation:
                    return conn
                conn.close()
            address = state.backend.address
            if address is None:
                raise ConnectionError("shard has no address")
            reader, writer = await asyncio.open_connection(
                *address, limit=protocol.MAX_MESSAGE_BYTES + 2)
            return _Conn(reader, writer, state.generation)
        except BaseException:
            state.checkout.release()
            raise

    def _release_conn(self, state: _ShardState, conn: _Conn) -> None:
        if conn.generation == state.generation:
            state.free.put_nowait(conn)
        else:
            conn.close()
        state.checkout.release()

    def _discard_conn(self, state: _ShardState, conn: _Conn) -> None:
        conn.close()
        state.checkout.release()

    async def _drain_pool(self, state: _ShardState) -> None:
        """Close every idle pooled connection of a shard."""
        if state.free is None:
            return
        while not state.free.empty():
            state.free.get_nowait().close()

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------

    def _mark_suspect(self, state: _ShardState) -> None:
        if state.healthy and not self._stopping:
            state.healthy = False
            asyncio.ensure_future(self._restart_shard(state))

    async def _monitor(self) -> None:
        """Periodic health poll of every shard (fresh connection per
        poll so saturation of the forwarding pool can never read as
        shard death)."""
        while not self._stopping:
            await asyncio.sleep(self.config.health_interval)
            for state in self._shard_list():
                if self._stopping or state.draining or not state.healthy:
                    continue
                if (not state.backend.alive
                        and not isinstance(state.backend, InProcessBackend)):
                    self._mark_suspect(state)
                    continue
                try:
                    health = await asyncio.wait_for(
                        self._shard_rpc_fresh(state, "health"),
                        self.config.health_timeout)
                    state.last_health = health or {}
                except asyncio.CancelledError:
                    raise
                except Exception:
                    self._mark_suspect(state)

    async def _restart_shard(self, state: _ShardState) -> None:
        """Supervised restart: same spec, same cache dir, new port."""
        async with state.restart_lock:
            if state.healthy or self._stopping:
                return
            state.generation += 1  # invalidate pooled connections now
            await self._drain_pool(state)
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(
                    None, lambda: state.backend.restart(graceful=False))
            except Exception:
                restarted = False
            else:
                restarted = True
                state.restarts += 1
                self.counters["shard_restarts"] += 1
            if restarted and await self._wait_shard_ready(state):
                state.healthy = True
                self._notify_ring_change()
                return
        # restart failed or never became ready: back off and re-arm
        if not self._stopping:
            await asyncio.sleep(self.config.health_interval)
            if not state.healthy and not self._stopping:
                asyncio.ensure_future(self._restart_shard(state))

    async def _wait_shard_ready(self, state: _ShardState,
                                timeout: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not self._stopping:
            try:
                result = await asyncio.wait_for(
                    self._shard_rpc_fresh(state, "ping"), 2.0)
                if result and result.get("pong"):
                    return True
            except asyncio.CancelledError:
                raise
            except Exception:
                await asyncio.sleep(0.1)
        return False

    async def _shard_rpc_fresh(self, state: _ShardState, method: str,
                               params: Optional[Dict[str, Any]] = None
                               ) -> Any:
        """A router-originated RPC on its own short-lived connection
        (never contends with the forwarding pool)."""
        address = state.backend.address
        if address is None:
            raise ConnectionError("shard has no address")
        reader, writer = await asyncio.open_connection(
            *address, limit=protocol.MAX_MESSAGE_BYTES + 2)
        try:
            writer.write(protocol.encode(protocol.request_payload(
                method, params, f"fleet-{method}")))
            await writer.drain()
            raw = await reader.readline()
        finally:
            try:
                writer.close()
            except Exception:
                pass
        if not raw:
            raise ConnectionError("shard closed the connection")
        payload = json.loads(raw.decode("utf-8"))
        error = payload.get("error")
        if error is not None:
            raise RuntimeError(error.get("message", "shard error"))
        return payload.get("result")

    # ------------------------------------------------------------------
    # rolling reload
    # ------------------------------------------------------------------

    async def _rolling_reload(self) -> Dict[str, Any]:
        """Drain and restart one shard at a time; never drop requests."""
        async with self._reload_lock:
            reloaded: List[int] = []
            for state in self._shard_list():
                if self._stopping:
                    break
                state.draining = True
                try:
                    while state.outstanding > 0:
                        await asyncio.sleep(0.02)
                    state.generation += 1
                    await self._drain_pool(state)
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(
                        None, lambda s=state: s.backend.restart(
                            graceful=True))
                    state.restarts += 1
                    self.counters["shard_restarts"] += 1
                    state.healthy = await self._wait_shard_ready(state)
                finally:
                    state.draining = False
                    self._notify_ring_change()
                if not state.healthy:
                    self._mark_suspect_after_reload(state)
                reloaded.append(state.sid)
            self.counters["reloads"] += 1
            return {"reloaded": reloaded,
                    "healthy": [s.sid for s in self._shard_list()
                                if s.healthy]}

    def _mark_suspect_after_reload(self, state: _ShardState) -> None:
        if not self._stopping:
            asyncio.ensure_future(self._restart_shard(state))

    # ------------------------------------------------------------------
    # fleet-level RPCs
    # ------------------------------------------------------------------

    async def _local_rpc(self, method: Optional[str],
                         payload: Dict[str, Any], req_id) -> Dict[str, Any]:
        if method == "ping":
            return protocol.ok_response(req_id, {"pong": True,
                                                 "role": "fleet"})
        if method == "health":
            return protocol.ok_response(req_id, await self._fleet_health())
        if method == "metrics":
            return protocol.ok_response(req_id, await self._fleet_metrics())
        if method == "cancel":
            params = payload.get("params") or {}
            return protocol.ok_response(
                req_id, await self._broadcast_cancel(params))
        if method == "fleet_reload":
            return protocol.ok_response(req_id, await self._rolling_reload())
        if method == "shutdown":
            # answer first, then tear down: the client deserves its ack
            asyncio.get_running_loop().call_later(
                0.2, lambda: asyncio.ensure_future(self._shutdown()))
            return protocol.ok_response(req_id, {"shutting_down": True,
                                                 "role": "fleet"})
        return protocol.error_response(
            req_id, protocol.METHOD_NOT_FOUND,
            f"unknown method {method!r}")

    async def _fleet_health(self) -> Dict[str, Any]:
        states = self._shard_list()
        shards = [s.snapshot() for s in states]
        healthy = sum(1 for s in states if s.healthy)
        rolling = self.rolling_latency.quantiles()
        inflight = sum(s.outstanding for s in states)
        return {
            "status": "ok" if healthy == len(shards) else (
                "degraded" if healthy else "down"),
            "role": "fleet",
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self._started_mono,
            "shards": shards,
            "shards_total": len(shards),
            "shards_healthy": healthy,
            "queue_depth": sum(s.queue_depth for s in states),
            "inflight": inflight,
            "in_flight": inflight,
            "latency_p50_s": rolling["p50_s"],
            "latency_p99_s": rolling["p99_s"],
        }

    async def _fleet_metrics(self) -> Dict[str, Any]:
        health = await self._fleet_health()
        states = self._shard_list()
        qos: Dict[str, Any] = {
            "breakers": {
                str(s.sid): s.breaker.snapshot() for s in states
            },
            "breaker_opens": sum(s.breaker.opens for s in states),
        }
        # fold each shard's own qos block (per-tenant counters,
        # brownout level, concurrency limit) in from its health poll
        shard_tenants: Dict[str, Dict[str, int]] = {}
        for state in states:
            for tenant, counts in ((state.last_health.get("qos") or {})
                                   .get("tenants") or {}).items():
                merged = shard_tenants.setdefault(tenant, {})
                for outcome, n in counts.items():
                    merged[outcome] = merged.get(outcome, 0) + int(n or 0)
        if shard_tenants:
            qos["tenants"] = {
                name: dict(sorted(counts.items()))
                for name, counts in sorted(shard_tenants.items())
            }
        return {
            "role": "fleet",
            "started_at": self.started_at,
            "uptime_seconds": health["uptime_seconds"],
            "status": health["status"],
            "router": dict(self.counters),
            "qos": qos,
            "latency": {
                "rolling": self.rolling_latency.quantiles(),
                "request": self.latency.summary(),
            },
            "shards": health["shards"],
        }

    async def _broadcast_cancel(self,
                                params: Dict[str, Any]) -> Dict[str, Any]:
        """``cancel`` fans out: the router does not track which shard
        holds a job id, and cancelling a finished/unknown job is a
        no-op on every daemon."""
        outcomes = []
        for state in self._shard_list():
            if not state.healthy:
                continue
            try:
                outcomes.append(await asyncio.wait_for(
                    self._shard_rpc_fresh(state, "cancel", params), 5.0))
            except asyncio.CancelledError:
                raise
            except Exception:
                continue
        cancelled = any((o or {}).get("cancelled") for o in outcomes)
        state_word = next(
            ((o or {}).get("state") for o in outcomes
             if (o or {}).get("cancelled")), None)
        return {"cancelled": cancelled, "state": state_word,
                "shards_asked": len(outcomes)}
