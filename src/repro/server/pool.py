"""Process worker pool of the analysis service.

Reuses the batch machinery's platform resolution
(:func:`repro.perf.batch.resolve_mp_context`): analyses run in a
long-lived supervised process executor (fork where available, spawn
otherwise), falling back to in-process execution when no process pool
can be created at all. Worker processes are the isolation boundary —
a crashing analysis (or a pycparser recursion blow-up) kills a worker,
not the daemon — and they share the on-disk ``IRCache`` through
``config.cache_dir``, which is what makes the daemon *warm*: a
repeat request for an unchanged translation unit, on any worker,
replays its verdict record without running the front end or phases
1-3, and a request under a new config unpickles the stored program
instead of parsing it again.

Crash isolation (:mod:`repro.resilience`): a worker death breaks the
underlying ``ProcessPoolExecutor`` and fails every outstanding future;
the :class:`~repro.resilience.supervisor.SupervisedExecutor` rebuilds
it (exactly once per break, however many runner threads observe it)
and each runner transparently *resubmits* its own request, so
unaffected requests survive a neighbour's crash. A request whose spec
has crashed ``max_crashes`` workers is quarantined with a structured
``worker_crashed`` error instead of being retried forever, and a
*resubmission* of an already-quarantined spec fails fast without ever
reaching a worker — the daemon keeps serving. Per-worker :class:`ResourceGuards` travel inside
the job spec and are applied by the worker entry point, so a runaway
request degrades into ``resource_exhausted`` rather than an OOM kill.

``workers`` runner *threads* pull :class:`PendingJob` items off the
:class:`RequestQueue` and drive each through the executor, polling in
short slices so cancellation and deadlines resolve within
``poll_interval`` even though a busy worker process cannot be
interrupted: the runner abandons the future (the response goes out
immediately; the orphaned process run finishes in the background and
its result is discarded). The runner count equals the process count,
so an abandoned future at worst costs one temporarily busy worker,
never a wedged daemon.

``shutdown(drain=True)`` closes the queue, lets runners finish the
backlog, then joins them — the pool half of the graceful-drain
guarantee.
"""

from __future__ import annotations

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool
import dataclasses
import hashlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Optional

from ..resilience import CrashLedger, ResourceGuards, SupervisedExecutor, worker_harness
from .protocol import (
    ANALYSIS_FAILED,
    CANCELLED,
    DEADLINE_EXCEEDED,
    INTERNAL_ERROR,
    RESOURCE_EXHAUSTED,
    WORKER_CRASHED,
)
from .queue import RequestQueue


def _execute_spec(spec: Dict[str, Any], config) -> Dict[str, Any]:
    """Run one analysis request; module-level for pickling.

    Returns a plain JSON-ready payload: the rendered report (the same
    bytes ``safeflow analyze`` would print) plus the ``--json`` form,
    or a one-line structured error. Never raises — exceptions inside a
    worker become ``{"ok": False, ...}`` payloads. ``spec["_guards"]``
    (a :meth:`ResourceGuards.to_tuple` value placed there by the pool)
    arms the per-worker resource guards.
    """
    from ..core.driver import SafeFlow
    from ..errors import ResourceExhaustedError, SafeFlowError

    guards = None
    guards_tuple = spec.get("_guards")
    if guards_tuple is not None:
        guards = ResourceGuards.from_tuple(guards_tuple)
    try:
        with worker_harness(spec.get("name", "program"), guards):
            overrides = spec.get("config_overrides") or {}
            if overrides:
                config = dataclasses.replace(config, **overrides)
            report = SafeFlow(config).analyze_request(
                source=spec.get("source"),
                filename=spec.get("filename", "<source>"),
                files=spec.get("files"),
                name=spec.get("name", "program"),
            )
    except ResourceExhaustedError as exc:
        if exc.kind == "deadline":
            return {"ok": False, "code": "deadline_exceeded",
                    "error": "analysis exceeded its deadline"}
        return {"ok": False, "code": "resource_exhausted",
                "error": f"resource exhausted ({exc.kind}): {exc}"}
    except MemoryError:
        return {"ok": False, "code": "resource_exhausted",
                "error": "resource exhausted (rss): analysis ran "
                         "out of memory"}
    except SafeFlowError as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:
        return {"ok": False,
                "error": f"internal error: {type(exc).__name__}: {exc}"}
    return {
        "ok": True,
        "name": report.name,
        "passed": report.passed,
        "exit_code": 0 if report.passed else 1,
        "counts": report.counts(),
        "render": report.render(verbose=bool(spec.get("verbose"))),
        "report": report.to_json(),
    }


def _spec_key(spec: Dict[str, Any]) -> str:
    """Stable crash-attribution key: same input ⇒ same suspect."""
    try:
        text = json.dumps(spec, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        text = repr(sorted(spec.items(), key=lambda kv: kv[0]))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class WorkerPool:
    """Runner threads + (optional) supervised process executor."""

    def __init__(self, queue: RequestQueue, config,
                 workers: Optional[int] = None,
                 use_processes: bool = True,
                 poll_interval: float = 0.05,
                 guards: Optional[ResourceGuards] = None,
                 max_crashes: int = 2,
                 events: Optional[Callable[[str], None]] = None,
                 limiter=None):
        self.queue = queue
        self.config = config
        self.workers = max(1, workers or os.cpu_count() or 1)
        self.poll_interval = poll_interval
        self.guards = guards
        #: optional :class:`repro.qos.AdaptiveLimiter`: runners take an
        #: in-flight slot *before* pulling from the queue, so backlog
        #: waits where fairness and brownout can still act on it
        self.limiter = limiter
        self.ledger = CrashLedger(max_crashes)
        self._events = events
        self._lock = threading.Lock()
        self._running = 0
        self._threads: list = []
        self._supervisor: Optional[SupervisedExecutor] = None
        self._started = False
        if use_processes:
            supervisor = SupervisedExecutor(max_workers=self.workers)
            if supervisor.available:
                self._supervisor = supervisor
            else:
                supervisor.shutdown()  # in-process fallback

    @property
    def mode(self) -> str:
        return "processes" if self._supervisor is not None else "in-process"

    @property
    def worker_restarts(self) -> int:
        return self._supervisor.restarts if self._supervisor else 0

    def running_count(self) -> int:
        with self._lock:
            return self._running

    def _event(self, name: str) -> None:
        if self._events is not None:
            try:
                self._events(name)
            except Exception:  # metrics must never hurt the data plane
                pass

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._run_loop, name=f"safeflow-runner-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _run_loop(self) -> None:
        while True:
            if self.limiter is not None:
                if not self.limiter.acquire(timeout=0.1):
                    if self.queue.finished():
                        return
                    continue
            job = None
            started = None
            try:
                job = self.queue.get(timeout=0.1)
                if job is None:
                    if self.queue.finished():
                        return
                    continue
                if not job.start():
                    job = None  # cancelled between dequeue and start
                    continue
                started = time.monotonic()
                with self._lock:
                    self._running += 1
                try:
                    self._execute(job)
                finally:
                    with self._lock:
                        self._running -= 1
            finally:
                if self.limiter is not None:
                    duration = (time.monotonic() - started
                                if started is not None else None)
                    self.limiter.release(duration)

    # ------------------------------------------------------------------

    def _guarded_spec(self, job) -> Dict[str, Any]:
        """The job spec plus its resource-guard budget.

        The worker-side deadline is the tighter of the configured
        guard and the request's remaining protocol deadline, so a
        worker abandoned by its runner still stops burning CPU soon
        after the response went out.
        """
        guards = self.guards or ResourceGuards()
        remaining = job.remaining()
        if remaining is not None:
            guards = guards.with_deadline(max(0.001, remaining))
        if guards == ResourceGuards():
            return job.spec
        spec = dict(job.spec)
        spec["_guards"] = guards.to_tuple()
        return spec

    def _execute(self, job) -> None:
        remaining = job.remaining()
        if remaining is not None and remaining <= 0:
            self._resolve_deadline(job)
            return
        if self._supervisor is None:
            # in-process fallback: no mid-run cancellation point, so
            # deadline/cancel races are settled after the run instead
            payload = _execute_spec(self._guarded_spec(job), self.config)
            remaining = job.remaining()
            if remaining is not None and remaining <= 0:
                self._resolve_deadline(job)
            else:
                self._resolve(job, payload)
            return
        key = _spec_key(job.spec)
        if self.ledger.is_quarantined(key):
            # known worker-killer (same spec resubmitted, e.g. by a
            # retrying client): fail fast without feeding it another
            # worker — dispatching it would break the pool again and
            # disrupt every in-flight neighbour
            self._fail_quarantined(job, self.ledger.count(key))
            return
        while True:  # resubmission loop: one pass per worker crash
            if not self._submit_once(job, key):
                return

    def _submit_once(self, job, key: str) -> bool:
        """One executor pass; True means "crashed, resubmit me"."""
        try:
            generation, future = self._supervisor.submit(
                _execute_spec, self._guarded_spec(job), self.config
            )
        except RuntimeError as exc:  # no pool can be (re)built
            job.fail(INTERNAL_ERROR, f"worker pool unavailable: {exc}")
            return False
        while True:
            slice_timeout = self.poll_interval
            remaining = job.remaining()
            if remaining is not None:
                if remaining <= 0:
                    future.cancel()
                    self._resolve_deadline(job)
                    return False
                slice_timeout = min(slice_timeout, remaining)
            if job.cancelled:
                future.cancel()
                job.fail(CANCELLED, "request cancelled")
                return False
            try:
                payload = future.result(timeout=slice_timeout)
            except concurrent.futures.TimeoutError:
                continue
            except BrokenProcessPool:
                return self._on_crash(job, key, generation)
            except concurrent.futures.CancelledError:
                # pool break cancelled the queued future before start
                return self._on_crash(job, key, generation, suspect=False)
            except Exception as exc:  # future raised something odd
                job.fail(INTERNAL_ERROR,
                         f"{type(exc).__name__}: {exc}")
                return False
            self._resolve(job, payload)
            return False

    def _on_crash(self, job, key: str, generation: int,
                  suspect: bool = True) -> bool:
        """Handle a broken pool under ``job``; True to resubmit."""
        if self._supervisor.notify_broken(generation):
            self._event("worker_restarts")
        if suspect:
            crashes = self.ledger.record(key)
            if crashes >= self.ledger.max_crashes:
                self._fail_quarantined(job, crashes)
                return False
        if not self._supervisor.available:
            job.fail(INTERNAL_ERROR,
                     "analysis worker process died and the pool could "
                     "not be rebuilt")
            return False
        self._event("jobs_resubmitted")
        return True

    def _fail_quarantined(self, job, crashes: int) -> None:
        self._event("jobs_quarantined")
        job.fail(
            WORKER_CRASHED,
            f"analysis worker crashed {crashes} times on this "
            f"request; quarantined",
            data={"crashes": crashes},
        )

    def _resolve(self, job, payload: Dict[str, Any]) -> None:
        if not payload.get("ok"):
            code = {
                "deadline_exceeded": DEADLINE_EXCEEDED,
                "resource_exhausted": RESOURCE_EXHAUSTED,
            }.get(payload.get("code"), ANALYSIS_FAILED)
            job.fail(code, str(payload.get("error", "analysis failed")))
            return
        job.finish(payload)

    def _resolve_deadline(self, job) -> None:
        budget = (job.deadline - job.created) if job.deadline else 0.0
        job.fail(DEADLINE_EXCEEDED,
                 f"deadline of {budget:.3f}s exceeded")

    # ------------------------------------------------------------------

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Close the queue and stop runners.

        ``drain=True`` finishes every queued job first (no admitted
        request loses its response); ``drain=False`` fails queued jobs
        with ``shutting_down`` and only waits for the currently
        running ones.
        """
        self.queue.close(drain=drain)
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)
        if self._supervisor is not None:
            self._supervisor.shutdown(wait=drain)
