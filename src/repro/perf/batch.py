"""Parallel batch analysis of independent programs, supervised.

Whole programs are the natural parallel grain for SafeFlow: each job
(a corpus system, a generated scaling program, a user translation
unit set) is analyzed in complete isolation, so fanning jobs across a
:class:`~concurrent.futures.ProcessPoolExecutor` needs no shared state
beyond the on-disk caches, which are multi-process safe by design
(atomic replace writes, checksum-validated reads).

One worker process analyzes one job end to end and ships the rendered
:class:`~repro.core.results.AnalysisReport` back — reports are plain
frozen dataclasses and pickle cheaply. A job that raises is reported as
a failed :class:`BatchResult` without disturbing its siblings; a job
that exceeds ``timeout`` seconds is reported as timed out.

Crash isolation (:mod:`repro.resilience`): the driver keeps at most
one dispatched future per worker slot, so when a worker dies and
``BrokenProcessPool`` fails every outstanding future, the in-flight
set *is* the suspect set. The executor is rebuilt transparently,
completed results are kept, and suspects are re-run one at a time —
isolation makes a repeat crash unambiguous — until a job has crashed
``max_crashes`` times (default 2) and is quarantined with a structured
``worker_crashed`` result. One crash therefore costs one re-run (or,
for a genuinely poisoned input, one result), never the batch.

Resource guards: per-worker ``setrlimit`` caps and the in-analysis
deadline (:mod:`repro.resilience.guards`) are applied by the worker
entry point; a per-job ``timeout`` automatically arms the worker-side
deadline so runaway analyses abort *inside* the worker with a
``resource_exhausted``/timeout result instead of squatting on a slot.

``max_workers=1`` (or a single job) runs inline in the calling process
— the degenerate case doubles as the escape hatch (``--jobs 1``) and
keeps single-job semantics identical to :meth:`SafeFlow.analyze_files`.

Platform robustness: worker processes prefer the cheap ``fork`` start
method, fall back to ``spawn`` where ``fork`` does not exist, and fall
all the way back to in-process sequential execution when no process
pool can be created at all (:func:`resolve_mp_context` /
:func:`run_batch`). The analysis service
(:mod:`repro.server.pool`) reuses the same resolution.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import time
import traceback
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class BatchJob:
    """One independent analysis unit."""

    name: str
    files: Sequence[str]
    include_dirs: Sequence[str] = ()
    defines: Optional[Dict[str, str]] = None


@dataclass
class BatchResult:
    """Outcome of one job: exactly one of ``report`` / ``error`` set.

    ``error`` is a single structured line (``ExcType: message``) fit
    for terminal output and JSON payloads; ``detail`` carries the full
    traceback for post-mortems and is never printed by the CLI's
    human-readable path. ``code`` classifies failures for machine
    consumers: ``analysis_failed``, ``timeout``, ``worker_crashed``,
    or ``resource_exhausted``. ``duration`` is measured per job (from
    this job's dispatch/start), never from the batch start.
    """

    name: str
    report: Optional[object] = None
    error: Optional[str] = None
    detail: Optional[str] = None
    duration: float = 0.0
    code: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchOutcome:
    """Ordered per-job results plus whole-batch wall-clock.

    ``worker_restarts`` counts executor rebuilds after worker crashes;
    ``quarantined`` lists (in job order) the jobs resolved as
    ``worker_crashed`` after repeated crashes.
    """

    results: List[BatchResult] = field(default_factory=list)
    wall_time: float = 0.0
    worker_restarts: int = 0
    quarantined: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def _run_job(job: BatchJob, config, guards=None) -> BatchResult:
    """Worker entry point; must stay module-level for pickling."""
    from ..core.driver import SafeFlow
    from ..errors import ResourceExhaustedError
    from ..resilience import worker_harness

    start = time.perf_counter()
    try:
        with worker_harness(job.name, guards):
            overrides = {}
            if job.include_dirs:
                overrides["include_dirs"] = tuple(job.include_dirs)
            if job.defines:
                overrides["defines"] = dict(job.defines)
            job_config = dataclasses.replace(config, **overrides)
            report = SafeFlow(job_config).analyze_files(
                list(job.files), name=job.name
            )
        return BatchResult(
            name=job.name,
            report=report,
            duration=time.perf_counter() - start,
        )
    except ResourceExhaustedError as exc:
        duration = time.perf_counter() - start
        if exc.kind == "deadline":
            return BatchResult(
                name=job.name, code="timeout",
                error=f"timed out after {duration:.1f}s "
                      f"(in-analysis deadline)",
                duration=duration,
            )
        return BatchResult(
            name=job.name, code="resource_exhausted",
            error=f"resource exhausted ({exc.kind}): {exc}",
            duration=duration,
        )
    except MemoryError:
        return BatchResult(
            name=job.name, code="resource_exhausted",
            error="resource exhausted (rss): analysis ran out of memory",
            duration=time.perf_counter() - start,
        )
    except Exception as exc:
        return BatchResult(
            name=job.name,
            code="analysis_failed",
            error=f"{type(exc).__name__}: {exc}",
            detail=traceback.format_exc(limit=8),
            duration=time.perf_counter() - start,
        )


def resolve_mp_context(prefer: str = "fork"):
    """Best available multiprocessing context, or ``None``.

    Tries ``prefer`` (default ``fork``: cheap worker start, no
    re-import), then ``spawn``, then the platform default. ``None``
    means no usable context — callers must run in-process.
    """
    for method in (prefer, "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    try:  # pragma: no cover - every supported platform has a default
        return multiprocessing.get_context()
    except Exception:  # pragma: no cover
        return None


def _aborted_result(job: BatchJob) -> BatchResult:
    return BatchResult(
        name=job.name, code="aborted",
        error="aborted: an earlier job failed (--fail-fast)",
    )


def _run_sequential(outcome: BatchOutcome, jobs: Sequence[BatchJob],
                    config, start: float, guards=None,
                    fail_fast: bool = False) -> BatchOutcome:
    from ..resilience import faults

    stopped = False
    for job in jobs:
        if stopped:
            outcome.results.append(_aborted_result(job))
            continue
        result = _run_job(job, config, guards)
        outcome.results.append(result)
        faults.on_job_settled(job.name)
        if fail_fast and not result.ok:
            stopped = True
    outcome.wall_time = time.perf_counter() - start
    return outcome


def _effective_guards(guards, timeout: Optional[float]):
    """Fold the per-job ``timeout`` into the worker-side deadline."""
    from ..resilience import ResourceGuards

    if guards is None:
        guards = ResourceGuards()
    return guards.with_deadline(timeout)


def run_batch(
    jobs: Sequence[BatchJob],
    config,
    max_workers: int = 1,
    timeout: Optional[float] = None,
    guards=None,
    max_crashes: int = 2,
    fail_fast: bool = False,
) -> BatchOutcome:
    """Analyze ``jobs`` with up to ``max_workers`` processes.

    Results come back in job order regardless of completion order. A
    per-job ``timeout`` (seconds, measured from each job's dispatch)
    turns a straggler into a timed-out result; completed siblings are
    unaffected. ``guards`` caps each worker's CPU/RSS and arms the
    in-analysis deadline; ``max_crashes`` is the quarantine threshold
    of the crash supervision (see the module docstring).

    ``fail_fast`` stops dispatching after the first failed job; jobs
    never dispatched come back as ``aborted`` results.

    A batch killed mid-run resumes by running it again with the same
    ``config.cache_dir``: every job that finished before the kill left
    an fsynced verdict record (:meth:`repro.perf.IRCache.store_verdict`)
    and replays it, so only unfinished jobs compute. Failed and aborted
    jobs leave no record and run again.
    """
    from ..resilience import SupervisedExecutor

    start = time.perf_counter()
    outcome = BatchOutcome()
    if not jobs:
        return outcome
    guards = _effective_guards(guards, timeout)

    if max_workers <= 1 or len(jobs) == 1:
        return _run_sequential(outcome, jobs, config, start, guards,
                               fail_fast)

    # fork keeps worker start cheap; the analyzer holds no threads or
    # open handles at this point that fork could corrupt. Platforms
    # without fork get spawn; platforms where no pool can be created
    # at all (sandboxes forbidding process creation) run sequentially.
    supervisor = SupervisedExecutor(max_workers=min(max_workers, len(jobs)))
    if not supervisor.available:
        supervisor.shutdown()
        return _run_sequential(outcome, jobs, config, start, guards,
                               fail_fast)
    abandoned = False
    try:
        abandoned = _run_supervised(
            outcome, jobs, config, supervisor, timeout, guards, max_crashes,
            fail_fast,
        )
    finally:
        # an abandoned (timed-out but still running) future would make
        # a waiting shutdown block on the straggler; let it finish in
        # the background instead — its result is discarded anyway
        supervisor.shutdown(wait=not abandoned, cancel_futures=True)
    outcome.wall_time = time.perf_counter() - start
    return outcome


def _run_supervised(outcome: BatchOutcome, jobs: Sequence[BatchJob],
                    config, supervisor, timeout: Optional[float],
                    guards, max_crashes: int,
                    fail_fast: bool = False) -> bool:
    """The supervised dispatch loop; returns True when futures were
    abandoned (timed out while running)."""
    from ..resilience import CrashLedger, faults

    ledger = CrashLedger(max_crashes)
    results: Dict[int, BatchResult] = {}
    pending: "deque[Tuple[int, BatchJob]]" = deque(enumerate(jobs))
    suspects: "deque[Tuple[int, BatchJob]]" = deque()
    # future -> (index, job, dispatched_at, generation)
    inflight: Dict[concurrent.futures.Future, Tuple] = {}
    abandoned = False
    stopping = False  # fail-fast tripped: drain in-flight, dispatch none

    def settle(index: int, result: BatchResult) -> None:
        nonlocal stopping
        results[index] = result
        faults.on_job_settled(jobs[index].name)
        if fail_fast and not result.ok:
            stopping = True

    def dispatch(item) -> None:
        index, job = item
        try:
            generation, future = supervisor.submit(
                _run_job, job, config, guards
            )
        except RuntimeError:
            # no pool can be (re)built anymore: run inline
            settle(index, _run_job(job, config, guards))
            return
        inflight[future] = (index, job, time.perf_counter(), generation)

    def settle_crash(index, job, dispatched_at) -> None:
        key = f"{index}:{job.name}"
        crashes = ledger.record(key)
        if crashes >= max_crashes:
            settle(index, BatchResult(
                name=job.name, code="worker_crashed",
                error=f"worker crashed {crashes} times running this "
                      f"job; quarantined",
                duration=time.perf_counter() - dispatched_at,
            ))
            outcome.quarantined.append(job.name)
        else:
            suspects.append((index, job))

    while pending or suspects or inflight:
        if stopping and not inflight:
            break
        if not stopping:
            while (not stopping and pending
                   and len(inflight) < supervisor.max_workers):
                dispatch(pending.popleft())
            if not inflight and not pending and suspects:
                # isolation: exactly one suspect in flight, so a repeat
                # crash is attributed unambiguously
                dispatch(suspects.popleft())
        if not inflight:
            continue

        wait_timeout = None
        if timeout is not None:
            now = time.perf_counter()
            nearest = min(t for (_, _, t, _) in inflight.values())
            wait_timeout = max(0.0, min(nearest + timeout - now, 0.5))
        done, _ = concurrent.futures.wait(
            list(inflight), timeout=wait_timeout,
            return_when=concurrent.futures.FIRST_COMPLETED,
        )

        broken_generation = None
        for future in done:
            index, job, dispatched_at, generation = inflight.pop(future)
            try:
                settle(index, future.result())
            except BrokenProcessPool:
                broken_generation = generation
                settle_crash(index, job, dispatched_at)
            except concurrent.futures.CancelledError:
                pending.appendleft((index, job))  # never started: retry
            except Exception as exc:  # future raised something odd
                settle(index, BatchResult(
                    name=job.name, code="worker_crashed",
                    error=f"worker failed: {exc!r}",
                    duration=time.perf_counter() - dispatched_at,
                ))
        if broken_generation is not None:
            # the break dooms every other in-flight future too; drain
            # them now so their jobs are recorded as suspects exactly
            # once, then rebuild the executor
            for future, (index, job, dispatched_at, _gen) in list(
                    inflight.items()):
                try:
                    settle(index, future.result(timeout=10.0))
                except BrokenProcessPool:
                    settle_crash(index, job, dispatched_at)
                except concurrent.futures.CancelledError:
                    pending.appendleft((index, job))
                except concurrent.futures.TimeoutError:
                    # still unresolved after the pool broke: merely
                    # slow, not provably crashed (its worker may have
                    # been healthy when the break was flagged). Re-run
                    # it in isolation without a ledger mark so a slow
                    # innocent is never crash-attributed.
                    suspects.append((index, job))
                except Exception as exc:
                    settle(index, BatchResult(
                        name=job.name, code="worker_crashed",
                        error=f"worker failed: {exc!r}",
                        duration=time.perf_counter() - dispatched_at,
                    ))
            inflight.clear()
            if supervisor.notify_broken(broken_generation):
                outcome.worker_restarts += 1

        if timeout is not None:
            now = time.perf_counter()
            for future, (index, job, dispatched_at, _gen) in list(
                    inflight.items()):
                if now - dispatched_at < timeout:
                    continue
                if not future.cancel():
                    abandoned = True  # running: the worker-side
                    # deadline (armed from ``timeout``) will abort it
                del inflight[future]
                settle(index, BatchResult(
                    name=job.name, code="timeout",
                    error=f"timed out after {timeout:.1f}s",
                    duration=now - dispatched_at,
                ))

    # fail-fast: everything never dispatched is reported as aborted
    for index, job in list(pending) + list(suspects):
        if index not in results:
            results[index] = _aborted_result(job)
    outcome.results.extend(results[i] for i in range(len(jobs)))
    return abandoned
