"""Deterministic fault injection for the resilience layer.

A :class:`FaultPlan` describes *what goes wrong and when* — kill the
worker while it runs job k, stall it, raise an artificial allocation
failure — plus the on-disk corruptions the chaos harness applies
between passes (flip bytes in an IR-cache entry, truncate another). Plans travel through the ``SAFEFLOW_FAULTS`` environment
variable as JSON so that fork- and spawn-started worker processes
inherit them without any plumbing through the analysis API: production
code paths call :func:`on_job_start` unconditionally, and with no plan
in the environment that is a single dict lookup.

Determinism rules:

- every fault targets a *job name*, never a timer or a random draw;
- one-shot faults (the default for ``kill``) are latched through an
  ``O_CREAT | O_EXCL`` token file in ``latch_dir``, which is atomic
  across the worker processes of a pool — exactly one worker fires,
  and the supervised re-run of the same job proceeds cleanly;
- ``kill_always`` disables the latch to model a *poisoned* input that
  kills every worker it touches (the quarantine schedule).

Process-killing faults only ever fire inside a real worker process
(:func:`in_worker`), so an in-process fallback pool or a sequential
batch never shoots down the daemon/CLI itself — the fault is simply
skipped there, mirroring the fact that there is no isolation boundary
to test.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import asdict, dataclass
from typing import Optional

#: environment variable carrying the active plan as JSON
ENV_VAR = "SAFEFLOW_FAULTS"


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault schedule."""

    #: SIGKILL the worker process at the start of this job
    kill_job: Optional[str] = None
    #: fire the kill on *every* run of the job (poisoned input);
    #: default is once, latched through ``latch_dir``
    kill_always: bool = False
    #: sleep at the start of this job (slow-worker injection)
    slow_job: Optional[str] = None
    slow_seconds: float = 0.0
    #: raise ``MemoryError`` at the start of this job — the
    #: deterministic stand-in for an RLIMIT_AS allocation failure
    boom_job: Optional[str] = None
    #: SIGKILL the *batch driver* right after this job's result has
    #: settled, when its verdict record is already durable — the
    #: deterministic stand-in for a machine dying mid-batch (the
    #: kill-resume chaos schedule). Unlike ``kill_job`` this
    #: deliberately fires in the driver process, never in a worker.
    kill_after_job: Optional[str] = None
    #: SIGKILL the process during its Nth (1-based) segment-store
    #: append, after a durable *prefix* of the frame bytes reached
    #: ``segments.log`` — the deterministic stand-in for a machine
    #: dying mid-append during ``safeflow watch`` (the watch-kill
    #: chaos schedule). Fires in whatever process owns the store.
    kill_segment_flush: Optional[int] = None
    #: raise inside this recovery-ladder tier ("strict", "gnu",
    #: "prelude", "cleanup", "salvage") every time it is attempted —
    #: the chaos stand-in for a buggy tier. The ladder must treat the
    #: crash as that tier *failing* and fall through to the next tier,
    #: never as a driver error (see
    #: :func:`repro.frontend.recovery.frontend_unit`).
    crash_tier: Optional[str] = None
    #: directory for one-shot latch tokens (required by one-shot kills)
    latch_dir: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        return FaultPlan(**json.loads(text))


# parse cache: the env string is read on every job start; plans are
# tiny but workers run many jobs, so cache by exact string
_parsed: dict = {}


def plan_from_env() -> Optional[FaultPlan]:
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    plan = _parsed.get(text)
    if plan is None:
        try:
            plan = FaultPlan.from_json(text)
        except (ValueError, TypeError):
            return None  # malformed plan: fail-open, inject nothing
        if len(_parsed) > 8:
            _parsed.clear()
        _parsed[text] = plan
    return plan


class activate:
    """Context manager installing ``plan`` into the environment.

    Workers started (or forked) inside the scope inherit the plan;
    the previous value is restored on exit.
    """

    def __init__(self, plan: Optional[FaultPlan]):
        self.plan = plan
        self._previous: Optional[str] = None

    def __enter__(self) -> "activate":
        self._previous = os.environ.get(ENV_VAR)
        if self.plan is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = self.plan.to_json()
        return self

    def __exit__(self, *_exc) -> None:
        if self._previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = self._previous


def in_worker() -> bool:
    """True inside a multiprocessing worker (fork or spawn)."""
    return multiprocessing.parent_process() is not None


def _claim(latch_dir: Optional[str], token: str) -> bool:
    """Atomically claim a one-shot token; True for exactly one caller."""
    if latch_dir is None:
        return False
    try:
        os.makedirs(latch_dir, exist_ok=True)
        fd = os.open(os.path.join(latch_dir, token),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    return True


def on_job_start(job_name: str) -> None:
    """Fire any faults scheduled for ``job_name``.

    Called by the worker entry points (:mod:`repro.perf.batch`,
    :mod:`repro.server.pool`) before the analysis begins. No-op
    without an active plan.
    """
    plan = plan_from_env()
    if plan is None:
        return
    if plan.slow_job == job_name and plan.slow_seconds > 0:
        time.sleep(plan.slow_seconds)
    if plan.boom_job == job_name:
        if plan.kill_always or _claim(plan.latch_dir, f"boom-{job_name}"):
            raise MemoryError(
                f"injected allocation failure in job {job_name!r}"
            )
    if plan.kill_job == job_name and in_worker():
        if plan.kill_always or _claim(plan.latch_dir, f"kill-{job_name}"):
            os.kill(os.getpid(), signal.SIGKILL)


def on_job_settled(job_name: str) -> None:
    """Fire the ``kill_after_job`` fault, if scheduled.

    Called by the batch driver (:func:`repro.perf.batch.run_batch`)
    when a job's result settles. A successful job has fsynced its
    verdict record by then, so a re-run of the batch must replay it.
    The kill targets the batch driver itself (a simulated machine
    death), so it fires regardless of :func:`in_worker`, and needs no
    latch — the process is gone right after.
    """
    plan = plan_from_env()
    if plan is None or plan.kill_after_job != job_name:
        return
    os.kill(os.getpid(), signal.SIGKILL)


class RecoveryTierCrash(RuntimeError):
    """The injected ``crash_tier`` fault: a recovery tier blowing up."""


def on_recovery_tier(tier_name: str) -> None:
    """Fire the ``crash_tier`` fault, if scheduled.

    Called by :func:`repro.frontend.recovery.frontend_unit` at the
    start of every tier attempt. Raising (rather than SIGKILL) is the
    point: the contract under test is that a *crashing* tier counts as
    that tier failing — the ladder falls through to the next tier and
    the driver never sees the exception. Fires on every attempt (no
    latch): a buggy tier is buggy for every unit.
    """
    plan = plan_from_env()
    if plan is None or plan.crash_tier != tier_name:
        return
    raise RecoveryTierCrash(f"injected recovery-tier crash: {tier_name}")


#: per-process count of segment-store log appends (kill_segment_flush)
_segment_flushes = 0


def on_segment_flush(fileobj, blob: bytes) -> None:
    """Fire the ``kill_segment_flush`` fault, if scheduled.

    Called by :meth:`repro.incremental.segments.SegmentStore.flush`
    with the open log file and the sealed frames about to be appended.
    On the scheduled append, writes a prefix that is guaranteed to end
    *inside* the final frame, fsyncs it (the torn tail is durable) and
    SIGKILLs the process: the next open of the store must truncate back
    to the last intact frame, count an integrity eviction, and
    recompute. No latch needed — the process is gone right after.
    """
    global _segment_flushes
    plan = plan_from_env()
    if plan is None or plan.kill_segment_flush is None:
        return
    _segment_flushes += 1
    if _segment_flushes != plan.kill_segment_flush:
        return
    # a sealed frame is 4 length bytes + a digest-carrying payload far
    # larger than 16 bytes, so cutting 16 bytes off the end always
    # leaves a partial final frame
    fileobj.write(blob[: max(1, len(blob) - 16)])
    fileobj.flush()
    os.fsync(fileobj.fileno())
    os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# on-disk corruption helpers (driver-level faults of the chaos harness)
# ----------------------------------------------------------------------

def ir_record(cache_dir: str, kind: str) -> Optional[str]:
    """The ``kind`` record (``"verdict"`` or ``"program"``) of the first
    program by name in an IR cache that has a verdict record; path, or
    None when it is not there."""
    directory = os.path.join(cache_dir, "ir")
    try:
        names = sorted(n for n in os.listdir(directory)
                       if n.endswith(".verdict"))
    except OSError:
        return None
    if not names:
        return None
    if kind == "program":
        names[0] = names[0].split(".")[0] + ".pkl"
    path = os.path.join(directory, names[0])
    return path if os.path.exists(path) else None


def corrupt_ir_entry(cache_dir: str, kind: str = "verdict") -> Optional[str]:
    """Flip bytes in the middle of :func:`ir_record`; path or None."""
    path = ir_record(cache_dir, kind)
    if path is not None:
        with open(path, "r+b") as f:
            data = f.read()
            middle = len(data) // 2
            f.seek(middle)
            f.write(bytes(b ^ 0xFF for b in data[middle:middle + 16]))
    return path


def truncate_ir_entry(cache_dir: str, kind: str = "program") -> Optional[str]:
    """Truncate :func:`ir_record` to half (a partial disk write); path
    or None. With the defaults the two helpers damage both records of
    one program, and its next request reads both: the verdict record,
    then the program record."""
    path = ir_record(cache_dir, kind)
    if path is not None:
        with open(path, "r+b") as f:
            f.truncate(max(1, os.path.getsize(path) // 2))
    return path
