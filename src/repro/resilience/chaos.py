"""The ``safeflow chaos`` harness: fault schedules vs byte-identity.

The repo-wide invariant is that every acceleration and resilience
path — caches, parallel batch, supervised pools, crash recovery —
renders reports *byte-identical* to a cold sequential run. This module
turns that invariant into an executable check: generate a
deterministic workload (:func:`repro.corpus.generate_core` variants),
run it fault-free for a baseline, then re-run it under each named
fault schedule (:mod:`repro.resilience.faults`) and assert that

- every non-quarantined job completes with a render byte-identical to
  the baseline;
- the supervision layer actually engaged (worker restarts observed for
  kill schedules, integrity evictions counted for corruption ones);
- for the ``corrupt-ir`` schedule, one program's verdict record and
  program record are damaged, and its next request must read, evict
  and rebuild both;
- for the ``serve-kill`` schedule, the daemon answers a *follow-up*
  request in the same process — one worker crash never costs the
  service;
- for the ``kill-resume`` schedule, the batch *driver* is SIGKILLed
  right after a job settles, and the same batch run again on its
  cache dir completes byte-identical to an uninterrupted one,
  replaying the finished jobs' verdict records and computing only
  the unfinished jobs;
- for the ``watch-kill`` schedule, an incremental watch session is
  SIGKILLed mid-append to its segment log, and a fresh session on the
  same store truncates the torn tail (one integrity eviction) and
  re-verdicts byte-identical to a fault-free cold run;
- for the ``overload`` schedule, a two-shard fleet under multi-tenant
  admission control is stormed past capacity and one shard is
  SIGKILLed mid-storm: the shard's circuit breaker must open, every
  request must end as either a byte-identical result or a structured
  admission rejection (``rate_limited``/``shed``/``queue_full``) —
  zero accepted-then-dropped — and a post-storm wave must complete
  cleanly once the shard is restarted (goodput recovers).

Schedules needing a real process pool (anything that kills a worker)
are skipped, not failed, on platforms where no pool can be created —
there is no isolation boundary to test there.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.config import AnalysisConfig
from . import faults
from .faults import FaultPlan

#: schedule names in execution order; ``--smoke`` runs the starred core
SCHEDULES = ("kill", "quarantine", "slow", "corrupt-ir", "serve-kill",
             "kill-resume", "watch-kill", "tier-crash", "overload")
SMOKE_SCHEDULES = ("kill", "corrupt-ir", "serve-kill", "kill-resume",
                   "watch-kill", "tier-crash", "overload")

#: the job a schedule's fault targets (second job: exercises recovery
#: with completed work before and pending work after the crash)
TARGET = "job-1"


@dataclass
class ScheduleReport:
    """Outcome of one schedule run."""

    name: str
    passed: bool = True
    skipped: bool = False
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.passed = False
        self.notes.append(f"FAIL: {note}")

    def note(self, note: str) -> None:
        self.notes.append(note)


@dataclass
class ChaosOutcome:
    """All schedule reports plus the workload shape."""

    jobs: int
    workers: int
    schedules: List[ScheduleReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.passed for s in self.schedules)

    def to_json(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "workers": self.workers,
            "ok": self.ok,
            "schedules": [
                {"name": s.name, "passed": s.passed,
                 "skipped": s.skipped, "notes": list(s.notes)}
                for s in self.schedules
            ],
        }

    def render(self) -> str:
        lines = []
        for s in self.schedules:
            status = ("SKIP" if s.skipped
                      else "PASS" if s.passed else "FAIL")
            lines.append(f"{s.name:<14} {status}")
            for note in s.notes:
                lines.append(f"    {note}")
        verdict = "OK" if self.ok else "FAILED"
        lines.append(f"chaos: {verdict} ({self.jobs} jobs, "
                     f"{self.workers} workers)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------

def _write_workload(root: str, count: int) -> List:
    """``count`` deterministic generated programs, one file per job."""
    from ..corpus import generate_core
    from ..perf.batch import BatchJob

    jobs = []
    for i in range(count):
        program = generate_core(
            data_error_regions=1 + i % 2,
            control_fp_regions=i % 2,
            benign_read_regions=1,
            monitored_regions=1 + i % 2,
            filler_functions=i % 3,
            chain_depth=i % 2,
        )
        path = os.path.join(root, f"job-{i}.c")
        with open(path, "w") as f:
            f.write(program.source)
        jobs.append(BatchJob(name=f"job-{i}", files=(path,)))
    return jobs


def _fingerprints(outcome) -> Dict[str, str]:
    """job name → rendered report (the byte-identity unit)."""
    prints = {}
    for result in outcome.results:
        if result.ok:
            prints[result.name] = result.report.render(verbose=False)
    return prints


def _pool_available() -> bool:
    from ..perf.batch import resolve_mp_context
    from .supervisor import SupervisedExecutor

    if resolve_mp_context() is None:
        return False
    probe = SupervisedExecutor(max_workers=1)
    try:
        return probe.available
    finally:
        probe.shutdown(wait=False)


def _compare(report: ScheduleReport, baseline: Dict[str, str],
             observed: Dict[str, str],
             expect_missing: Optional[set] = None) -> None:
    expect_missing = expect_missing or set()
    for name, render in sorted(baseline.items()):
        if name in expect_missing:
            if name in observed:
                report.fail(f"{name} completed but should have been "
                            f"quarantined")
            continue
        if name not in observed:
            report.fail(f"{name} did not complete")
        elif observed[name] != render:
            report.fail(f"{name} render differs from fault-free run")
    if not any(n.startswith("FAIL") for n in report.notes):
        survivors = len(baseline) - len(expect_missing)
        report.note(f"{survivors} job(s) byte-identical to "
                    f"fault-free baseline")


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------

def _run_batch(jobs, config, workers, plan=None, **kwargs):
    from ..perf.batch import run_batch

    with faults.activate(plan):
        return run_batch(jobs, config, max_workers=workers, **kwargs)


def _schedule_kill(report, jobs, baseline, config, workers, scratch):
    plan = FaultPlan(kill_job=TARGET,
                     latch_dir=os.path.join(scratch, "latch"))
    outcome = _run_batch(jobs, config, workers, plan)
    if outcome.worker_restarts < 1:
        report.fail("worker was killed but no pool restart was recorded")
    else:
        report.note(f"pool restarted {outcome.worker_restarts} time(s)")
    if outcome.quarantined:
        report.fail(f"one-shot kill must not quarantine "
                    f"(got {outcome.quarantined})")
    _compare(report, baseline, _fingerprints(outcome))


def _schedule_quarantine(report, jobs, baseline, config, workers, scratch):
    plan = FaultPlan(kill_job=TARGET, kill_always=True)
    outcome = _run_batch(jobs, config, workers, plan)
    if outcome.quarantined != [TARGET]:
        report.fail(f"expected quarantined == [{TARGET!r}], "
                    f"got {outcome.quarantined}")
    else:
        report.note(f"{TARGET} quarantined after repeated crashes")
    by_name = {r.name: r for r in outcome.results}
    target = by_name.get(TARGET)
    if target is None or target.code != "worker_crashed":
        report.fail(f"{TARGET} should carry code worker_crashed")
    _compare(report, baseline, _fingerprints(outcome),
             expect_missing={TARGET})


def _schedule_slow(report, jobs, baseline, config, workers, scratch):
    plan = FaultPlan(slow_job=TARGET, slow_seconds=0.3)
    outcome = _run_batch(jobs, config, workers, plan)
    if outcome.quarantined:
        report.fail("slow worker must not be quarantined")
    _compare(report, baseline, _fingerprints(outcome))


def _schedule_corrupt_ir(report, jobs, baseline, config, workers, scratch):
    from ..perf.integrity import read_sealed

    cache_dir = os.path.join(scratch, "cache-corrupt")
    cached = dataclasses.replace(config, cache_dir=cache_dir)
    _run_batch(jobs, cached, workers)  # cold pass populates the cache
    # one program's two records: its next request reads the verdict
    # record first, and then (evicted) the program record
    damaged = {"verdict": faults.corrupt_ir_entry(cache_dir),
               "program": faults.truncate_ir_entry(cache_dir)}
    if None in damaged.values():
        report.fail("no verdict and program record were written to damage")
        return
    report.note("corrupted one verdict record, truncated its program record")
    outcome = _run_batch(jobs, cached, workers)
    evictions = sum(r.report.stats.cache_integrity_evictions
                    for r in outcome.results if r.ok)
    for kind, path in damaged.items():
        # a damaged record is rewritten only after it was read, evicted
        # and recomputed
        if read_sealed(path)[0] is None:
            report.fail(f"the damaged {kind} record was not evicted "
                        f"and rebuilt")
    if evictions < len(damaged):
        report.fail(f"{evictions} of {len(damaged)} damaged records "
                    f"were detected/evicted")
    else:
        report.note(f"{evictions} integrity eviction(s) counted")
    _compare(report, baseline, _fingerprints(outcome))


def _schedule_serve_kill(report, jobs, baseline, config, workers, scratch):
    from ..server.client import SafeFlowClient
    from ..server.daemon import SafeFlowServer

    plan = FaultPlan(kill_job=TARGET,
                     latch_dir=os.path.join(scratch, "serve-latch"))
    server = SafeFlowServer(config=config, port=0, workers=workers)
    if server.pool.mode != "processes":
        server.stop()
        report.skipped = True
        report.note("no process pool on this platform; nothing to kill")
        return
    pid_before = os.getpid()
    try:
        with faults.activate(plan):
            server.start()
            host, port = server.address
            with SafeFlowClient(host=host, port=port) as client:
                observed = {}
                for job in jobs:
                    result = client.analyze(
                        files=list(job.files), name=job.name)
                    observed[job.name] = result["render"]
                # the daemon must answer follow-ups in the SAME process
                if not client.ping():
                    report.fail("daemon did not answer after the crash")
                health = client.health()
                if health["pid"] != pid_before:
                    report.fail("daemon process changed identity")
                if health.get("worker_restarts", 0) < 1:
                    report.fail("no worker restart recorded in health")
                else:
                    report.note(
                        f"daemon survived: {health['worker_restarts']} "
                        f"restart(s), follow-up served by pid "
                        f"{health['pid']}")
                resilience = client.metrics().get("resilience", {})
                if resilience.get("jobs_resubmitted", 0) < 1:
                    report.fail("crashed request was not resubmitted")
        _compare(report, baseline, observed)
    finally:
        server.stop()


def _schedule_kill_resume(report, jobs, _unused_baseline, config, workers,
                          scratch):
    """Kill the batch *driver* after a job settles, then run it again.

    Three ``safeflow batch --cache-dir`` subprocess runs over the same
    workload: an uninterrupted reference with a cache dir of its own,
    a run SIGKILLed by the ``kill_after_job`` fault the instant the
    target job's result settles (its verdict record is fsynced by
    then), and a plain re-run on the killed run's cache dir. The
    verdict records the killed run left must be a proper non-empty
    prefix of the jobs; the re-run must replay exactly those jobs
    (``verdict_replayed``), compute the rest, and report every job
    byte-identical to the reference. A job's render here is its JSON
    report without the stats of the run. Sequential (``--jobs 1``) so
    the records at the kill point are deterministic.
    """
    import json as json_mod
    import signal
    import subprocess
    import sys

    files = [job.files[0] for job in jobs]
    # the CLI names jobs by basename
    names = [os.path.basename(path) for path in files]
    target = names[1]

    def run_cli(cache_dir, env_extra=None):
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(faults.ENV_VAR, None)
        if env_extra:
            env.update(env_extra)
        cmd = [sys.executable, "-m", "repro.cli", "batch",
               "--jobs", "1", "--json", "--cache-dir", cache_dir, *files]
        return subprocess.run(cmd, env=env, capture_output=True,
                              text=True, timeout=600)

    def job_reports(proc):
        return {job["name"]: job["report"]
                for job in json_mod.loads(proc.stdout)["jobs"] if job["ok"]}

    def renders(reports):
        return {name: json_mod.dumps(
                    {k: v for k, v in rep.items() if k != "stats"},
                    sort_keys=True)
                for name, rep in reports.items()}

    proc = run_cli(os.path.join(scratch, "cache-reference"))
    if proc.returncode not in (0, 1):
        report.fail(f"reference run failed (rc {proc.returncode}): "
                    f"{proc.stderr.strip()[:200]}")
        return
    baseline = renders(job_reports(proc))
    if len(baseline) != len(files):
        report.fail(f"reference run finished {len(baseline)} job(s), "
                    f"expected {len(files)}")
        return

    cache_dir = os.path.join(scratch, "cache-killed")
    plan = FaultPlan(kill_after_job=target)
    proc = run_cli(cache_dir, env_extra={faults.ENV_VAR: plan.to_json()})
    if proc.returncode != -signal.SIGKILL:
        report.fail(f"driver should die by SIGKILL right after "
                    f"{target!r} settled (rc {proc.returncode})")
        return
    records = os.path.join(cache_dir, "ir")
    survived = (sum(name.endswith(".verdict")
                    for name in os.listdir(records))
                if os.path.isdir(records) else 0)
    if not survived or survived >= len(files):
        report.fail(f"killed run left {survived} verdict record(s); "
                    f"expected a proper non-empty prefix of {len(files)}")
        return
    report.note(f"driver SIGKILLed mid-batch; {survived}/{len(files)} "
                f"verdict record(s) durable")

    proc = run_cli(cache_dir)
    if proc.returncode not in (0, 1):
        report.fail(f"re-run failed (rc {proc.returncode}): "
                    f"{proc.stderr.strip()[:200]}")
        return
    reports = job_reports(proc)
    replayed = [name for name in names
                if reports.get(name, {}).get("stats", {}).get(
                    "verdict_replayed")]
    if replayed != names[:survived]:
        report.fail(f"re-run replayed {replayed}, expected "
                    f"{names[:survived]} (only unfinished jobs compute)")
    else:
        report.note(f"re-run replayed {len(replayed)} verdict record(s), "
                    f"computed {len(files) - len(replayed)}")
    _compare(report, baseline, renders(reports))


def _schedule_watch_kill(report, _unused_jobs, _unused_baseline, config,
                         _unused_workers, scratch):
    """SIGKILL a watch session mid-append to ``segments.log``.

    A subprocess drives an :class:`repro.incremental.watcher.
    IncrementalSession` over a generated multi-unit program: cold
    verdict, filler-body edit, re-verdict. The ``kill_segment_flush``
    fault SIGKILLs it during the second segment-store append, after a
    durable prefix that ends *inside* a frame — exactly the torn tail
    a machine death leaves. A fresh session on the same store must
    then truncate back to the last intact frame (counted as an
    integrity eviction) and produce a verdict byte-identical to a
    fault-free cold run over the edited sources.
    """
    import signal
    import subprocess
    import sys

    from ..corpus import generate_core_files
    from ..incremental.watcher import IncrementalSession

    src_dir = os.path.join(scratch, "watch-src")
    generated = generate_core_files(
        filler_units=2, fillers_per_unit=2,
        data_error_regions=2, monitored_regions=1, chain_depth=1,
    )
    paths = generated.write_to(src_dir)
    store_root = os.path.join(scratch, "watch-store")

    # the driver script edits one filler unit between verdicts, so the
    # killed append carries that unit's re-analyzed segments
    driver = (
        "import sys\n"
        "from repro.core.config import AnalysisConfig\n"
        "from repro.incremental.watcher import IncrementalSession\n"
        "store, target, *paths = sys.argv[1:]\n"
        "config = AnalysisConfig(cache_dir=None, summary_mode=True)\n"
        "session = IncrementalSession(paths, config=config,\n"
        "                             store_root=store)\n"
        "session.verdict()\n"
        "with open(target) as f:\n"
        "    text = f.read()\n"
        "assert '* 0.99' in text\n"
        "with open(target, 'w') as f:\n"
        "    f.write(text.replace('* 0.99', '* 0.98'))\n"
        "session.verdict()\n"
        "print('survived the scheduled kill', file=sys.stderr)\n"
    )
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env[faults.ENV_VAR] = FaultPlan(kill_segment_flush=2).to_json()
    proc = subprocess.run(
        [sys.executable, "-c", driver, store_root, paths[1], *paths],
        env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != -signal.SIGKILL:
        report.fail(f"watch driver should die by SIGKILL mid-append "
                    f"(rc {proc.returncode}): {proc.stderr.strip()[:200]}")
        return
    log = os.path.join(store_root, "segments.log")
    if not os.path.exists(log):
        report.fail("killed driver left no segment log to recover")
        return
    report.note("watch driver SIGKILLed mid-append to segments.log")

    inc = dataclasses.replace(config, summary_mode=True)
    cold = IncrementalSession(
        list(paths), config=inc,
        store_root=os.path.join(scratch, "watch-cold"))
    baseline_render = cold.verdict().render(verbose=False)

    resumed = IncrementalSession(list(paths), config=inc,
                                 store_root=store_root)
    rep = resumed.verdict()
    evictions = rep.stats.cache_integrity_evictions
    if evictions < 1:
        report.fail("torn segment-log tail was not detected/evicted")
    else:
        report.note(f"{evictions} integrity eviction(s) on restart")
    if rep.render(verbose=False) != baseline_render:
        report.fail("post-crash verdict differs from fault-free cold run")
    else:
        report.note("post-crash re-verdict byte-identical to a cold run")


def _schedule_tier_crash(report, _unused_jobs, _unused_baseline, config,
                         workers, scratch):
    """Crash each recovery tier in turn on a salvage workload.

    The contract under test: a crashing tier counts as that tier
    *failing* — units fall through to the next tier or are lost
    fail-closed, jobs always complete (never a driver error), and no
    crash can make the ladder certify more than the fault-free run.
    """
    from ..frontend.recovery import DEFAULT_TIERS
    from ..perf.batch import BatchJob

    units = {
        "wild-gnu": ("int __attribute__((noinline)) t(int x) "
                     "{ return x + x; }\n"
                     "int u(void) { return t(2); }\n"),
        "wild-stdint": ("#include <stdint.h>\n"
                        "uint16_t v;\n"
                        "uint16_t b(uint16_t a) "
                        "{ return (uint16_t) (a + 1); }\n"),
        "wild-broken": ("int good(int a) { return a + 1; }\n"
                        "int bad(int a)\n{\n    return a @@ 2;\n}\n"),
        "wild-clean": "int plain(int a) { return a - 1; }\n",
    }
    src_dir = os.path.join(scratch, "wild-src")
    os.makedirs(src_dir, exist_ok=True)
    jobs = []
    for name, text in units.items():
        path = os.path.join(src_dir, f"{name}.c")
        with open(path, "w") as f:
            f.write(text)
        jobs.append(BatchJob(name=name, files=(path,)))

    ladder = dataclasses.replace(config, recover_tiers=DEFAULT_TIERS)
    fault_free = _run_batch(jobs, ladder, workers)
    baseline_verdicts = {r.name: r.report.verdict
                         for r in fault_free.results if r.ok}
    baseline_pass = {n for n, v in baseline_verdicts.items()
                     if v == "pass"}
    if len(baseline_verdicts) != len(jobs):
        report.fail("fault-free ladder run did not complete every job")
        return

    for tier in ("strict",) + tuple(DEFAULT_TIERS):
        plan = FaultPlan(crash_tier=tier)
        outcome = _run_batch(jobs, ladder, workers, plan)
        verdicts = {r.name: r.report.verdict
                    for r in outcome.results if r.ok}
        if len(verdicts) != len(jobs):
            incomplete = [r.name for r in outcome.results if not r.ok]
            report.fail(f"crash_tier={tier}: {incomplete} did not "
                        f"complete — a crashing tier must never be a "
                        f"driver error")
            continue
        escaped = {n for n, v in verdicts.items()
                   if v == "pass"} - baseline_pass
        if escaped:
            report.fail(f"crash_tier={tier}: {sorted(escaped)} passed "
                        f"only under the fault — fail-open")
            continue
        if tier == "strict" and verdicts["wild-clean"] == "pass":
            # proves the fault reached the workers: with strict
            # crashing, even a clean unit must be salvaged by a later
            # tier (degraded), not certified
            report.fail("crash_tier=strict: clean unit still passed — "
                        "fault did not propagate")
        else:
            report.note(f"crash_tier={tier}: all jobs completed, "
                        f"pass set never grew")


#: how long the overload schedule waits for its killed shard to come back
_RESTART_DEADLINE_S = 60.0


def _schedule_overload(report, jobs, baseline, config, workers, scratch):
    """SIGKILL one shard of a tenant-aware fleet mid-overload.

    The admission-control contract under fire: work the fleet
    *accepted* is never dropped (it completes byte-identical, even if
    its shard dies and the router re-dispatches it), work the fleet
    *refused* is refused with a structured admission code the caller
    can act on, and the dead shard's circuit breaker visibly opens
    and then recovers.
    """
    import json as json_mod
    import signal as signal_mod
    import threading

    from ..fleet import FleetConfig, FleetRouter
    from ..server.client import SafeFlowClient, ServerError

    admission = {"queue_full", "rate_limited", "shed"}
    tenants_path = os.path.join(scratch, "overload-tenants.json")
    with open(tenants_path, "w") as f:
        json_mod.dump({
            "tenants": {
                "gold": {"weight": 3, "priority": "high"},
                "free": {"weight": 1, "priority": "low",
                         "rate": 200, "burst": 50},
            },
        }, f)

    router = FleetRouter(FleetConfig(
        shards=2, port=0,
        cache_root=os.path.join(scratch, "overload-fleet"),
        backend="process", use_processes=False,
        queue_size=4, health_interval=0.2,
        tenants_path=tenants_path, max_inflight="auto",
        # a short window so the burst of connection failures from the
        # SIGKILL dominates the storm's successes and visibly trips
        breaker_min_volume=2, breaker_window=4,
        breaker_cooldown_s=0.5,
    ))
    try:
        host, port = router.start()

        def analyze(client, job, tenant):
            return client.analyze(files=list(job.files), name=job.name,
                                  tenant=tenant)

        # warm pass doubles as the byte-identity preflight
        with SafeFlowClient(host=host, port=port,
                            request_timeout=120.0) as client:
            for job in jobs:
                result = analyze(client, job, "gold")
                if result["render"] != baseline[job.name]:
                    report.fail(f"{job.name}: fleet verdict differs "
                                f"from fault-free baseline")
                    return

        # every storm thread sends ``rounds`` requests after the kill,
        # so the SIGKILL always lands mid-storm, however fast warm
        # requests are answered
        threads_n, rounds = 8, 20
        lock = threading.Lock()
        killed = threading.Event()
        outcomes = {"ok": 0, "admission": 0, "drift": 0, "lost": 0}

        def storm(wid):
            tenant = "gold" if wid % 2 == 0 else "free"
            try:
                with SafeFlowClient(host=host, port=port, retries=2,
                                    request_timeout=120.0) as client:
                    n = after = 0
                    while after < rounds:
                        after += killed.is_set()
                        job = jobs[(wid + n) % len(jobs)]
                        n += 1
                        try:
                            result = analyze(client, job, tenant)
                        except ServerError as exc:
                            with lock:
                                if exc.name in admission:
                                    outcomes["admission"] += 1
                                else:
                                    outcomes["lost"] += 1
                            continue
                        with lock:
                            if result["render"] == baseline[job.name]:
                                outcomes["ok"] += 1
                            else:
                                outcomes["drift"] += 1
            except Exception:
                with lock:
                    outcomes["lost"] += 1

        threads = [threading.Thread(target=storm, args=(w,))
                   for w in range(threads_n)]
        for t in threads:
            t.start()
        import time as time_mod

        # mid-storm (every thread has had an answer), stop the busiest
        # shard and kill it once the router holds at least two forwards
        # on it: a stopped shard answers nothing, so however fast a
        # warm replay is, those forwards are in flight when the kill
        # lands. The breaker opens on their failures, and the first
        # failed forward already routes the rest of the storm around
        # the shard
        deadline = time_mod.monotonic() + _RESTART_DEADLINE_S
        while (sum(outcomes.values()) < threads_n
               and time_mod.monotonic() < deadline):
            time_mod.sleep(0.001)
        victim = max(router._shard_list(), key=lambda s: s.outstanding)
        victim_pid = victim.backend.pid
        if victim_pid is not None:
            os.kill(victim_pid, signal_mod.SIGSTOP)
            # let the router read what the shard wrote before it
            # stopped: a forward counted after that is stuck on it
            time_mod.sleep(0.05)
            while (victim.outstanding < 2
                   and time_mod.monotonic() < deadline):
                time_mod.sleep(0.001)
            os.kill(victim_pid, signal_mod.SIGKILL)
        killed.set()
        for t in threads:
            t.join()
        if victim_pid is None:
            report.fail("no shard process to kill")
            return

        snapshot = router.metrics_snapshot()
        qos = snapshot.get("qos", {})
        if outcomes["lost"]:
            report.fail(f"{outcomes['lost']} request(s) lost — accepted "
                        f"work must complete or be refused at admission, "
                        f"never dropped")
        if outcomes["drift"]:
            report.fail(f"{outcomes['drift']} result(s) differ from the "
                        f"fault-free baseline under overload")
        if outcomes["ok"] == 0:
            report.fail("no request completed during the storm")
        if qos.get("breaker_opens", 0) < 1:
            report.fail("dead shard's circuit breaker never opened")
        else:
            report.note(f"breaker opened {qos['breaker_opens']} time(s) "
                        f"on shard death")
        report.note(f"storm: {outcomes['ok']} completed byte-identical, "
                    f"{outcomes['admission']} refused at admission")

        # goodput recovers: the supervisor restarts the killed shard in
        # the background, so wait (bounded) until it is back and
        # healthy, then run a clean wave against the restarted fleet
        with SafeFlowClient(host=host, port=port,
                            request_timeout=120.0) as client:
            deadline = time_mod.monotonic() + _RESTART_DEADLINE_S
            while True:
                shard = next((s for s in client.call("health")["shards"]
                              if s.get("shard") == victim.sid), {})
                if shard.get("restarts", 0) >= 1 and shard.get("healthy"):
                    break
                if time_mod.monotonic() >= deadline:
                    report.fail(f"killed shard was not restarted and "
                                f"healthy within {_RESTART_DEADLINE_S:.0f} s")
                    return
                time_mod.sleep(0.1)
            for job in jobs:
                result = analyze(client, job, "gold")
                if result["render"] != baseline[job.name]:
                    report.fail(f"{job.name}: post-recovery verdict "
                                f"differs from baseline")
                    return
        report.note(f"goodput recovered: shard restarted "
                    f"({shard['restarts']} restart(s)), post-storm wave "
                    f"completed")
    finally:
        router.stop()


_RUNNERS: Dict[str, Callable] = {
    "kill": _schedule_kill,
    "quarantine": _schedule_quarantine,
    "slow": _schedule_slow,
    "corrupt-ir": _schedule_corrupt_ir,
    "serve-kill": _schedule_serve_kill,
    "kill-resume": _schedule_kill_resume,
    "watch-kill": _schedule_watch_kill,
    "tier-crash": _schedule_tier_crash,
    "overload": _schedule_overload,
}

#: schedules meaningless without a real worker process to kill
_NEEDS_POOL = {"kill", "quarantine", "serve-kill"}


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def run_chaos(schedules=None, jobs: int = 6, workers: int = 2,
              smoke: bool = False) -> ChaosOutcome:
    """Run the named ``schedules`` (default: all) over a generated
    workload and return the per-schedule verdicts."""
    if schedules is None:
        schedules = SMOKE_SCHEDULES if smoke else SCHEDULES
    unknown = [s for s in schedules if s not in _RUNNERS]
    if unknown:
        raise ValueError(f"unknown chaos schedule(s): {unknown} "
                         f"(known: {', '.join(SCHEDULES)})")
    if smoke:
        jobs = min(jobs, 3)
    jobs = max(2, jobs)
    workers = max(2, workers)

    scratch = tempfile.mkdtemp(prefix="safeflow-chaos-")
    outcome = ChaosOutcome(jobs=jobs, workers=workers)
    try:
        src_dir = os.path.join(scratch, "src")
        os.makedirs(src_dir, exist_ok=True)
        batch_jobs = _write_workload(src_dir, jobs)
        config = AnalysisConfig(cache_dir=None)
        baseline = _fingerprints(
            _run_batch(batch_jobs, config, workers))
        pool_ok = _pool_available()
        for name in schedules:
            report = ScheduleReport(name=name)
            if name in _NEEDS_POOL and not pool_ok:
                report.skipped = True
                report.note("no process pool on this platform")
                outcome.schedules.append(report)
                continue
            try:
                _RUNNERS[name](report, batch_jobs, baseline, config,
                               workers, scratch)
            except Exception as exc:
                report.fail(f"schedule raised "
                            f"{type(exc).__name__}: {exc}")
            outcome.schedules.append(report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return outcome
