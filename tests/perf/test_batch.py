"""Batch driver semantics: ordering, equality with the sequential
path, single-job failure isolation, timeouts, fail-fast, and resuming
a batch by running it again on the same cache dir (the subprocess
SIGKILL variant lives in the chaos harness)."""

import os

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.perf.batch import BatchJob, run_batch
from repro.perf.integrity import read_sealed

from tests.perf.test_cache_correctness import SIMPLE

BROKEN = "int main(void) { return 0;"  # unbalanced brace: parse error


def _write_jobs(tmp_path, count=3):
    jobs = []
    for i in range(count):
        path = tmp_path / f"prog{i}.c"
        # vary a constant so each job is a distinct program
        path.write_text(SIMPLE.replace("a * 2.0", f"a * {i + 2}.0"))
        jobs.append(BatchJob(name=f"prog{i}", files=(str(path),)))
    return jobs


def _config():
    return AnalysisConfig(cache_dir=None)


@pytest.mark.parametrize("workers", [1, 3])
def test_batch_matches_sequential_reports(tmp_path, workers):
    jobs = _write_jobs(tmp_path)
    flow = SafeFlow(AnalysisConfig(summary_mode=True))
    sequential = [
        flow.analyze_files(list(job.files), name=job.name) for job in jobs
    ]

    outcome = flow.analyze_batch(jobs, max_workers=workers)
    assert outcome.ok
    assert [r.name for r in outcome.results] == [j.name for j in jobs]
    for result, expected in zip(outcome.results, sequential):
        assert result.report.render(verbose=True) \
            == expected.render(verbose=True)


def test_batch_accepts_name_files_pairs(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SIMPLE)
    outcome = SafeFlow().analyze_batch([("pair", [str(path)])],
                                       max_workers=1)
    assert outcome.ok
    assert outcome.results[0].name == "pair"
    assert outcome.results[0].report is not None


@pytest.mark.parametrize("workers", [1, 2])
def test_single_job_failure_does_not_disturb_siblings(tmp_path, workers):
    good = tmp_path / "good.c"
    good.write_text(SIMPLE)
    bad = tmp_path / "bad.c"
    bad.write_text(BROKEN)
    jobs = [
        BatchJob(name="good", files=(str(good),)),
        BatchJob(name="bad", files=(str(bad),)),
        BatchJob(name="missing", files=(str(tmp_path / "absent.c"),)),
    ]
    outcome = SafeFlow().analyze_batch(jobs, max_workers=workers)

    assert not outcome.ok
    by_name = {r.name: r for r in outcome.results}
    assert by_name["good"].ok
    assert by_name["good"].report.render()
    assert not by_name["bad"].ok
    assert by_name["bad"].report is None
    assert by_name["bad"].error
    assert not by_name["missing"].ok


def test_batch_timeout_turns_stragglers_into_errors(tmp_path):
    jobs = _write_jobs(tmp_path, count=2)
    outcome = SafeFlow().analyze_batch(jobs, max_workers=2,
                                       timeout=0.000001)
    assert not outcome.ok
    assert all("timed out" in r.error for r in outcome.results)


def test_batch_job_level_overrides(tmp_path):
    """Per-job include_dirs/defines override the shared config."""
    header = tmp_path / "scale.h"
    header.write_text("double scale(double a) { return a * 2.0; }\n")
    src = tmp_path / "prog.c"
    src.write_text('#include "scale.h"\n' + SIMPLE.replace(
        "double scale(double a) { return a * 2.0; }", ""
    ))
    job = BatchJob(name="inc", files=(str(src),),
                   include_dirs=(str(tmp_path),))
    outcome = SafeFlow().analyze_batch([job], max_workers=1)
    assert outcome.ok, outcome.results[0].error


class TestPlatformFallback:
    """Platforms without fork (or without process creation at all)
    still get correct batch results through spawn or the in-process
    sequential path."""

    def test_resolve_mp_context_prefers_fork(self):
        from repro.perf.batch import resolve_mp_context
        context = resolve_mp_context()
        assert context is not None
        assert context.get_start_method() in ("fork", "spawn")

    def test_resolve_mp_context_falls_back_to_spawn(self, monkeypatch):
        import multiprocessing
        from repro.perf import batch as batch_mod

        real_get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_get_context(method)

        monkeypatch.setattr(batch_mod.multiprocessing, "get_context",
                            no_fork)
        context = batch_mod.resolve_mp_context()
        assert context.get_start_method() == "spawn"

    def test_run_batch_sequential_when_no_context(self, tmp_path,
                                                  monkeypatch):
        from repro.perf import batch as batch_mod

        monkeypatch.setattr(batch_mod, "resolve_mp_context", lambda *a: None)
        jobs = _write_jobs(tmp_path)
        flow = SafeFlow(AnalysisConfig(summary_mode=True))
        sequential = [
            flow.analyze_files(list(job.files), name=job.name)
            for job in jobs
        ]
        outcome = flow.analyze_batch(jobs, max_workers=3)
        assert outcome.ok
        for result, expected in zip(outcome.results, sequential):
            assert result.report.render(verbose=True) \
                == expected.render(verbose=True)

    def test_run_batch_sequential_when_pool_creation_fails(
            self, tmp_path, monkeypatch):
        from repro.perf import batch as batch_mod

        def no_processes(*args, **kwargs):
            raise OSError("process creation forbidden")

        monkeypatch.setattr(batch_mod.concurrent.futures,
                            "ProcessPoolExecutor", no_processes)
        jobs = _write_jobs(tmp_path, count=2)
        outcome = SafeFlow().analyze_batch(jobs, max_workers=2)
        assert outcome.ok
        assert [r.name for r in outcome.results] == ["prog0", "prog1"]

    def test_failure_detail_carries_traceback_error_stays_concise(
            self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text(BROKEN)
        outcome = SafeFlow().analyze_batch(
            [BatchJob(name="bad", files=(str(bad),))], max_workers=1)
        result = outcome.results[0]
        assert not result.ok
        assert "Traceback" not in result.error
        assert "\n" not in result.error
        assert result.detail and "Traceback" in result.detail


def _verdict_records(cache_dir):
    directory = os.path.join(cache_dir, "ir")
    if not os.path.isdir(directory):
        return []
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory)
                  if name.endswith(".verdict"))


class TestFailFast:
    def test_fail_fast_aborts_remaining_jobs(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text(BROKEN)
        jobs = [BatchJob(name="bad", files=(str(bad),))]
        jobs += _write_jobs(tmp_path, count=2)
        outcome = run_batch(jobs, _config(), max_workers=1,
                            fail_fast=True)
        assert not outcome.results[0].ok
        aborted = [r for r in outcome.results if r.code == "aborted"]
        assert len(aborted) == 2
        assert all("--fail-fast" in r.error for r in aborted)

    def test_keep_going_default_runs_everything(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text(BROKEN)
        jobs = [BatchJob(name="bad", files=(str(bad),))]
        jobs += _write_jobs(tmp_path, count=2)
        outcome = run_batch(jobs, _config(), max_workers=1)
        assert sum(1 for r in outcome.results if r.ok) == 2

    def test_aborted_jobs_write_no_verdict_record(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text(BROKEN)
        jobs = [BatchJob(name="bad", files=(str(bad),))]
        jobs += _write_jobs(tmp_path, count=2)
        cache_dir = str(tmp_path / "cache")
        run_batch(jobs, AnalysisConfig(cache_dir=cache_dir),
                  fail_fast=True, max_workers=1)
        assert _verdict_records(cache_dir) == []


class TestResume:
    """A batch resumes by running again on the same cache dir: a job
    whose verdict record matches its inputs replays it, every other
    job computes."""

    def _cached(self, tmp_path, name="cache"):
        return AnalysisConfig(cache_dir=str(tmp_path / name))

    @staticmethod
    def _renders(outcome):
        return {r.name: r.report.render(verbose=True)
                for r in outcome.results if r.ok}

    @staticmethod
    def _replayed(outcome):
        return [r.name for r in outcome.results
                if r.ok and r.report.stats.verdict_replayed]

    def test_resume_skips_matching_fingerprints(self, tmp_path):
        jobs = _write_jobs(tmp_path)
        config = self._cached(tmp_path)
        first = run_batch(jobs, config, max_workers=1)
        second = run_batch(jobs, config, max_workers=1)
        assert self._replayed(first) == []
        assert self._replayed(second) == [j.name for j in jobs]
        assert self._renders(second) == self._renders(first)

    def test_resume_reruns_changed_inputs(self, tmp_path):
        jobs = _write_jobs(tmp_path)
        config = self._cached(tmp_path)
        run_batch(jobs, config, max_workers=1)
        # edit one job's source: its verdict record no longer matches
        path = jobs[1].files[0]
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace("a * 3.0", "a * 9.0"))
        outcome = run_batch(jobs, config, max_workers=1)
        assert self._replayed(outcome) == [jobs[0].name, jobs[2].name]
        # the recomputed verdict is the edited program's cold verdict
        cold = run_batch([jobs[1]], _config(), max_workers=1)
        assert self._renders(outcome)[jobs[1].name] \
            == self._renders(cold)[jobs[1].name]
        assert "a * 9.0" not in SIMPLE  # sanity: the edit was real

    def test_resume_reruns_failed_jobs(self, tmp_path):
        jobs = _write_jobs(tmp_path, count=2)
        bad = tmp_path / "bad.c"
        bad.write_text(BROKEN)
        jobs.append(BatchJob(name="bad", files=(str(bad),)))
        config = self._cached(tmp_path)
        first = run_batch(jobs, config, max_workers=1)
        assert not first.ok
        # a failed job leaves no verdict record, so it runs again
        bad.write_text(SIMPLE)
        second = run_batch(jobs, config, max_workers=1)
        assert self._replayed(second) == [jobs[0].name, jobs[1].name]
        assert second.ok

    def test_kill_resume_byte_identity_in_process(self, tmp_path):
        """Simulated crash: finish the first two jobs, then run the
        full job list on the same cache dir — the output must be
        byte-identical to an uninterrupted run."""
        jobs = _write_jobs(tmp_path, count=4)
        uninterrupted = run_batch(jobs, self._cached(tmp_path, "ref"),
                                  max_workers=1)

        config = self._cached(tmp_path)
        partial = run_batch(jobs[:2], config, max_workers=1)
        assert partial.ok  # "the machine died" right after job 2
        resumed = run_batch(jobs, config, max_workers=1)
        assert self._replayed(resumed) == [jobs[0].name, jobs[1].name]
        assert [r.name for r in resumed.results] == [j.name for j in jobs]
        assert self._renders(resumed) == self._renders(uninterrupted)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_settled_job_has_its_verdict_record(self, tmp_path,
                                                  monkeypatch, workers):
        # the kill-resume fault fires where a job settles; a job that
        # finished must have made its record durable by then
        from repro.resilience import faults

        jobs = _write_jobs(tmp_path)
        config = self._cached(tmp_path)
        settled = []
        monkeypatch.setattr(faults, "on_job_settled", lambda name: (
            settled.append((name, len(_verdict_records(config.cache_dir))))))
        run_batch(jobs, config, max_workers=workers)
        assert sorted(name for name, _ in settled) == [j.name for j in jobs]
        assert all(records >= done for done, (_, records)
                   in enumerate(settled, start=1))

    def test_damaged_verdict_record_costs_one_job(self, tmp_path):
        jobs = _write_jobs(tmp_path)
        config = self._cached(tmp_path)
        first = run_batch(jobs, config, max_workers=1)
        records = _verdict_records(config.cache_dir)
        assert len(records) == len(jobs)
        damaged = records[0]
        with open(damaged, "r+b") as f:
            f.seek(-8, os.SEEK_END)
            f.write(b"\xff" * 8)
        second = run_batch(jobs, config, max_workers=1)
        computed = [r for r in second.results
                    if not r.report.stats.verdict_replayed]
        assert len(computed) == 1
        assert computed[0].report.stats.cache_integrity_evictions == 1
        assert sum(r.report.stats.cache_integrity_evictions
                   for r in second.results) == 1
        assert len(self._replayed(second)) == len(jobs) - 1
        assert self._renders(second) == self._renders(first)
        # the recomputed job wrote its record again
        assert read_sealed(damaged)[0] is not None
