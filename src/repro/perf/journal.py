"""Durable batch checkpoint/resume: an append-only result journal.

``safeflow batch --journal PATH`` writes every completed job's result
to a write-ahead log the moment it settles, so a batch killed mid-run
(SIGKILL, OOM, power loss) costs only the jobs that were in flight.
``--resume`` replays the journal, keeps results whose input
fingerprints still match, and re-runs only the rest.

Format
------

The journal is a sequence of independently verifiable frames::

    FRAME_MAGIC (4 bytes) + big-endian u32 length + sealed payload

where ``sealed`` is :func:`repro.perf.integrity.seal` over a pickled
record dict — the same ``SFCK1`` checksum framing the on-disk caches
use, so a torn write, bit rot, or a crash mid-append is detected
before a single byte reaches ``pickle``. Records are either the
header (``{"type": "header", "version", "config"}``) or a result
(``{"type": "result", "name", "fingerprint", "result": BatchResult}``).

Recovery is truncate-and-continue: replay reads frames sequentially
and stops at the first damaged one (short frame, bad magic, checksum
mismatch, unpicklable payload); everything before it is intact by
construction — appends are sequential and flushed+fsynced per record —
so the damaged tail is truncated, counted, and the journal re-opened
for append at the cut. A torn tail is *expected* after a crash, never
an error.

Fingerprints
------------

A journaled result is only reused when ``job_fingerprint`` still
matches: the content digest of every input file, the job's shape
(name, file list, include dirs, defines), and the analysis-relevant
config fingerprint (which includes ``recover_tiers``). Any change —
edited source, different config — re-runs the job, which keeps
``--resume`` byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import JournalError
from ..resilience import faults
from .batch import BatchJob, BatchOutcome, BatchResult, run_batch
from .fingerprint import combine, config_fingerprint, file_digest
from .integrity import frame, read_frame_log

#: per-frame magic — detects a seek into garbage before length parsing
FRAME_MAGIC = b"SFJ1"
#: journal format version (header record); bump on layout changes
VERSION = 1


def job_fingerprint(job: BatchJob, config) -> str:
    """Content fingerprint deciding whether a journaled result is reusable."""
    parts = [
        f"config={config_fingerprint(config)}",
        f"name={job.name}",
        f"files={tuple(job.files)!r}",
        f"include_dirs={tuple(job.include_dirs)!r}",
        f"defines={sorted((job.defines or {}).items())!r}",
    ]
    for path in job.files:
        digest = file_digest(path)
        parts.append(f"file={path}:{digest or '<missing>'}")
    return combine(parts)


@dataclass
class JournalReplay:
    """What a journal held: reusable results plus damage accounting."""

    #: job name → (fingerprint, result); later records win, so a job
    #: re-run after a resume supersedes its older entry
    results: Dict[str, Tuple[str, BatchResult]] = field(default_factory=dict)
    #: damaged tail frames truncated during replay (0 or 1 — replay
    #: stops at the first damaged frame)
    truncated_records: int = 0
    header: Optional[dict] = None


class BatchJournal:
    """Append-only, checksum-framed WAL of batch results."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[io.BufferedWriter] = None

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Read every intact record; truncate a damaged tail in place."""
        replay = JournalReplay()
        try:
            records, torn = read_frame_log(self.path, FRAME_MAGIC)
        except OSError as exc:
            raise JournalError(
                f"cannot truncate damaged journal tail of {self.path}: {exc}"
            )
        replay.truncated_records = int(torn)
        for record in records:
            if not isinstance(record, dict):
                continue
            if record.get("type") == "header":
                replay.header = record
            elif record.get("type") == "result":
                name = record.get("name")
                result = record.get("result")
                if isinstance(name, str) and isinstance(result, BatchResult):
                    replay.results[name] = (
                        record.get("fingerprint", ""), result)
        return replay

    # ------------------------------------------------------------------
    # append
    # ------------------------------------------------------------------

    def open_for_append(self, fresh: bool = False, config=None) -> None:
        """Open the journal for appending; write a header if empty.

        ``fresh`` truncates any existing file first (a non-resume run
        must not inherit stale records).
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            os.makedirs(directory, exist_ok=True)
            self._fh = open(self.path, "wb" if fresh else "ab")
            empty = os.path.getsize(self.path) == 0
        except OSError as exc:
            raise JournalError(f"cannot open journal {self.path}: {exc}")
        if empty:
            header = {"type": "header", "version": VERSION}
            if config is not None:
                header["config"] = config_fingerprint(config)
            self._write_record(header)

    def append_result(self, name: str, fingerprint: str,
                      result: BatchResult) -> None:
        """Durably append one settled result, then fire the
        ``kill_after_journal`` fault hook (chaos harness)."""
        self._write_record({
            "type": "result",
            "name": name,
            "fingerprint": fingerprint,
            "result": result,
        })
        faults.on_journal_append(name)

    def _write_record(self, record: dict) -> None:
        if self._fh is None:
            raise JournalError("journal is not open for appending")
        data = frame(record, FRAME_MAGIC)
        try:
            self._fh.write(data)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot append to journal {self.path}: {exc}")

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# journaled batch driver
# ----------------------------------------------------------------------

def run_journaled(
    jobs: Sequence[BatchJob],
    config,
    journal_path: str,
    resume: bool = False,
    fail_fast: bool = False,
    **run_kwargs,
) -> BatchOutcome:
    """:func:`repro.perf.batch.run_batch` with a durable WAL.

    Every settled result is appended to the journal the moment the
    dispatch loop sees it, so a driver killed mid-batch loses only
    in-flight jobs. With ``resume`` the journal is replayed first:
    jobs with an intact, fingerprint-matching, successful record are
    not re-run — their journaled results (reports included) are spliced
    back in job order, byte-identical to the uninterrupted run because
    they *are* the bytes of that run. Failed/missing/stale records
    re-run. A damaged tail is truncated and counted
    (``BatchOutcome.journal_truncated_records``, also folded into the
    first re-run report's ``AnalysisStats.journal_recovered_records``).
    """
    journal = BatchJournal(journal_path)
    replay = journal.replay() if resume else JournalReplay()

    fingerprints = {job.name: job_fingerprint(job, config) for job in jobs}
    reused: Dict[int, BatchResult] = {}
    todo: List[Tuple[int, BatchJob]] = []
    for index, job in enumerate(jobs):
        record = replay.results.get(job.name)
        if (record is not None and record[0] == fingerprints[job.name]
                and record[1].ok):
            reused[index] = record[1]
        else:
            todo.append((index, job))

    with journal:
        journal.open_for_append(fresh=not resume, config=config)

        def on_result(sub_index: int, result: BatchResult) -> None:
            _index, job = todo[sub_index]
            if result.ok:
                journal.append_result(
                    job.name, fingerprints[job.name], result)

        sub = run_batch([job for _, job in todo], config,
                        fail_fast=fail_fast, on_result=on_result,
                        **run_kwargs)

    outcome = BatchOutcome(
        wall_time=sub.wall_time,
        worker_restarts=sub.worker_restarts,
        quarantined=list(sub.quarantined),
        resumed_jobs=len(reused),
        journal_truncated_records=replay.truncated_records,
    )
    merged: Dict[int, BatchResult] = dict(reused)
    for (index, _job), result in zip(todo, sub.results):
        merged[index] = result
    outcome.results.extend(merged[i] for i in range(len(jobs)))

    if replay.truncated_records:
        # surface the recovery in AnalysisStats: attribute it to the
        # first re-computed successful report (deterministic in job
        # order); recomputation is exactly what the truncation cost
        for index, _job in todo:
            result = merged.get(index)
            if result is not None and result.ok and result.report is not None:
                result.report.stats.journal_recovered_records = (
                    replay.truncated_records)
                break
    return outcome
