"""Performance layer: content-hashed caching + parallel batch driver.

Cooperating pieces, all strictly behavior-preserving (every
cached or parallel path renders a report byte-identical to the
sequential cold path):

- :class:`IRCache` — the on-disk store of front-ended programs and
  their verdicts, keyed by input content hashes + front-end config
  (:mod:`repro.perf.ircache`);
- :class:`BodyRecord` — what one ESP-summary body run read and did,
  the unit the incremental session's segment store persists and
  replays (:mod:`repro.perf.summary_store`);
- :func:`run_batch` — process-parallel fan-out over independent
  programs with crash supervision (:mod:`repro.perf.batch`,
  :mod:`repro.resilience`). A batch killed mid-run resumes by running
  again with the same cache dir: each finished job's verdict record is
  fsynced, so it replays and only unfinished jobs compute;
- :func:`seal` / :func:`unseal` — the checksum frame of the one
  on-disk codec every store writes through, so torn or rotted entries
  are evicted and recomputed instead of trusted
  (:mod:`repro.perf.integrity`).
"""

from .batch import (
    BatchJob,
    BatchOutcome,
    BatchResult,
    resolve_mp_context,
    run_batch,
)
from .fingerprint import (
    code_digest,
    config_fingerprint,
    file_digest,
    function_fingerprint,
    FlowFingerprints,
    text_digest,
)
from .integrity import IntegrityError, seal, unseal
from .ircache import IRCache
from .summary_store import BodyRecord, BodyRecorder, CellNamer

__all__ = [
    "BatchJob",
    "BatchOutcome",
    "BatchResult",
    "BodyRecord",
    "BodyRecorder",
    "CellNamer",
    "FlowFingerprints",
    "IRCache",
    "IntegrityError",
    "code_digest",
    "config_fingerprint",
    "file_digest",
    "function_fingerprint",
    "resolve_mp_context",
    "run_batch",
    "seal",
    "text_digest",
    "unseal",
]
