"""The one on-disk codec of the performance layer: checksummed files
and checksummed frame logs (torn-write detection).

Whole-file stores (IR-cache records, the segment store's
``deps.bin``) are written atomically (``mkstemp`` +
``os.replace``), which protects against *concurrent* readers — but not
against partial disks, bit rot, or a crash mid-``write`` on
filesystems where replace lands but the temp data didn't all make it.
A write that a later run must find after a power loss (a verdict
record, the segment log's compaction) passes ``fsync=True``: the temp
file is synced before the replace and its directory after it.
A silently truncated pickle can raise nearly anything at load time,
or — worse — unpickle to a plausible but wrong object graph.

Every stored payload is therefore framed as::

    MAGIC (6 bytes) + sha256(payload) (32 bytes) + payload

:func:`unseal` verifies the magic and digest before a single byte of
the payload reaches ``pickle``; any mismatch raises
:class:`IntegrityError`. :func:`read_sealed` turns that into *evict and
recompute silently*: the damaged file is removed and the caller counts
the event into ``AnalysisStats.cache_integrity_evictions`` / server
metrics. Pre-checksum legacy entries fail the magic check and are
evicted the same way — one recompute, no schema migration.

The append-only segment log is a sequence of frames, each ``u32
big-endian length + sealed pickle``. :func:`read_frame_log` reads
every intact frame and cuts a torn tail (a crash mid-append) off the
file.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import List, Optional, Tuple

#: frame magic; bump the digit on framing changes
MAGIC = b"SFCK1\n"
_DIGEST_LEN = 32
HEADER_LEN = len(MAGIC) + _DIGEST_LEN
#: bytes of a log frame's length field
_LEN_BYTES = 4


class IntegrityError(Exception):
    """A cache entry whose checksum footer does not match its bytes."""


def seal(payload: bytes) -> bytes:
    """Frame ``payload`` with the magic + content digest header."""
    return MAGIC + hashlib.sha256(payload).digest() + payload


def unseal(blob: bytes) -> bytes:
    """Verify and strip the frame; :class:`IntegrityError` on damage."""
    if len(blob) < HEADER_LEN or not blob.startswith(MAGIC):
        raise IntegrityError("missing or foreign cache-entry header")
    digest = blob[len(MAGIC):HEADER_LEN]
    payload = blob[HEADER_LEN:]
    if hashlib.sha256(payload).digest() != digest:
        raise IntegrityError("cache-entry checksum mismatch (torn write?)")
    return payload


def write_file(path: str, data: bytes, fsync: bool = False) -> bool:
    """Atomically replace ``path`` with ``data`` (temp file in the same
    directory + :func:`os.replace`); False on an OS error. ``fsync``
    makes the write durable: the temp file is synced before the
    replace, and the directory entry after it."""
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
                if fsync:
                    f.flush()
                    os.fsync(f.fileno())
            os.replace(tmp, path)
            if fsync:
                _fsync_directory(directory)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True


def _fsync_directory(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_sealed(path: str, payload: bytes, fsync: bool = False) -> bool:
    """:func:`write_file` of the sealed ``payload``."""
    return write_file(path, seal(payload), fsync)


def read_sealed(path: str) -> Tuple[Optional[bytes], bool]:
    """``(payload, evicted)`` of the sealed file at ``path``.

    An absent or unreadable file is ``(None, False)``. A file whose
    frame does not verify is removed — so it is rebuilt, not re-read —
    and reads as ``(None, True)``.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError:
        return None, False
    try:
        return unseal(raw), False
    except IntegrityError:
        try:
            os.unlink(path)
        except OSError:
            pass
        return None, True


def frame(record) -> bytes:
    """One log frame: ``length + sealed pickle of record``."""
    sealed = seal(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
    return len(sealed).to_bytes(_LEN_BYTES, "big") + sealed


def read_frame_log(path: str) -> Tuple[List[object], bool]:
    """``(records, torn)`` of the frame log at ``path``.

    Frames are read in order up to the first damaged one (short frame,
    checksum mismatch, unpicklable payload); everything before it is
    intact by construction, as appends are sequential.
    A damaged tail is cut off the file (``torn`` is then True) so the
    next append starts at a frame boundary; :class:`OSError` when it
    cannot be cut. An absent or unreadable log has no records.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError:
        return [], False
    records: List[object] = []
    offset, size = 0, len(raw)
    while offset < size:
        end = offset + _LEN_BYTES
        if end > size:
            break
        length = int.from_bytes(raw[end - _LEN_BYTES:end], "big")
        if end + length > size:
            break
        try:
            records.append(pickle.loads(unseal(raw[end:end + length])))
        except Exception:  # IntegrityError, unpickling garbage
            break
        offset = end + length
    if offset == size:
        return records, False
    with open(path, "r+b") as f:
        f.truncate(offset)
    return records, True
