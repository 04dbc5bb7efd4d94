"""The store of front-ended programs and their verdicts, on disk.

The front end (preprocess → pycparser → lower → SSA → verify) is the
dominant cost of re-analyzing an unchanged translation unit, and it is
a pure function of the input bytes plus a handful of config knobs.
:class:`IRCache` keeps the finished
:class:`repro.frontend.driver.Program` under one content key:

- the code digest and pycparser version;
- the given paths (diagnostics embed the path strings, so the same
  bytes under another name is a different program) or the literal
  source text for ``load_source``;
- the content hash of every top-level input file;
- the preprocessor ``defines``, the include directories, and the
  ``verify`` flag.

``#include`` dependencies cannot be known before preprocessing, so
they are handled by *validation* instead of keying: a program carries
``Program.deps``, the digest of every file the front end read, taken
from the bytes it read (and ``None`` for every include candidate it
found absent, so a header that would now shadow the one read is
noticed), and a lookup whose recorded dependencies no longer match is
a miss. One request digests each file at most once: the digests its
key was computed from are reused by the validation.

Two sealed record kinds of :mod:`repro.perf.integrity` live in
``ir/``: the *program record* ``{key}.pkl`` (a pickled
:class:`CacheEntry`, :meth:`IRCache.fetch` / :meth:`IRCache.store`)
and the *verdict record* ``{key}.{config fingerprint}.verdict`` (a
pickled :class:`VerdictEntry`: the program's ``deps`` and the verdict
computed on it under that config, :meth:`IRCache.store_verdict`). A
verdict record is validated against the current files exactly like a
program record, so a hit replays its verdict without unpickling the
IR, and a batch run again after a crash replays every job whose
verdict record was written before it. :meth:`IRCache.lease` looks in
this order: the verdict record, the program record. A leased program
is a fresh unpickled copy that belongs to the request that leased it,
which releases it (:meth:`repro.ir.Module.release`) when it is done,
so no two threads ever share one object graph and no IR outlives its
request. Writes are atomic, verdict writes are also fsynced, and a
damaged record (bit rot, partial disk write) is detected before it
reaches ``pickle``, evicted, counted in ``integrity_evictions``, and
recomputed silently. Failures are never fatal: any OS, pickle, or
recursion error turns into a miss (or a skipped store) and the caller
re-parses or recomputes.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .fingerprint import code_digest, combine, file_digest, text_digest
from .integrity import read_sealed, write_sealed

#: deep IR/AST object graphs need headroom beyond the default 1000
_PICKLE_RECURSION_LIMIT = 100_000

#: in program keys: entries that predate lost units' reads are not served
_DEPS = "deps=2"


def _pycparser_version() -> str:
    try:
        import pycparser

        return getattr(pycparser, "__version__", "?")
    except Exception:  # pragma: no cover - pycparser is a hard dep
        return "?"


@dataclass
class CacheEntry:
    """One pickled program plus the inputs it was built from."""

    #: [(path, content-hash or None if absent)] for every file the
    #: front end read or looked for
    deps: List[Tuple[str, Optional[str]]]
    program_blob: bytes


@dataclass
class VerdictEntry:
    """One verdict computed on a stored program, under one config."""

    deps: List[Tuple[str, Optional[str]]]
    #: an acyclic ``AnalysisReport.verdict_copy``
    verdict: object


class IRCache:
    """The program and verdict store of one cache directory.

    An instance serves one request at a time: file digests are
    memoised from one key computation (which resets them) to the next.
    """

    def __init__(self, directory: str):
        self.directory = os.path.join(directory, "ir")
        self.hits = 0
        self.misses = 0
        self.integrity_evictions = 0
        self._digests: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    def key_for_files(
        self,
        paths: Sequence[str],
        include_dirs: Sequence[str],
        defines: Optional[Dict[str, str]],
        verify: bool,
        recover: bool = False,
    ) -> Optional[str]:
        self._digests = {}
        parts = [
            f"code={code_digest()}", _DEPS,
            f"pycparser={_pycparser_version()}",
            f"include_dirs={tuple(include_dirs)!r}",
            f"defines={sorted((defines or {}).items())!r}",
            f"verify={verify}",
            f"recover={recover}",
        ]
        for path in paths:
            digest = self._digest(path)
            if digest is None:
                return None
            parts.append(f"file={path}:{digest}")
        return combine(parts)

    def key_for_source(
        self,
        text: str,
        filename: str,
        defines: Optional[Dict[str, str]],
        verify: bool,
        recover: bool = False,
    ) -> str:
        self._digests = {}
        return combine([
            f"code={code_digest()}", _DEPS,
            f"pycparser={_pycparser_version()}",
            f"defines={sorted((defines or {}).items())!r}",
            f"verify={verify}",
            f"recover={recover}",
            f"filename={filename}",
            f"text={text_digest(text)}",
        ])

    def _digest(self, path: str) -> Optional[str]:
        if path not in self._digests:
            self._digests[path] = file_digest(path)
        return self._digests[path]

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def _verdict_path(self, key: str, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{key}.{fingerprint}.verdict")

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def lease(self, key: Optional[str], fingerprint: Optional[str] = None):
        """``(program, verdict)`` for ``key``: the verdict under
        ``fingerprint`` from its record, else the program from its
        record; at most one is not ``None``, and a hit counts once in
        ``hits``. The caller owns the program and releases it."""
        if key is not None and fingerprint is not None:
            verdict = self._read_verdict(key, fingerprint)
            if verdict is not None:
                self.hits += 1
                return None, verdict
        return self.fetch(key), None

    def fetch(self, key: Optional[str]):
        """The cached Program for ``key``, or ``None`` on any miss."""
        program = self._read(key) if key is not None else None
        if program is None:
            self.misses += 1
        else:
            self.hits += 1
        return program

    def _read(self, key: str):
        entry = self._load(self._path(key))
        if entry is None:
            return None
        try:
            program = _deep(pickle.loads, entry.program_blob)
            program.deps = entry.deps
            return program
        except Exception:
            return None

    def _read_verdict(self, key: str, fingerprint: str):
        entry = self._load(self._verdict_path(key, fingerprint))
        return None if entry is None else entry.verdict

    def _load(self, path: str):
        """The sealed entry at ``path`` with its ``deps`` as a tuple,
        or ``None`` when absent, damaged, unreadable, or stale."""
        payload, evicted = read_sealed(path)
        self.integrity_evictions += evicted
        if payload is None:
            return None
        try:
            # fail-open on *anything*: a checksum-valid but schema-
            # skewed entry can raise nearly any exception out of
            # pickle, and a malformed one can fail attribute access /
            # unpacking below
            entry = pickle.loads(payload)
            entry.deps = tuple((dep, digest) for dep, digest in entry.deps)
            fresh = all(self._digest(path) == recorded
                        for path, recorded in entry.deps)
            return entry if fresh else None
        except Exception:
            return None

    def store(self, key: Optional[str], program) -> bool:
        """Pickle ``program`` under ``key``; False when not cacheable."""
        if key is None or program.deps is None:
            return False
        try:
            blob = _deep(pickle.dumps, program, pickle.HIGHEST_PROTOCOL)
            payload = pickle.dumps(
                CacheEntry(deps=list(program.deps), program_blob=blob),
                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        return write_sealed(self._path(key), payload)

    def store_verdict(self, key: Optional[str], fingerprint: str,
                      deps, verdict) -> bool:
        """Durably record ``verdict``, computed under ``fingerprint`` on
        the program of ``key`` whose dependencies are ``deps``; False
        when not cacheable. A batch run again after a crash resumes
        from these records, so the write is fsynced (file and
        directory); program records are a cache and are not."""
        if key is None or deps is None:
            return False
        try:
            payload = pickle.dumps(VerdictEntry(list(deps), verdict),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        return write_sealed(self._verdict_path(key, fingerprint), payload,
                            fsync=True)


def _deep(function, *args):
    """``function(*args)`` with the recursion headroom that pickling
    deep IR/AST object graphs needs."""
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, _PICKLE_RECURSION_LIMIT))
    try:
        return function(*args)
    finally:
        sys.setrecursionlimit(old_limit)
