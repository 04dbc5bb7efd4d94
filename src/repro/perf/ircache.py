"""The store of front-ended programs: a memory tier over a disk tier.

The front end (preprocess → pycparser → lower → SSA → verify) is the
dominant cost of re-analyzing an unchanged translation unit, and it is
a pure function of the input bytes plus a handful of config knobs.
:class:`IRCache` keeps the finished
:class:`repro.frontend.driver.Program` under one content key:

- the schema version and pycparser version;
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
a miss in either tier. One request digests each
file at most once: the digests its key was computed from are reused
by the validation, and the validation of one tier by the other's.

**Memory tier** (:class:`MemoryTier`, one per process). Unpickling a
``Program`` costs ~1.5 ms even for a trivial unit, while re-analyzing
one loaded ``Program`` is report-preserving, so an LRU pool lends
recently used programs out instead. Leases are *exclusive*: a leased
program is out of the pool, so two threads (the daemon's in-process
fallback pool) never analyze one object graph — the second request
unpickles its own copy. Keys are scoped by the absolute cache
directory. A pooled program also carries the last verdict computed on
it (``Program.verdict``, never pickled).

Ownership: :meth:`IRCache.give_back` transfers the program to the
memory tier; the caller must not touch it afterwards. Pooled programs
outlive the :func:`repro.perf.gcpause.gc_paused` guard that built
them, so their IR is promoted out of generation 0; whoever keeps IR
past a guard releases it. Every program that leaves the pool without
a lease — LRU eviction, stale-dependency eviction,
:meth:`MemoryTier.clear` — is torn down with
:meth:`repro.ir.Module.release`, outside the lock, so it dies by
refcount instead of waiting for a full collection.

**Disk tier.** Two sealed record kinds of :mod:`repro.perf.integrity`
live in ``ir/``: the *program record* ``{key}.pkl`` (a pickled
:class:`CacheEntry`, :meth:`IRCache.fetch` / :meth:`IRCache.store`)
and the *verdict record* ``{key}.{config fingerprint}.verdict`` (a
pickled :class:`VerdictEntry`: the program's ``deps`` and the verdict
computed on it under that config, :meth:`IRCache.store_verdict`). A
verdict record is validated against the current files exactly like a
program record, so a disk hit replays its verdict without unpickling
the IR. :meth:`IRCache.lease` looks in this order: the memory tier's
program and its verdict slot, the verdict record, the program record.
Writes are atomic, and a damaged record (bit rot, partial disk write)
is detected before it reaches ``pickle``, evicted, counted in
``integrity_evictions``, and recomputed silently. Failures are never
fatal: any OS, pickle, or recursion error turns into a miss (or a
skipped store) and the caller re-parses or recomputes.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .fingerprint import code_digest, combine, file_digest, text_digest
from .integrity import read_sealed, write_sealed

#: deep IR/AST object graphs need headroom beyond the default 1000
_PICKLE_RECURSION_LIMIT = 100_000

#: default bound on pooled programs across all keys (process-wide)
DEFAULT_CAPACITY = 32

#: in program keys: entries that predate lost units' reads are not served
_DEPS = "deps=2"

_Digest = Callable[[str], Optional[str]]


def _pycparser_version() -> str:
    try:
        import pycparser

        return getattr(pycparser, "__version__", "?")
    except Exception:  # pragma: no cover - pycparser is a hard dep
        return "?"


def _fresh(deps, digest: _Digest) -> bool:
    return all(digest(path) == recorded for path, recorded in deps)


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
    #: the acyclic ``AnalysisReport.verdict_copy`` the memory slot holds
    verdict: object


class MemoryTier:
    """Bounded LRU pool of front-ended programs, exclusive-lease."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(0, capacity)
        self._lock = threading.Lock()
        #: key → pooled programs; OrderedDict gives key-level LRU
        self._pools: "OrderedDict[str, List[object]]" = OrderedDict()
        self._size = 0
        self.stale_evictions = 0

    def acquire(self, key: Optional[str],
                digest: _Digest = file_digest):
        """Pop a pooled program for ``key`` whose ``deps`` still match
        ``digest``, or ``None``. The caller owns it until it hands it
        back via :meth:`release`."""
        if key is None or self.capacity == 0:
            return None
        leased, stale = None, []
        with self._lock:
            pool = self._pools.get(key)
            while pool:
                program = pool.pop()
                self._size -= 1
                if not pool:
                    del self._pools[key]
                if _fresh(program.deps, digest):
                    leased = program
                    break
                self.stale_evictions += 1
                stale.append(program)
                pool = self._pools.get(key)
        _teardown(stale)
        return leased

    def release(self, key: Optional[str], program) -> bool:
        """Hand a program to the pool; False when it cannot be pooled
        (no key, or its dependencies are unknown).

        On True the pool owns ``program``: the caller must drop it, as
        an eviction tears its IR down.
        """
        if (key is None or program is None or program.deps is None
                or self.capacity == 0):
            return False
        evicted = []
        with self._lock:
            self._pools.setdefault(key, []).append(program)
            self._pools.move_to_end(key)
            self._size += 1
            while self._size > self.capacity:
                oldest_key, oldest_pool = next(iter(self._pools.items()))
                evicted.append(oldest_pool.pop(0))
                self._size -= 1
                if not oldest_pool:
                    del self._pools[oldest_key]
        _teardown(evicted)
        return True

    def clear(self) -> None:
        """Empty the pool, tearing down every pooled program (leased
        programs belong to their holders and are left alone)."""
        with self._lock:
            pooled = [program for pool in self._pools.values()
                      for program in pool]
            self._pools.clear()
            self._size = 0
        _teardown(pooled)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {"stale_evictions": self.stale_evictions,
                    "pooled": self._size}


def _teardown(programs) -> None:
    """Release the IR of programs that left the pool unleased."""
    for program in programs:
        program.module.release()


class IRCache:
    """The two-tier program store of one cache directory.

    An instance serves one request at a time: file digests are
    memoised from one key computation (which resets them) to the next.
    """

    #: the memory tier every instance shares (process-wide)
    memory = MemoryTier()

    def __init__(self, directory: str):
        self.directory = os.path.join(directory, "ir")
        #: memory-tier keys are scoped by the cache dir they belong to
        self._scope = os.path.abspath(directory) + "|"
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
    # both tiers
    # ------------------------------------------------------------------

    def lease(self, key: Optional[str], fingerprint: Optional[str] = None):
        """``(program, verdict)`` for ``key``: the memory tier's
        program, and the verdict under ``fingerprint`` from its slot,
        else from the verdict record; with neither, the program from
        disk. Either is ``None`` on a miss, and a hit counts once in
        ``hits``. The caller owns the program until
        :meth:`give_back`."""
        program = self.memory.acquire(self._memory_key(key), self._digest)
        slot = program.verdict if program is not None else None
        verdict = slot[1] if slot is not None and slot[0] == fingerprint \
            else None
        if verdict is None and key is not None and fingerprint is not None:
            verdict = self._read_verdict(key, fingerprint)
        if program is None and verdict is None:
            return self.fetch(key), None
        self.hits += 1
        return program, verdict

    def give_back(self, key: Optional[str], program) -> bool:
        """Pool ``program`` in the memory tier; False when it cannot be
        pooled (the caller then releases it). On True the store owns
        it."""
        return self.memory.release(self._memory_key(key), program)

    def _memory_key(self, key: Optional[str]) -> Optional[str]:
        return None if key is None else self._scope + key

    # ------------------------------------------------------------------
    # the disk tier
    # ------------------------------------------------------------------

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
            return entry if _fresh(entry.deps, self._digest) else None
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
        """Record ``verdict``, computed under ``fingerprint`` on the
        program of ``key`` whose dependencies are ``deps``; False when
        not cacheable."""
        if key is None or deps is None:
            return False
        try:
            payload = pickle.dumps(VerdictEntry(list(deps), verdict),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        return write_sealed(self._verdict_path(key, fingerprint), payload)


def _deep(function, *args):
    """``function(*args)`` with the recursion headroom that pickling
    deep IR/AST object graphs needs."""
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, _PICKLE_RECURSION_LIMIT))
    try:
        return function(*args)
    finally:
        sys.setrecursionlimit(old_limit)
