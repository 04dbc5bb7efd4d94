"""In-memory reuse of front-ended programs (the memory tier above
:class:`repro.perf.ircache.IRCache`).

A disk IR-cache hit still unpickles the whole ``Program`` object graph
on every request — on the serving hot path that is the second-largest
cost after gc churn (~1.5ms even for a trivial unit). But repeated
analyses of one loaded ``Program`` are already a supported pattern:
the incremental session (PR 7) re-analyzes one program object across
many verdicts with proven byte-identity, and per-function derived
analyses (:meth:`repro.ir.function.Function.cached_analysis`) are
idempotent build-once memos. This module exploits that: a process-wide
pool keeps recently used ``Program`` objects and hands them out for
reuse instead of re-unpickling.

Leases are *exclusive*: :meth:`ProgramMemo.acquire` pops the object
out of the pool, so two threads (the daemon's in-process fallback pool)
can never analyze one shared object graph concurrently — the second
request simply misses and unpickles its own copy, which
:meth:`ProgramMemo.release` then adds to the pool.

Staleness mirrors the disk cache: keys are the IRCache content keys
(input digests + front-end config), and each pooled program carries
the ``(path, digest)`` list of every real file it was built from;
:meth:`acquire` re-validates those digests, so an edited ``#include``
dependency is a miss here exactly as it is on disk. Inline-source
programs have no file dependencies and validate for free.

The memo is report-preserving by the incremental layer's byte-identity
argument and is therefore never part of a cache key
(``AnalysisConfig.frontend_memo`` is a ``CACHE_ONLY_FIELDS`` entry).
A pooled program also carries the last verdict computed on it
(``Program.verdict``), which :class:`repro.core.driver.SafeFlow`
replays on a memo hit under the same config fingerprint; the memo
itself never looks at it.

Ownership: :meth:`ProgramMemo.release` transfers the program to the
memo — the caller must not touch it afterwards. Pooled programs outlive
the :func:`repro.perf.gcpause.gc_paused` guard that built them, so
their IR is promoted out of generation 0; whoever keeps IR past a guard
releases it. Every program that leaves the pool without a lease — LRU
eviction, stale-dependency eviction, :meth:`ProgramMemo.clear` — is
torn down with :meth:`repro.ir.Module.release`, outside the lock, so it
dies by refcount instead of waiting for a full collection.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .fingerprint import file_digest
from .ircache import program_deps

#: default bound on pooled programs across all keys (process-wide)
DEFAULT_CAPACITY = 32

_Deps = List[Tuple[str, str]]


class ProgramMemo:
    """Bounded LRU pool of front-ended programs, exclusive-lease."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(0, capacity)
        self._lock = threading.Lock()
        #: key → pooled [(program, deps)]; OrderedDict gives key-level LRU
        self._pools: "OrderedDict[str, List[Tuple[object, _Deps]]]" = \
            OrderedDict()
        self._size = 0
        self._leased: Dict[int, Tuple[str, _Deps]] = {}
        self.hits = 0
        self.misses = 0
        self.stale_evictions = 0

    # ------------------------------------------------------------------

    def acquire(self, key: Optional[str]):
        """Pop a fresh pooled program for ``key``, or ``None``.

        The caller owns the returned object until it hands it back via
        :meth:`release` (typically in a ``finally``).
        """
        if key is None or self.capacity == 0:
            return None
        leased, stale = None, []
        with self._lock:
            pool = self._pools.get(key)
            while pool:
                program, deps = pool.pop()
                self._size -= 1
                if not pool:
                    del self._pools[key]
                if self._deps_fresh(deps):
                    self._leased[id(program)] = (key, deps)
                    leased = program
                    break
                self.stale_evictions += 1
                stale.append(program)
                pool = self._pools.get(key)
            if leased is None:
                self.misses += 1
            else:
                self.hits += 1
        _teardown(stale)
        return leased

    def release(self, key: Optional[str], program) -> bool:
        """Hand a program to the pool; False when not memoizable.

        On True the memo owns ``program``: the caller must drop it, as
        an eviction tears its IR down.
        """
        if key is None or program is None or self.capacity == 0:
            return False
        with self._lock:
            lease = self._leased.pop(id(program), None)
        deps = lease[1] if lease is not None else program_deps(program)
        if deps is None:
            return False
        evicted = []
        with self._lock:
            pool = self._pools.setdefault(key, [])
            self._pools.move_to_end(key)
            pool.append((program, deps))
            self._size += 1
            while self._size > self.capacity:
                oldest_key, oldest_pool = next(iter(self._pools.items()))
                evicted.append(oldest_pool.pop(0)[0])
                self._size -= 1
                if not oldest_pool:
                    del self._pools[oldest_key]
        _teardown(evicted)
        return True

    # ------------------------------------------------------------------

    @staticmethod
    def _deps_fresh(deps: _Deps) -> bool:
        return all(file_digest(path) == digest for path, digest in deps)

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Empty the pool, tearing down every pooled program (leased
        programs belong to their holders and are left alone)."""
        with self._lock:
            pooled = [program for pool in self._pools.values()
                      for program, _ in pool]
            self._pools.clear()
            self._leased.clear()
            self._size = 0
        _teardown(pooled)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stale_evictions": self.stale_evictions,
                "pooled": self._size,
            }


def _teardown(programs) -> None:
    """Release the IR of programs that left the pool unleased."""
    for program in programs:
        program.module.release()


#: the process-wide memo every SafeFlow instance shares
_MEMO = ProgramMemo()


def program_memo() -> ProgramMemo:
    return _MEMO
