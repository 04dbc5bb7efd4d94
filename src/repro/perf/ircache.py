"""Content-hash-keyed on-disk cache for front-ended programs.

The front end (preprocess → pycparser → lower → SSA → verify) is the
dominant cost of re-analyzing an unchanged translation unit, and it is
a pure function of the input bytes plus a handful of config knobs. This
cache pickles the finished :class:`repro.frontend.driver.Program` keyed
by:

- the schema version and pycparser version;
- the given paths (diagnostics embed the path strings, so the same
  bytes under another name is a different program) or the literal
  source text for :func:`load_source`;
- the content hash of every top-level input file;
- the preprocessor ``defines``, the include directories, and the
  ``verify`` flag.

``#include`` dependencies cannot be known before preprocessing, so
they are handled by *validation* instead of keying: each entry records
the content hash of every file the preprocessor actually read, and a
lookup whose recorded dependencies no longer hash-match is a miss.

Failures are never fatal: any OS, pickle, or recursion error turns
into a cache miss (or a skipped store) and the caller re-parses. Writes
go through a temp file + :func:`os.replace` so concurrent batch
workers sharing one cache directory can never observe a torn entry,
and every entry carries the checksum frame of
:mod:`repro.perf.integrity`: a damaged entry (bit rot, partial disk
write) is detected before it reaches ``pickle``, evicted, counted in
``integrity_evictions``, and recomputed silently.
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .fingerprint import SCHEMA_VERSION, combine, file_digest, text_digest
from .integrity import IntegrityError, seal, unseal

#: deep IR/AST object graphs need headroom beyond the default 1000
_PICKLE_RECURSION_LIMIT = 100_000


def _pycparser_version() -> str:
    try:
        import pycparser

        return getattr(pycparser, "__version__", "?")
    except Exception:  # pragma: no cover - pycparser is a hard dep
        return "?"


def program_deps(program) -> Optional[List[Tuple[str, str]]]:
    """``(path, digest)`` of every real file behind ``program``, in
    unit order; ``None`` (not cacheable) when one cannot be read."""
    deps: List[Tuple[str, str]] = []
    seen = set()
    for unit in program.units:
        for path in unit.files:
            if path in seen or not os.path.isfile(path):
                continue
            seen.add(path)
            digest = file_digest(path)
            if digest is None:
                return None
            deps.append((path, digest))
    return deps


@dataclass
class CacheEntry:
    """One pickled program plus the inputs it was built from."""

    #: [(path, content-hash)] for every real file the front end read
    deps: List[Tuple[str, str]]
    program_blob: bytes


class IRCache:
    """Directory-backed store of front-ended programs."""

    def __init__(self, directory: str):
        self.directory = os.path.join(directory, "ir")
        self.hits = 0
        self.misses = 0
        self.integrity_evictions = 0

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
        parts = [
            f"schema={SCHEMA_VERSION}",
            f"pycparser={_pycparser_version()}",
            f"include_dirs={tuple(include_dirs)!r}",
            f"defines={sorted((defines or {}).items())!r}",
            f"verify={verify}",
            f"recover={recover}",
        ]
        for path in paths:
            digest = file_digest(path)
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
        return combine([
            f"schema={SCHEMA_VERSION}",
            f"pycparser={_pycparser_version()}",
            f"defines={sorted((defines or {}).items())!r}",
            f"verify={verify}",
            f"recover={recover}",
            f"filename={filename}",
            f"text={text_digest(text)}",
        ])

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------

    def _evict(self, path: str) -> None:
        """Remove a checksum-failed entry so it is rebuilt, not re-read."""
        self.integrity_evictions += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def fetch(self, key: Optional[str]):
        """The cached Program for ``key``, or ``None`` on any miss."""
        if key is None:
            self.misses += 1
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = unseal(raw)
        except IntegrityError:
            # damaged (or pre-checksum legacy) entry: evict + recompute
            self._evict(path)
            self.misses += 1
            return None
        try:
            # fail-open on *anything*: a checksum-valid but schema-
            # skewed entry can raise nearly any exception out of
            # pickle, and a malformed one can fail attribute access /
            # unpacking below
            entry: CacheEntry = pickle.loads(payload)
            stale = any(file_digest(dep_path) != digest
                        for dep_path, digest in entry.deps)
            blob = entry.program_blob
        except Exception:
            self.misses += 1
            return None
        if stale:
            self.misses += 1
            return None
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, _PICKLE_RECURSION_LIMIT))
        try:
            program = pickle.loads(blob)
        except Exception:
            self.misses += 1
            return None
        finally:
            sys.setrecursionlimit(old_limit)
        self.hits += 1
        return program

    def store(self, key: Optional[str], program) -> bool:
        """Pickle ``program`` under ``key``; False when not cacheable."""
        if key is None:
            return False
        deps = program_deps(program)
        if deps is None:
            return False
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, _PICKLE_RECURSION_LIMIT))
        try:
            blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        finally:
            sys.setrecursionlimit(old_limit)
        entry = CacheEntry(deps=deps, program_blob=blob)
        try:
            payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(seal(payload))
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True
