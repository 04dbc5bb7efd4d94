"""Consistent hashing of analysis jobs onto shards.

Two jobs with the same inputs land on the same shard. Every shard
reads and writes one shared store, so this buys only page-cache
locality: a shard keeps reading the records of its own slice of the
corpus. DFI's per-function segment keying — already our cache key —
gives the sharding dimension, and the fleet routes whole jobs by a
key over each request's shape (:func:`routing_key`).

The ring is the classic virtual-node construction: each shard owns
``replicas`` pseudo-random points on a 64-bit circle (sha256 of
``"shard:replica"``), and a key routes to the first point clockwise of
its own hash. Properties the fleet relies on:

- *stability* — adding or removing one shard moves only ~1/N of the
  keyspace; every other job keeps its shard;
- *spread* — virtual nodes (default 64 per shard) keep the largest
  shard's keyspace share within a few percent of fair;
- *walk-over* — :meth:`HashRing.lookup` takes a ``skip`` set of shard
  ids (dead or draining); a skipped shard's keys overflow to the next
  *distinct* shard clockwise, which is exactly the re-dispatch and
  drain-overflow rule of the router. The walk visits shards in a
  key-dependent but deterministic order, so retries are stable too.

Routing keys deliberately diverge from the store's program keys in
one way: no file digests. The router must not do disk I/O per
request, and hashing *paths* instead of contents means an edited file
re-routes to the shard whose incremental caches already know the old
version — the best possible placement for the edit.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

#: virtual nodes per shard; 64 keeps worst-case imbalance low single
#: digits while ring construction stays trivially cheap
DEFAULT_REPLICAS = 64


def _point(data: str) -> int:
    """64-bit position of ``data`` on the ring."""
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def routing_key(params: Dict[str, Any]) -> str:
    """Stable content key of one ``analyze`` request's *shape*.

    The sha256 of the request's inline source text, filename, file
    paths, name and per-request config overrides — no file digests
    (see module docstring). Unknown/missing fields hash as their
    absence, so the key is total over any params dict.
    """
    shape = {
        "source": params.get("source"),
        "filename": params.get("filename"),
        "files": list(params.get("files") or []),
        "name": params.get("name"),
        "config": params.get("config") or {},
    }
    blob = json.dumps(shape, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class HashRing:
    """Consistent-hash ring over integer shard ids."""

    def __init__(self, shard_ids: Iterable[int],
                 replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: List[int] = []
        self._owners: List[int] = []
        self._shards: Set[int] = set()
        for shard_id in shard_ids:
            self.add(shard_id)

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> Set[int]:
        return set(self._shards)

    def add(self, shard_id: int) -> None:
        if shard_id in self._shards:
            return
        self._shards.add(shard_id)
        for replica in range(self.replicas):
            point = _point(f"{shard_id}:{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard_id)

    def remove(self, shard_id: int) -> None:
        if shard_id not in self._shards:
            return
        self._shards.discard(shard_id)
        keep = [i for i, owner in enumerate(self._owners)
                if owner != shard_id]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def lookup(self, key: str,
               skip: Optional[Set[int]] = None) -> Optional[int]:
        """Shard owning ``key``, walking past ``skip``-ped shards.

        Returns ``None`` only when every shard is skipped (or the ring
        is empty) — the router treats that as "no backend available".
        """
        preference = self.preference(key)
        for shard_id in preference:
            if not skip or shard_id not in skip:
                return shard_id
        return None

    def preference(self, key: str) -> List[int]:
        """All shards in the key's deterministic walk order (home
        first). The router's re-dispatch and drain overflow follow
        this list, so a key's fallback shard is stable across calls."""
        if not self._points:
            return []
        order: List[int] = []
        seen: Set[int] = set()
        start = bisect.bisect(self._points, _point(key)) % len(self._points)
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
                if len(seen) == len(self._shards):
                    break
        return order

    def spread(self, keys: Sequence[str]) -> Dict[int, int]:
        """Key count per shard (diagnostics and tests)."""
        counts: Dict[int, int] = {s: 0 for s in self._shards}
        for key in keys:
            owner = self.lookup(key)
            if owner is not None:
                counts[owner] += 1
        return counts
