"""Segment store durability + dependency-graph invalidation.

Covers the on-disk discipline in isolation: sealed-frame round-trips,
torn-tail truncation (the SIGKILL-mid-append case), wholesale eviction
of foreign/stale stores, log compaction, the ``deps.bin`` artifact, and
the dirty-cone closure over writer→reader cell coupling.
"""

import os

from repro.incremental.depgraph import DependencyGraph
from repro.incremental.segments import (
    SEGMENT_FORMAT_VERSION, SegmentStore,
)
from repro.perf.fingerprint import code_digest
from repro.perf.integrity import frame
from repro.perf.summary_store import BodyRecord


def _record(reads=(), writes=(), calls=()):
    return BodyRecord(ret="safe", reads=tuple(reads),
                      writes=tuple(writes), calls=tuple(calls))


def _store_with(root, closures, bodies):
    """One completed run: ``bodies`` is {function: (reads, writes)}."""
    store = SegmentStore(str(root))
    store.begin_run(closures)
    for function, (reads, writes) in bodies.items():
        key = store.entry_key(function, "summary",
                              closures[function], (), ())
        store.stage(key, _record(reads=reads, writes=writes))
    store.flush()
    return store


# ----------------------------------------------------------------------
# round-trip + invalidation
# ----------------------------------------------------------------------

def test_segments_survive_reopen(tmp_path):
    closures = {"f": "fp-f", "g": "fp-g"}
    store = _store_with(tmp_path, closures, {
        "f": ((), (("c1", "tainted"),)),
        "g": ((("c1", "tainted"),), ()),
    })
    reopened = SegmentStore(str(tmp_path))
    assert len(reopened) == 2
    assert reopened.integrity_evictions == 0
    lookup_key = reopened.entry_key("f", "summary", "fp-f", (), ())
    assert reopened.lookup(lookup_key) == _record(
        writes=(("c1", "tainted"),))
    # unchanged closures: no seeds, no cone, nothing evicted
    cone = reopened.begin_run(closures)
    assert cone == frozenset()
    assert reopened.evictions == 0


def test_changed_closure_evicts_the_coupling_cone(tmp_path):
    closures = {"f": "fp-f", "g": "fp-g", "h": "fp-h"}
    _store_with(tmp_path, closures, {
        "f": ((), (("c1", "tainted"),)),       # f writes c1
        "g": ((("c1", "tainted"),), ()),       # g reads c1 → f's reader
        "h": ((("other", "safe"),), ()),       # h is uncoupled
    })
    reopened = SegmentStore(str(tmp_path))
    cone = reopened.begin_run({**closures, "f": "fp-f-EDITED"})
    assert reopened.last_seeds == frozenset({"f"})
    assert cone == frozenset({"f", "g"})
    assert reopened.evictions == 2
    assert reopened.lookup(
        reopened.entry_key("g", "summary", "fp-g", (), ())) is None
    assert reopened.lookup(
        reopened.entry_key("h", "summary", "fp-h", (), ())) is not None


def test_coupling_stubs_extend_the_cone(tmp_path):
    """A body without a segment still contributes coupling edges."""
    closures = {"f": "fp-f", "g": "fp-g"}
    store = SegmentStore(str(tmp_path))
    store.begin_run(closures)
    key = store.entry_key("f", "summary", "fp-f", (), ())
    store.stage(key, _record(writes=(("c1", "tainted"),)))
    store.note_coupling("g", ["c1"], [])  # unpersistable reader of c1
    store.flush()

    reopened = SegmentStore(str(tmp_path))
    cone = reopened.begin_run({**closures, "f": "fp-f-EDITED"})
    assert cone == frozenset({"f", "g"})


def test_deleted_function_seeds_the_cone(tmp_path):
    closures = {"f": "fp-f", "g": "fp-g"}
    _store_with(tmp_path, closures, {
        "f": ((), (("c1", "x"),)),
        "g": ((("c1", "x"),), ()),
    })
    reopened = SegmentStore(str(tmp_path))
    cone = reopened.begin_run({"g": "fp-g"})  # f was deleted
    assert "f" in reopened.last_seeds
    assert cone == frozenset({"f", "g"})
    assert len(reopened) == 0


# ----------------------------------------------------------------------
# crash recovery / foreign stores
# ----------------------------------------------------------------------

def test_torn_tail_is_truncated_to_the_last_intact_frame(tmp_path):
    closures = {"f": "fp-f"}
    store = _store_with(tmp_path, closures, {"f": ((), (("c1", "x"),))})
    intact_size = os.path.getsize(store.path)
    with open(store.path, "ab") as f:
        f.write(frame(("segment", "k", None))[:-16])  # torn mid-frame

    reopened = SegmentStore(str(tmp_path))
    assert reopened.integrity_evictions == 1
    assert os.path.getsize(reopened.path) == intact_size
    assert len(reopened) == 1  # the intact prefix survived


def test_garbage_store_is_evicted_wholesale(tmp_path):
    store = _store_with(tmp_path, {"f": "fp-f"},
                        {"f": ((), (("c1", "x"),))})
    with open(store.path, "wb") as f:
        f.write(b"\x00\x00\x00\x10not a sealed frame at all")
    reopened = SegmentStore(str(tmp_path))
    assert reopened.integrity_evictions == 1
    assert len(reopened) == 0
    assert not os.path.exists(reopened.path)


def test_stale_format_store_is_evicted_wholesale(tmp_path):
    path = tmp_path / "segments.log"
    tmp_path.mkdir(exist_ok=True)
    with open(path, "wb") as f:
        f.write(frame(("header", {"format": SEGMENT_FORMAT_VERSION + 1,
                                   "code": code_digest()})))
        f.write(frame(("segment", "k", None)))
    reopened = SegmentStore(str(tmp_path))
    assert reopened.integrity_evictions == 1
    assert len(reopened) == 0
    assert not os.path.exists(str(path))


def test_compaction_rewrites_dead_frames(tmp_path):
    store = SegmentStore(str(tmp_path))
    # many runs that re-stage the same function: tombstone + segment +
    # closures frames accumulate until dead frames dominate
    for i in range(60):
        closures = {"f": f"fp-{i}"}
        store.begin_run(closures)
        key = store.entry_key("f", "summary", f"fp-{i}", (), ())
        store.stage(key, _record(writes=(("c1", str(i)),)))
        store.flush()
    live = len(store._segments) + len(store._couplings) + 2
    assert store._disk_frames <= 2 * live + 64
    reopened = SegmentStore(str(tmp_path))
    assert reopened.integrity_evictions == 0
    assert reopened.lookup(
        reopened.entry_key("f", "summary", "fp-59", (), ())) is not None


# ----------------------------------------------------------------------
# deps.bin artifact
# ----------------------------------------------------------------------

def test_deps_artifact_round_trips(tmp_path):
    closures = {"f": "fp-f", "g": "fp-g"}
    store = _store_with(tmp_path, closures, {
        "f": ((), (("c1", "x"),)),
        "g": ((("c1", "x"),), ()),
    })
    payload = store.read_deps_artifact()
    assert payload is not None
    assert payload["format"] == SEGMENT_FORMAT_VERSION
    assert payload["closures"] == closures
    graph = DependencyGraph.from_payload(payload["graph"])
    assert graph.dirty_cone({"f"}) == frozenset({"f", "g"})


def test_damaged_deps_artifact_reads_as_none(tmp_path):
    store = _store_with(tmp_path, {"f": "fp-f"},
                        {"f": ((), (("c1", "x"),))})
    with open(store.deps_path, "r+b") as f:
        f.truncate(os.path.getsize(store.deps_path) // 2)
    before = store.integrity_evictions
    assert store.read_deps_artifact() is None
    assert store.integrity_evictions == before + 1


# ----------------------------------------------------------------------
# dependency graph
# ----------------------------------------------------------------------

def test_dirty_cone_is_a_forward_closure():
    graph = DependencyGraph()
    graph.add_body("a", reads=[], writes=["c1"], calls=["b"])
    graph.add_body("b", reads=["c1"], writes=["c2"])
    graph.add_body("c", reads=["c2"], writes=[])
    graph.add_body("d", reads=["unrelated"], writes=[])
    assert graph.dirty_cone({"a"}) == frozenset({"a", "b", "c"})
    assert graph.dirty_cone({"c"}) == frozenset({"c"})
    assert graph.coupling_edges() == {"a": {"b"}, "b": {"c"}}


def test_graph_payload_round_trip():
    graph = DependencyGraph()
    graph.add_body("a", reads=["r"], writes=["w"], calls=["b"])
    clone = DependencyGraph.from_payload(graph.to_payload())
    assert clone.cell_readers == graph.cell_readers
    assert clone.cell_writers == graph.cell_writers
    assert clone.call_edges == graph.call_edges
