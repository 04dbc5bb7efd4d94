"""Incremental analysis: disk-backed value-flow segments, a function
dependency graph, and the ``safeflow watch`` session/loop.

``IncrementalSession``/``WatchLoop`` are imported lazily, so that
importing the segment store does not import the whole driver stack.
"""

from .depgraph import DependencyGraph
from .segments import SEGMENT_FORMAT_VERSION, Segment, SegmentStore

__all__ = [
    "DependencyGraph",
    "SEGMENT_FORMAT_VERSION",
    "Segment",
    "SegmentStore",
    "IncrementalSession",
    "WatchLoop",
]


def __getattr__(name):
    if name in ("IncrementalSession", "WatchLoop"):
        from . import watcher

        return getattr(watcher, name)
    raise AttributeError(name)
