"""The dense outer fixpoint: the sparse loop's oracle.

:class:`DenseFixpoint` replaces only the engine's convergence loop:
every sweep snapshots the cell map, wipes every memoized body result
and every recorded failure, and re-runs every root from scratch,
stopping when a sweep leaves the cell map and the merged inputs
unchanged. The engine's sparse bookkeeping still runs underneath but
is never consulted. ``contexts_analyzed`` is the size of the final
sweep's memo table rather than a reachability walk over recorded call
edges.
"""

from repro.resilience.guards import check_deadline
from repro.valueflow.engine import (
    EMPTY_CONTEXT,
    _MAX_OUTER_ITERATIONS,
    ValueFlowAnalysis,
)
from repro.valueflow.taint import SAFE


class DenseFixpoint(ValueFlowAnalysis):
    """:class:`ValueFlowAnalysis` with the dense reference loop."""

    def _converge(self, roots):
        # memo entries and recorded bodies would outlive the wipe
        assert self.summary_store is None, "the dense oracle runs store-less"
        for iteration in range(_MAX_OUTER_ITERATIONS):
            check_deadline()
            self.kernel_counters["outer_iterations"] = iteration + 1
            snapshot = dict(self.cell_taint.items())
            self._memo.clear()
            self._failures.clear()
            self._in_progress.clear()
            self._inputs_changed = False
            for root in roots:
                args = tuple(SAFE for _ in root.arguments)
                self._analyze(root, EMPTY_CONTEXT, args)
            if snapshot == dict(self.cell_taint.items()) \
                    and not self._inputs_changed:
                break

    def _reachable_contexts(self):
        return len(self._memo)
