"""Reference value-flow engines for the differential tests.

Production runs one value-flow path: the sparse outer fixpoint over
compiled bitset bodies. The two slower paths it was derived from are
kept here, as oracles every report must match byte-for-byte:

- *kernel* ``"object"`` (:class:`ObjectKernel`) analyzes each body over
  hash-consed ``Taint`` objects instead of a compiled opcode program;
- *fixpoint* ``"dense"`` (:class:`DenseFixpoint`) re-runs every body of
  every root each outer sweep instead of only the invalidated ones.

The two compose into all four (kernel x fixpoint) combinations.
:func:`installed` swaps the chosen engine in for the block it guards;
``repro.core.driver`` resolves ``repro.valueflow.engine.
ValueFlowAnalysis`` when it runs phase 3, so ``SafeFlow`` analyses,
corpus runs and anything else built on it pick the oracle up
unchanged::

    with oracles.installed(kernel="object", fixpoint="dense"):
        report = SafeFlow(config).analyze_source(source)

With a cache dir, ``SafeFlow`` replays a verdict record whichever
engine computed it (the config fingerprint does not name the engine),
so an oracle comparison runs without one, or deletes the ``*.verdict``
records first as ``bench_kernels.py``'s warm mode does.
"""

from contextlib import contextmanager

from repro.valueflow import engine

from .dense import DenseFixpoint
from .object_kernel import ObjectKernel

FIXPOINTS = ("sparse", "dense")


class ObjectDense(ObjectKernel, DenseFixpoint):
    """Object-domain bodies under the dense loop."""


_ENGINES = {
    ("compiled", "sparse"): engine.ValueFlowAnalysis,
    ("object", "sparse"): ObjectKernel,
    ("compiled", "dense"): DenseFixpoint,
    ("object", "dense"): ObjectDense,
}
#: every (kernel, fixpoint) pair; the first is the production engine
COMBINATIONS = tuple(_ENGINES)


@contextmanager
def installed(kernel: str = "compiled", fixpoint: str = "sparse"):
    """Make every ``SafeFlow`` analysis inside the block run the
    (kernel, fixpoint) engine."""
    previous = engine.ValueFlowAnalysis
    engine.ValueFlowAnalysis = _ENGINES[kernel, fixpoint]
    try:
        yield
    finally:
        engine.ValueFlowAnalysis = previous
