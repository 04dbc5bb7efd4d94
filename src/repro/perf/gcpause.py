"""Pause the cyclic garbage collector around the analysis pipeline.

The analysis allocates heavily and briefly: IR instructions, interned
taints, compiled-kernel opcode tuples. CPython's generational collector
reacts to that allocation burst by running collections mid-phase, and
on the bench workloads those pauses account for 20-30% of wall time
(they also land unpredictably inside whatever phase happens to be
running, skewing per-phase timings). Almost none of it is garbage: the
IR and the programs stay live until the report is built.

:func:`gc_paused` disables collection for the duration of a pipeline
run and reclaims the cyclic garbage created while paused (IR
functions, blocks and instructions reference each other) once the
*last* active pipeline exits. The guard is re-entrant and thread-safe
— the driver's entry points nest, and the analysis daemon runs
pipelines concurrently. If the embedding application already disabled
gc, the guard leaves it disabled on exit.

Collection on exit is *amortized* for high-request-rate serving: a
full ``gc.collect()`` scans every live object (the interpreter, the
loaded corpus, pycparser's tables) and costs milliseconds even when
the run allocated almost nothing — on the fleet's warm trivial
requests it was ~60% of per-request latency. Because gc stays
disabled while paused, everything a run allocates sits in generation
0, so a generation-0 collection reclaims that run's cyclic garbage at
a cost proportional to the run, not the heap. A periodic full
collection still runs every :data:`FULL_COLLECT_INTERVAL` seconds.
One-shot CLI runs behave as before: the very first exit is always
past the interval, so it performs the full collection.

That only holds under an ownership rule: whoever holds IR releases
it (:meth:`repro.ir.Module.release`, :meth:`repro.ir.Function.release`)
when it drops it. ``SafeFlow`` releases the program of every cached
request before its guard exits, and IR that outlives its guard — an
incremental session's live program — is promoted out of generation 0,
so if its owner merely dropped it, it would wait as cyclic garbage for
the periodic full collection, whose pause then grows with all the IR
dropped since the last one (0.65–0.73 s in an in-process replay of the
benchmark's service_mix stream, against 38–51 ms with the rule).
Released IR dies by refcount, and the full collection only scans.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager

_LOCK = threading.Lock()
_DEPTH = 0
_WE_DISABLED = False
#: monotonic time of the last full (all-generations) exit collection;
#: 0.0 means "never", so a process's first guarded run collects fully
_LAST_FULL = 0.0

#: seconds between full exit collections; generation-0 collections
#: (proportional to the run's own allocations) cover the gaps
FULL_COLLECT_INTERVAL = 5.0


@contextmanager
def gc_paused(active: bool = True):
    """Context manager: pause gc while any guarded region is active.

    ``active=False`` makes it a no-op, so call sites can pass the
    config knob straight through.
    """
    global _DEPTH, _WE_DISABLED, _LAST_FULL
    if not active:
        yield
        return
    with _LOCK:
        _DEPTH += 1
        if _DEPTH == 1:
            _WE_DISABLED = gc.isenabled()
            if _WE_DISABLED:
                gc.disable()
    try:
        yield
    finally:
        full = False
        with _LOCK:
            _DEPTH -= 1
            reenable = _DEPTH == 0 and _WE_DISABLED
            if reenable:
                _WE_DISABLED = False
                now = time.monotonic()
                if now - _LAST_FULL >= FULL_COLLECT_INTERVAL:
                    _LAST_FULL = now
                    full = True
        if reenable:
            gc.enable()
            if full:
                gc.collect()
            else:
                gc.collect(0)
