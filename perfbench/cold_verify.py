"""Workload ``cold_verify``: sequential in-process cold verdicts.

Each operation is one ``SafeFlow(AnalysisConfig()).analyze_source`` /
``analyze_files`` call with no cache directory, so the front end and
the value-flow phase do nearly all the work and caches, server, fleet,
qos and the incremental layer do none — the bypass workload for any
cache or serving change.

Inputs come in decks of 26 verdicts, about 30 seconds of work on the
reference 2-vCPU VM: the three bundled corpus systems twice each, and
generated programs at the ``bench_kernels`` rungs (2 medium, 16 large,
1 xlarge, 1 xxlarge; 2k–20k LoC, the size range where re-analysis
speed-ups decay). The deck fixes the size mix, so the median and the
tail (eleventh-largest) land in the middle of the large programs in
every run; on a shared 2-vCPU VM the medium programs' verdict times
were bimodal from run to run, which made a median taken among them
unsteady. A few verdicts that absorb the analyzer's periodic full
garbage collection cannot move either statistic off the large rung.

The programs are the same for every seed (each keeps its own fixed
region roles), so every seed analyses the same code; the seed only
shuffles the order of each deck (the xxlarge program always first). A
run is a fixed number of decks sized from ``--seconds`` with
:data:`DECK_SECONDS`, so the sample count — and with it the tail
percentile — stays the same when the program gets faster or slower.
Timings are normalised by :class:`common.HostProbe` probes taken
between verdicts.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from typing import List, Optional

from common import (BENCH_DIR, Input, Pass, Result, Scratch, analyze,
                    put_end_to_end, run_decks, self_peak_rss_mb)
import layers
from spans import Tracer, breakdowns

RUNGS = {
    "medium": dict(filler_functions=120, chain_depth=8, call_fanout=2,
                   pipeline_stages=10, monitored_regions=2),
    "large": dict(filler_functions=320, chain_depth=12, call_fanout=3,
                  pipeline_stages=16, monitored_regions=2),
    "xlarge": dict(filler_functions=600, chain_depth=16, call_fanout=4,
                   pipeline_stages=22, monitored_regions=2),
    "xxlarge": dict(filler_functions=1200, chain_depth=20, call_fanout=4,
                    pipeline_stages=28, monitored_regions=2),
}
DECK = {"medium": 2, "large": 16, "xlarge": 1, "xxlarge": 1}
CORPUS_REPEATS = 2
#: a traced run alternates an untraced and a traced deck, each about
#: half the untraced run's deck, so both runs take about as long
TRACE_DECK = {"medium": 1, "large": 8, "xlarge": 1, "xxlarge": 1}
TRACE_CORPUS_REPEATS = 1
#: tiny rungs for the smoke test
SMOKE_RUNGS = {
    "medium": dict(filler_functions=4, chain_depth=2, call_fanout=1,
                   pipeline_stages=2, monitored_regions=1),
}
SMOKE_DECK = {"medium": 2}
#: seconds one untraced deck takes on the reference 2-vCPU VM
DECK_SECONDS = 30.0
SETUP_REPEATS = 3


def make_deck(smoke: bool = False, trace: bool = False) -> List[Input]:
    """The deck's inputs, the same for every seed."""
    from repro.corpus import SYSTEM_KEYS, generate_core, load_system

    if smoke:
        rungs, deck, repeats = SMOKE_RUNGS, SMOKE_DECK, 1
    elif trace:
        rungs, deck, repeats = RUNGS, TRACE_DECK, TRACE_CORPUS_REPEATS
    else:
        rungs, deck, repeats = RUNGS, DECK, CORPUS_REPEATS
    corpus = []
    for key in SYSTEM_KEYS:
        system = load_system(key)
        corpus.append(Input(
            key, files=[str(p) for p in system.core_files],
            expected={"warnings": system.paper.warnings,
                      "errors": system.paper.error_dependencies,
                      "false_positives": system.paper.false_positives}))
    inputs = list(corpus) * repeats
    for rung, count in deck.items():
        for i in range(count):
            # region roles cycle through 1-2 of each kind by position
            program = generate_core(**rungs[rung],
                                    data_error_regions=1 + i % 2,
                                    control_fp_regions=1 + i // 2 % 2,
                                    benign_read_regions=1 + i // 4 % 2)
            inputs.append(Input(
                rung, source=program.source,
                expected={"warnings": program.expected_warnings,
                          "errors": program.expected_errors,
                          "false_positives":
                              program.expected_false_positives}))
    return inputs


def _setup_seconds(scratch: Scratch, smoke: bool) -> List[float]:
    """Import plus input generation, each time in a fresh interpreter."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import common; common.import_program();"
        "import repro.core.driver, repro.shm.propagation,"
        " repro.restrictions.checker, repro.valueflow.engine;"
        "import cold_verify;"
        "cold_verify.make_deck(sys.argv[2] == '1')"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(BENCH_DIR),
             "1" if smoke else "0"],
            check=True, env=scratch.child_env(), cwd=scratch.path,
            timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def _deck_runner(inputs: List[Input], seed: int, result: Result):
    """A :func:`common.run_decks` deck: the inputs in a seeded order,
    each verdict timed and checked against its expected counts."""
    rng = random.Random(seed)

    def deck(tracer: Optional[Tracer], into: Pass) -> None:
        order = list(inputs)
        rng.shuffle(order)
        # the largest program always runs first, on a fresh heap, so
        # that peak RSS does not depend on the order
        order.sort(key=lambda item: item.label != "xxlarge")
        for item in order:
            into.host.probe()
            root = tracer.begin_op() if tracer else None
            t0 = time.perf_counter()
            try:
                report = analyze(item)
            except Exception as exc:  # a crash is a failed operation
                report = None
                error = f"{item.label}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if root is not None:
                tracer.end(root)
            result.attempted += 1
            if report is None:
                result.fail(error)
                continue
            counts = report.counts()
            got = {k: counts[k] for k in item.expected}
            if got != item.expected:
                result.fail(f"{item.label}: counts {got} != expected "
                            f"{item.expected}")
                continue
            into.latencies.append(elapsed)
            into.outputs.append(layers.StatsView(report.stats))

    return deck


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        scratch: Scratch) -> Result:
    result = Result("cold_verify", seed)
    setups = _setup_seconds(scratch, smoke)
    inputs = make_deck(smoke, trace)
    # lazy imports and first-call set-up happen before timing
    analyze(next(i for i in inputs if i.files is not None))
    deck = _deck_runner(inputs, seed, result)
    tracer = Tracer() if trace else None
    # a traced run alternates untraced and traced half-size decks
    decks = max(1, round(seconds / DECK_SECONDS)) * (2 if trace else 1)
    plain, traced = run_decks(decks, deck, tracer, layers.install)
    put_end_to_end(result, setups, "fresh interpreters", plain,
                   self_peak_rss_mb(), "this process (analyses run "
                   "in-process)", "verdicts")
    if not trace:
        return result

    ops = breakdowns(tracer.spans)
    layers.span_metrics(result, ops, in_process=True)
    layers.kernel_metrics(result, traced.outputs)
    layers.cache_metrics(result, traced.outputs,
                         "cold verdicts run without a cache directory")
    layers.unmeasured_incremental(result, "no incremental session")
    layers.unmeasured_service(result, "in-process, no service")
    layers.overhead(result, plain.ops_s, traced.ops_s)
    result.details.extend(layers.attribution(ops))
    result.spans = tracer.spans
    return result
