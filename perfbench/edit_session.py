"""Workload ``edit_session``: an editor's edit/re-verdict loop.

One :class:`IncrementalSession` with summaries and a cache directory
over a multi-unit generated program (the ``bench_incremental`` large
rung: 4.9k LoC in 5 files), the same program for every seed. Each
operation writes one edit and asks for the verdict. Edits come in
decks of ten; the seed shuffles each deck and picks the function each
edit touches. A run is a fixed number of decks (eight for 30
seconds, so that the tail — the eleventh-largest of 80 — lies inside
the 16 core edits, which a few filler edits that absorb the session's
periodic full garbage collection join):

- 7 filler-unit body edits — the surgical unit swap, dirty cone 1;
- 2 core-unit body edits — ``core.c`` carries annotations, so the
  session re-lowers the whole program;
- 1 no-op save — same bytes, answered from the memoized report.

This is the only workload that writes to a store (fsynced segment
appends) while it reads (trusted segment replay), so a gain for reads
that costs writes shows here. Every verdict's counts are checked
against the generator's expected diagnosis, every filler edit's dirty
cone against 1, and the last verdict against a cold analysis of the
edited tree. Timings are normalised by :class:`common.HostProbe`
probes taken between edits.
"""

from __future__ import annotations

import random
import re
import time
from typing import Dict, List, Optional

from common import (Pass, Result, Scratch, median, ms, put_end_to_end,
                    ratio, run_decks, self_peak_rss_mb)
import layers
from spans import Tracer, breakdowns

PARAMS = dict(filler_functions=160, chain_depth=10, call_fanout=3,
              pipeline_stages=12, monitored_regions=2,
              filler_units=4, fillers_per_unit=30)
SMOKE_PARAMS = dict(filler_functions=6, chain_depth=3, call_fanout=2,
                    pipeline_stages=4, monitored_regions=1,
                    filler_units=2, fillers_per_unit=3)
DECK = ["filler"] * 7 + ["core"] * 2 + ["noop"]
#: seconds one deck takes on the reference 2-vCPU VM: a run is a fixed
#: number of decks sized from ``--seconds`` with it, because the
#: session's memory grows with every verdict and a time-bounded run
#: would make peak RSS follow the machine's speed
DECK_SECONDS = 3.75
SETUP_REPEATS = 3

#: the per-function constant an edit toggles: filler ``k`` computes
#: ``acc * 0.99 + (k+1).0 / (i + 2.0)``; an edit flips ``.0`` <-> ``.5``
_TOKEN = re.compile(r"acc \* 0\.99 \+ (\d+)\.([05]) /")


class EditSource:
    """The program's files and a seeded stream of edits to them."""

    def __init__(self, paths: List[str], seed: int):
        self.paths = paths
        self.rng = random.Random(seed)
        self.texts = {p: open(p).read() for p in paths}
        self.tokens = {p: [m.group(1) for m in _TOKEN.finditer(t)]
                       for p, t in self.texts.items()}

    def deck(self) -> List[str]:
        kinds = list(DECK)
        self.rng.shuffle(kinds)
        return kinds

    def edit(self, kind: str) -> str:
        """Apply one edit of ``kind``; returns the path written."""
        if kind == "core":
            path = self.paths[0]
        else:
            path = self.rng.choice(self.paths[1:])
        text = self.texts[path]
        if kind != "noop":
            token = self.rng.choice(self.tokens[path])
            text, n = re.subn(
                rf"acc \* 0\.99 \+ {token}\.([05]) /",
                lambda m: (f"acc * 0.99 + {token}."
                           f"{'5' if m.group(1) == '0' else '0'} /"),
                text, count=1)
            if n != 1:
                raise RuntimeError(f"edit token {token} not in {path}")
            self.texts[path] = text
        with open(path, "w") as f:
            f.write(text)
        return path


def _session(paths: List[str], cache_dir: str):
    from repro.core.config import AnalysisConfig
    from repro.incremental.watcher import IncrementalSession

    return IncrementalSession(
        paths, config=AnalysisConfig(cache_dir=cache_dir, summary_mode=True))


def _check(report, kind: str, expected: Dict[str, int]) -> Optional[str]:
    counts = report.counts()
    got = {k: counts[k] for k in expected}
    if got != expected:
        return f"{kind} edit: counts {got} != expected {expected}"
    stats = report.stats
    if kind == "filler" and (stats.dirty_cone_size != 1
                             or stats.functions_reanalyzed != 1):
        return (f"filler edit: cone {stats.dirty_cone_size}, "
                f"re-analyzed {stats.functions_reanalyzed}, expected 1")
    if kind == "noop" and stats.functions_reanalyzed != 0:
        return (f"no-op save re-analyzed {stats.functions_reanalyzed} "
                f"function(s)")
    return None


def _deck_runner(session, edits: EditSource, expected, result: Result):
    """A :func:`common.run_decks` deck: ten edits, each followed by its
    verdict, timed and checked."""

    def deck(tracer: Optional[Tracer], into: Pass) -> None:
        for kind in edits.deck():
            into.host.probe()
            root = tracer.begin_op() if tracer else None
            t0 = time.perf_counter()
            error = None
            try:
                edits.edit(kind)
                report = session.verdict()
            except Exception as exc:  # a crash is a failed operation
                error = f"{kind} edit: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if root is not None:
                tracer.end(root)
            result.attempted += 1
            error = error or _check(report, kind, expected)
            if error:
                result.fail(error)
                continue
            into.latencies.append(elapsed)
            into.outputs.append((kind, report))

    return deck


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        scratch: Scratch) -> Result:
    from repro.core.config import AnalysisConfig
    from repro.core.driver import SafeFlow
    from repro.corpus import generate_core_files

    result = Result("edit_session", seed)
    generated = generate_core_files(**(SMOKE_PARAMS if smoke else PARAMS))
    expected = {"warnings": generated.expected_warnings,
                "errors": generated.expected_errors,
                "false_positives": generated.expected_false_positives}
    paths = generated.write_to(scratch.sub("src"))

    # set-up = a fresh session's first (cold) verdict, each against a
    # fresh cache directory; the last session is the one edited
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        session = _session(paths, scratch.fresh("cache"))
        report = session.verdict()
        setups.append(time.perf_counter() - t0)
        result.attempted += 1
        error = _check(report, "cold", expected)
        if error:
            result.fail(error)
    edits = EditSource(paths, seed)

    deck = _deck_runner(session, edits, expected, result)
    tracer = Tracer() if trace else None
    swaps_before = session.swaps
    plain, traced = run_decks(max(2, round(seconds / DECK_SECONDS)), deck,
                              tracer, layers.install)
    put_end_to_end(result, setups, "cold session verdicts", plain,
                   self_peak_rss_mb(), "this process (the session runs "
                   "in-process)", "edits+verdicts")
    if trace:
        ops = breakdowns(tracer.spans)
        reports = [r for _, r in traced.outputs]
        stats = [layers.StatsView(r.stats) for r in reports]
        changed = sum(kind != "noop" for kind, _ in
                      plain.outputs + traced.outputs)
        layers.span_metrics(result, ops, in_process=True)
        layers.kernel_metrics(result, stats)
        layers.cache_metrics(result, stats,
                             "the session keeps its front end in memory "
                             "and never consults the IR cache")
        _incremental_metrics(result, ops, reports,
                             ratio(session.swaps - swaps_before, changed))
        layers.unmeasured_service(result, "in-process, no service")
        layers.overhead(result, plain.ops_s, traced.ops_s)
        result.details.extend(layers.attribution(ops))
        result.spans = tracer.spans

    # differential oracle: the last warm verdict must render exactly as
    # a cold, non-incremental analysis of the edited tree
    last_pass = traced if trace else plain
    if last_pass.outputs:
        _, last = last_pass.outputs[-1]
        cold = SafeFlow(AnalysisConfig(summary_mode=True)).analyze_files(
            paths, name=session.name)
        result.attempted += 1
        if cold.render(verbose=True) != last.render(verbose=True):
            result.fail("last warm verdict differs from a cold analysis "
                        "of the edited tree")
    return result


def _incremental_metrics(result: Result, ops, reports,
                         swap_ratio: float) -> None:
    n = len(reports)
    note = f"median of {n} verdicts"
    result.put("incremental.refresh_ms", median([
        ms(r.stats.phase_timings.get("frontend")) for r in reports]),
        "ms", note + " (session-reported front-end refresh)")
    result.put("incremental.dirty_cone", median([
        r.stats.dirty_cone_size for r in reports]), "count", note)
    result.put("incremental.functions_reanalyzed", median([
        r.stats.functions_reanalyzed for r in reports]), "count", note)
    result.put("incremental.swap_ratio", swap_ratio, "ratio",
               "surgical swaps / verdicts with a changed file")
    result.put("incremental.segment_fallbacks", sum(
        r.stats.segment_fallbacks for r in reports), "count",
        f"total over {n} verdicts")
    result.put("segments.flush_ms", median([
        ms(op.layers.get("segments.flush", 0.0)) for op in ops]), "ms",
        f"median of {len(ops)} ops")
