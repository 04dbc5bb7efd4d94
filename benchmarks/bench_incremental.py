#!/usr/bin/env python
"""Incremental-analysis benchmark: cold run vs one-function-edit.

Measures the latency structure ``safeflow watch`` exists for, on a
ladder of multi-translation-unit :func:`repro.corpus.
generate_core_files` workloads (the largest is ~10k LoC). Per rung,
against one long-lived :class:`repro.incremental.IncrementalSession`
and its on-disk segment store:

- ``cold``  — first verdict: full front end, every body analyzed, the
  store populated (best of N fresh sessions);
- ``noop``  — a verdict with nothing changed: every segment replays,
  zero functions re-analyzed;
- ``edit``  — one filler-function body edit in a filler unit: the
  session re-lowers that one definition and the value-flow phase
  re-analyzes only the dirty cone (recorded, and asserted == the
  edited functions);
- ``core_edit`` — one body edit in ``core.c``, the unit that holds
  the annotations and the shm globals: it too re-lowers only its
  definition (``core_unit_swaps`` counts the edits that did,
  ``core_full_relowers`` those that re-lowered the whole program).

Each re-verdict is asserted byte-identical to a cold session over the
same sources — the differential guarantee the incremental layer is
built on.

The headline machine-independent ratios are ``edit_ratio`` (edit /
cold) and ``core_edit_ratio`` (core edit / cold). The CI gate
re-measures the ``large`` rung and fails when either costs more than
``--gate`` (default 10%) of a cold run, when a core edit re-lowers the
whole program, or when the re-analyzed set exceeds the expected dirty
cone.

Usage::

    python benchmarks/bench_incremental.py            # full ladder
    python benchmarks/bench_incremental.py --smoke    # quick sanity
    python benchmarks/bench_incremental.py --check BENCH_incremental.json

Results land in ``BENCH_incremental.json`` (see ``--output``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.config import AnalysisConfig  # noqa: E402
from repro.corpus import generate_core_files  # noqa: E402
from repro.incremental.watcher import IncrementalSession  # noqa: E402
from repro.perf.gcpause import gc_paused  # noqa: E402

#: rungs, largest last; every knob compounds (core fillers + chains +
#: pipeline stages inside core.c, plus standalone filler units that
#: serve as surgical-swap targets)
CONFIGS = [
    dict(name="large", filler_functions=160, chain_depth=10,
         call_fanout=3, pipeline_stages=12, monitored_regions=2,
         filler_units=4, fillers_per_unit=30),
    dict(name="xxlarge", filler_functions=600, chain_depth=16,
         call_fanout=4, pipeline_stages=22, monitored_regions=2,
         filler_units=8, fillers_per_unit=60),
]

#: the rung the CI gate re-measures (bounded runtime)
GATE_CONFIG = "large"

SMOKE_CONFIGS = [
    dict(name="smoke", filler_functions=10, chain_depth=3,
         call_fanout=2, pipeline_stages=4, monitored_regions=1,
         filler_units=2, fillers_per_unit=3),
]

#: the filler-body constant toggled to produce a one-function edit
EDIT_OLD, EDIT_NEW = "* 0.99", "* 0.98"


def _config() -> AnalysisConfig:
    return AnalysisConfig(cache_dir=None, summary_mode=True)


def _toggle(path: str, position: int) -> None:
    """Flip the edit constant of one filler body (read-modify-write)."""
    with open(path) as f:
        text = f.read()
    old, new = (EDIT_OLD, EDIT_NEW) if position % 2 == 0 \
        else (EDIT_NEW, EDIT_OLD)
    assert old in text, f"{old!r} not found in {path}"
    with open(path, "w") as f:
        f.write(text.replace(old, new, 1))


def _session(paths, store_root) -> IncrementalSession:
    return IncrementalSession(list(paths), config=_config(),
                              store_root=str(store_root))


def _bench_config(spec: dict, runs: int, scratch: Path) -> dict:
    params = {k: v for k, v in spec.items() if k != "name"}
    generated = generate_core_files(**params)
    src_dir = scratch / spec["name"]
    paths = generated.write_to(str(src_dir))
    edit_target = paths[1]  # the first standalone filler unit

    # cold: best of N fresh sessions, each against a fresh store
    cold_best = None
    for i in range(runs):
        t0 = time.perf_counter()
        session = _session(paths, scratch / f"{spec['name']}-cold-{i}")
        report = session.verdict()
        elapsed = time.perf_counter() - t0
        cold_best = elapsed if cold_best is None else min(cold_best, elapsed)
    if (len(report.warnings) != generated.expected_warnings
            or len(report.confirmed_errors) != generated.expected_errors):
        raise SystemExit(
            f"{spec['name']}: diagnosis drifted "
            f"({len(report.warnings)}w/{len(report.confirmed_errors)}e, "
            f"expected {generated.expected_warnings}w/"
            f"{generated.expected_errors}e)")

    # the long-lived session the warm measurements run against; the
    # outer gc_paused mirrors the watch loop, which holds one pause
    # across every re-verdict burst
    session = _session(paths, scratch / f"{spec['name']}-store")
    session.verdict()

    with gc_paused(True):
        noop_best = None
        for _ in range(runs):
            t0 = time.perf_counter()
            noop_report = session.verdict()
            elapsed = time.perf_counter() - t0
            noop_best = elapsed if noop_best is None \
                else min(noop_best, elapsed)
        if noop_report.stats.functions_reanalyzed != 0:
            raise SystemExit(f"{spec['name']}: noop verdict re-analyzed "
                             f"{noop_report.stats.functions_reanalyzed} "
                             f"function(s)")

        # one-function edit: toggle the same constant back and forth so
        # every timed verdict sees exactly one changed unit
        edit_best = None
        edit_report = None
        for i in range(max(2, runs)):
            _toggle(edit_target, i)
            t0 = time.perf_counter()
            edit_report = session.verdict()
            elapsed = time.perf_counter() - t0
            edit_best = elapsed if edit_best is None \
                else min(edit_best, elapsed)
    if edit_report.stats.segment_fallbacks:
        raise SystemExit(f"{spec['name']}: edit re-verdict fell back to "
                         f"a validating rerun")
    cone = edit_report.stats.dirty_cone_size
    if cone != 1 or edit_report.stats.functions_reanalyzed != 1:
        raise SystemExit(
            f"{spec['name']}: one-function edit re-analyzed "
            f"{edit_report.stats.functions_reanalyzed} function(s) "
            f"(cone {cone}), expected exactly 1")

    _differential(spec, paths, scratch, "diff", edit_report)

    # a core.c body edit, toggled like the filler edit
    swaps, relowers = session.swaps, session.full_relowers
    with gc_paused(True):
        core_best = None
        for i in range(max(2, runs)):
            _toggle(paths[0], i)
            t0 = time.perf_counter()
            core_report = session.verdict()
            elapsed = time.perf_counter() - t0
            core_best = elapsed if core_best is None \
                else min(core_best, elapsed)
    _differential(spec, paths, scratch, "diff-core", core_report)

    return {
        "name": spec["name"],
        "params": params,
        "loc": generated.loc,
        "files": len(paths),
        "cold_seconds": round(cold_best, 4),
        "noop_seconds": round(noop_best, 4),
        "edit_seconds": round(edit_best, 4),
        "edit_ratio": round(edit_best / cold_best, 4),
        "noop_ratio": round(noop_best / cold_best, 4),
        "dirty_cone": cone,
        "functions_reanalyzed": edit_report.stats.functions_reanalyzed,
        "unit_swaps": swaps,
        "merged_seeds_applied": edit_report.stats.kernel_counters.get(
            "merged_seeds_applied", 0),
        "core_edit_seconds": round(core_best, 4),
        "core_edit_ratio": round(core_best / cold_best, 4),
        "core_unit_swaps": session.swaps - swaps,
        "core_full_relowers": session.full_relowers - relowers,
    }


def _differential(spec: dict, paths, scratch: Path, tag: str,
                  report) -> None:
    """The warm re-verdict must be byte-identical to a cold session
    over the edited tree."""
    cold_session = _session(paths, scratch / f"{spec['name']}-{tag}")
    if (report.render(verbose=True)
            != cold_session.verdict().render(verbose=True)):
        raise SystemExit(f"{spec['name']}: warm re-verdict differs from "
                         f"a cold run; refusing to bench")


def _check_regression(baseline_path: Path, runs: int, gate: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    by_name = {e["name"]: e for e in baseline["results"]}
    spec = next(c for c in CONFIGS if c["name"] == GATE_CONFIG)
    if spec["name"] not in by_name:
        raise SystemExit(f"baseline has no entry named {spec['name']!r}")
    with tempfile.TemporaryDirectory(
            prefix="safeflow-bench-inc-") as scratch:
        entry = _bench_config(spec, runs, Path(scratch))
    ok = True
    for field in ("edit_ratio", "core_edit_ratio"):
        ratio = entry[field]
        reference = by_name[spec["name"]].get(field)
        passed = ratio <= gate
        ok = ok and passed
        print(f"{spec['name']}: {field} {ratio:.4f} "
              f"(baseline {reference}, gate {gate:.2f}) "
              f"{'OK' if passed else 'REGRESSION'}")
    relowers = entry["core_full_relowers"]
    print(f"{spec['name']}: core edits re-lowered the whole program "
          f"{relowers} time(s) {'OK' if relowers == 0 else 'REGRESSION'}")
    return 0 if ok and relowers == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="timing runs per mode (best is kept)")
    parser.add_argument("--output",
                        default=str(ROOT / "BENCH_incremental.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration, no file written")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="re-measure the gate rung and fail when an "
                             "edit re-verdict costs more than --gate of "
                             "a cold run")
    parser.add_argument("--gate", type=float, default=0.10,
                        help="maximum edit/cold ratio (default: 0.10)")
    args = parser.parse_args()

    if args.check:
        return _check_regression(Path(args.check), args.runs, args.gate)

    configs = SMOKE_CONFIGS if args.smoke else CONFIGS
    results = []
    with tempfile.TemporaryDirectory(
            prefix="safeflow-bench-inc-") as scratch:
        for spec in configs:
            entry = _bench_config(spec, args.runs, Path(scratch))
            results.append(entry)
            print(f"{entry['name']:<8} loc={entry['loc']:<6} "
                  f"files={entry['files']:<3} "
                  f"cold={entry['cold_seconds'] * 1000:7.1f}ms "
                  f"noop={entry['noop_seconds'] * 1000:6.1f}ms "
                  f"edit={entry['edit_seconds'] * 1000:6.1f}ms "
                  f"(x{entry['edit_ratio']:.3f} of cold) "
                  f"cone={entry['dirty_cone']} "
                  f"swaps={entry['unit_swaps']} "
                  f"core={entry['core_edit_seconds'] * 1000:6.1f}ms "
                  f"(x{entry['core_edit_ratio']:.3f}) "
                  f"core_swaps={entry['core_unit_swaps']} "
                  f"core_relowers={entry['core_full_relowers']}")

    if not args.smoke:
        payload = {
            "benchmark": "incremental",
            "runs": args.runs,
            "results": results,
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
