#!/usr/bin/env python3
"""SafeFlow end-to-end benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_verify --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run: it alternates untraced and
traced decks (time slices for ``service_mix``), records spans around
the program's public entry points on the traced ones, and reports the
per-layer metrics (spans go to
``perfbench/out/spans-<workload>-<seed>.ndjson``). Every operation's
output is checked against an oracle; a wrong verdict is a failed
operation. The report lists every metric by name and unit, with the
seed, sample counts, the tail percentile and machine info; the last
line of standard output is the JSON result.

``--smoke`` shrinks every input to a few functions (used by the
benchmark's own tests).
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

import common

WORKLOADS = ("cold_verify", "service_mix", "edit_session")


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    args = parser.parse_args(argv)

    common.import_program()
    _, end_to_end, per_layer = common.load_benchmark_names()
    # SIGTERM/SIGINT unwind through the workloads' finally blocks, so
    # fleet processes are torn down on every exit path
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    module = __import__(args.workload)
    scratch = common.Scratch(args.workload)
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace),
                            args.smoke, scratch)
    finally:
        scratch.close()
    names = per_layer if args.trace else end_to_end
    if result.spans:
        path = common.OUT_DIR / f"spans-{args.workload}-{args.seed}.ndjson"
        common.write_spans(result.spans, path)
        result.details.append(f"spans: {path} ({len(result.spans)})")
    result.details.append(f"finished {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    # the report lists every metric the run measured; a traced run also
    # measures the end-to-end metrics on its untraced decks
    result.print_report(end_to_end + per_layer)
    print(result.json_line(names), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
