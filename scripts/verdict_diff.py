#!/usr/bin/env python3
"""Compare the verdicts of the working tree with those of a git rev.

The rev's ``src`` is exported with ``git archive`` into a temporary
directory (removed again afterwards). Both trees analyse the same
inputs, each in its own interpreter, with a cold ``SafeFlow``:

- the three bundled corpus systems;
- the four ``benchmarks/bench_kernels.py`` rungs (medium to xxlarge);
- the 128 ``perfbench`` ``service_mix`` sources (80 micro units, 45
  generated controllers and the corpus systems, counted once);
- the nine ``examples/wild`` units, one input each.

Per input it compares the default ``render()``, ``counts()`` and the
restriction results byte for byte, and ``render(verbose=True)`` and
``to_json()`` without its timings, kernel counters, cache counters and
replay flag. An input whose analysis raises (a wild unit under the
strict default) records the error's type and text, and the two sides
must raise alike. ``--config JSON`` passes ``AnalysisConfig`` keyword
arguments to the working tree's runs, cold and warm; ``--rev-config
JSON`` passes them to the rev's and defaults to ``--config`` (JSON
lists become tuples), so a renamed or folded field can still be
compared. ``--warm-rounds N`` runs the working tree's side under a
scratch cache dir and analyses every input N more times right after
its first verdict: each repeat must come back ``verdict_replayed`` and
match the rev's cold verdict; every round replays from the verdict
record on disk.
``--ssa-labels`` accepts a change of SSA value names in the last two:
it normalises ``%name.N`` to ``%name.#`` and the block index of
unnamed temps (``@L<line>.<block>.N``) to ``#``, and drops the
instruction count, which counts the dead phis an older SSA
construction left.

Run from the repository root::

    python scripts/verdict_diff.py --rev HEAD~1 --ssa-labels
    python scripts/verdict_diff.py --rev HEAD~1 --warm-rounds 3
    python scripts/verdict_diff.py --rev HEAD~1 \
        --config '{"recover_tiers": []}' --rev-config '{"degraded_mode": true}'

Exit status 0 when every input matches, 1 otherwise.
"""

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: stats fields that observe speed or caches, not the verdict
VOLATILE_STATS = ("phase_timings", "kernel_counters", "hotspots",
                  "frontend_cache_hits", "frontend_cache_misses",
                  "summary_cache_hits", "summary_cache_misses",
                  "cache_integrity_evictions", "verdict_replayed")

_SSA_NAME = re.compile(r"%([A-Za-z_][\w.]*)\.\d+\b")
_TEMP_INDEX = re.compile(r"(@L(?:\d+|\?)\.[\w.]+)\.\d+\b")

#: child body: analyse every input of the manifest (second argument)
#: with the tree whose ``src`` is the first argument, write the results
#: as JSON to the third. The fourth is the number of warm rounds: with
#: rounds, each input is analysed under a scratch cache dir once and
#: then that many times more, back to back, so that the store replays
#: its verdict record. The fifth is the JSON object of
#: ``AnalysisConfig`` keyword arguments
_CHILD = r"""
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from repro import AnalysisConfig, SafeFlow

def analyse(analyzer, item):
    try:
        if item["files"]:
            report = analyzer.analyze_files(item["files"],
                                            name=item["label"])
        else:
            with open(item["source"]) as f:
                text = f.read()
            report = analyzer.analyze_source(
                text, filename=item["label"] + ".c", name=item["label"])
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "render": report.render(),
        "verbose": report.render(verbose=True),
        "json": report.to_json(),
    }

with open(sys.argv[2]) as f:
    manifest = json.load(f)
rounds = int(sys.argv[4])
options = {key: tuple(value) if isinstance(value, list) else value
           for key, value in json.loads(sys.argv[5]).items()}
cache = tempfile.TemporaryDirectory()
results = {}
for item in manifest:
    if not rounds:
        results[item["label"]] = analyse(
            SafeFlow(AnalysisConfig(**options)), item)
        continue
    analyzer = SafeFlow(AnalysisConfig(cache_dir=cache.name, **options))
    results[item["label"]] = analyse(analyzer, item)
    results[item["label"]]["warm"] = [
        analyse(analyzer, item) for _ in range(rounds)]
with open(sys.argv[3], "w") as f:
    json.dump(results, f)
"""


def _inputs():
    """(label, files, source) for every input, generated with the
    working tree's generators so both sides see the same text."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from repro.corpus import SYSTEM_KEYS, generate_core, load_system
    import bench_kernels
    import service_mix

    items = []
    for key in SYSTEM_KEYS:
        files = [str(p) for p in load_system(key).core_files]
        items.append((key, files, None))
    for spec in bench_kernels.CONFIGS:
        params = {k: v for k, v in spec.items() if k != "name"}
        items.append((f"rung-{spec['name']}", None,
                      generate_core(**params).source))
    # the fixed half of service_mix.Mix: the same 128 sources every seed
    fixed = random.Random(0)
    for i in range(service_mix.MICRO):
        src = service_mix._micro(i, fixed)
        items.append((src.label, None, src.source))
    for i in range(service_mix.CONTROLLERS):
        src = service_mix._controller(f"ctl{i}", i, fixed, False)
        items.append((src.label, None, src.source))
    wild = os.path.join(ROOT, "examples", "wild")
    for name in sorted(os.listdir(wild)):
        if name.endswith(".c"):
            items.append((f"wild-{name[:-2]}", [os.path.join(wild, name)],
                          None))
    return items


def _analyse(src_dir, manifest_path, out_path, rounds=0, config="{}"):
    subprocess.run([sys.executable, "-c", _CHILD, src_dir, manifest_path,
                    out_path, str(rounds), config], check=True)
    with open(out_path) as f:
        return json.load(f)


def _config_json(text):
    """Validate a ``--config``/``--rev-config`` value: a JSON object."""
    value = json.loads(text)
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError("expected a JSON object")
    return text


def _normalise(result, ssa_labels):
    if "error" in result:
        return {"error": result["error"]}
    data = json.loads(json.dumps(result["json"]))
    for key in VOLATILE_STATS:
        data["stats"].pop(key, None)
    verbose = result["verbose"]
    if ssa_labels:
        data["stats"].pop("instructions", None)
        text = json.dumps(data, sort_keys=True)
        text = _TEMP_INDEX.sub(r"\1.#", _SSA_NAME.sub(r"%\1.#", text))
        data = json.loads(text)
        verbose = _TEMP_INDEX.sub(r"\1.#", _SSA_NAME.sub(r"%\1.#", verbose))
    return {"render": result["render"],
            "counts": result["json"]["counts"],
            "restrictions": result["json"]["violations"],
            "verbose": verbose, "json": data}


def _differences(old, new):
    """The parts in which two normalised results differ (``error`` when
    only one of them raised)."""
    if ("error" in old) != ("error" in new):
        return ["error"]
    return [part for part in old if old[part] != new[part]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD",
                        help="git rev to compare against (default HEAD)")
    parser.add_argument("--ssa-labels", action="store_true",
                        help="ignore SSA value numbering in witness labels")
    parser.add_argument("--tmp", default=None,
                        help="directory for the rev's source and outputs")
    parser.add_argument("--warm-rounds", type=int, default=0,
                        help="re-analyse each input this many times "
                             "with the working tree under a cache dir; "
                             "every repeat must be a replayed verdict "
                             "identical to the rev's cold one")
    parser.add_argument("--config", type=_config_json, default="{}",
                        metavar="JSON",
                        help="AnalysisConfig keyword arguments for the "
                             "working tree's runs (JSON object)")
    parser.add_argument("--rev-config", type=_config_json, default=None,
                        metavar="JSON",
                        help="AnalysisConfig keyword arguments for the "
                             "rev's runs (default: --config)")
    args = parser.parse_args(argv)
    rev_config = args.config if args.rev_config is None else args.rev_config

    work = tempfile.mkdtemp(prefix="verdict-diff-", dir=args.tmp)
    tree = os.path.join(work, "rev")
    try:
        os.makedirs(tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev,
                                  "src"], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout,
                       check=True)
        manifest = []
        for label, files, source in _inputs():
            path = None
            if source is not None:
                path = os.path.join(work, label + ".c")
                with open(path, "w") as f:
                    f.write(source)
            manifest.append({"label": label, "files": files,
                             "source": path})
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)
        before = _analyse(os.path.join(tree, "src"), manifest_path,
                          os.path.join(work, "rev.json"), 0, rev_config)
        after = _analyse(os.path.join(ROOT, "src"), manifest_path,
                         os.path.join(work, "tree.json"), args.warm_rounds,
                         args.config)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    differ = 0
    for item in manifest:
        label = item["label"]
        old = _normalise(before[label], args.ssa_labels)
        new = _normalise(after[label], args.ssa_labels)
        parts = _differences(old, new)
        for i, warm in enumerate(after[label].get("warm", ()), 1):
            if "error" not in warm and not warm["json"]["stats"].get(
                    "verdict_replayed"):
                parts.append(f"warm round {i} not replayed")
            replayed = _normalise(warm, args.ssa_labels)
            parts.extend(f"warm round {i} {part}"
                         for part in _differences(old, replayed))
        if parts:
            differ += 1
            print(f"DIFF {label}: {', '.join(parts)}")
    print(f"{len(manifest) - differ}/{len(manifest)} inputs identical "
          f"against {args.rev}"
          + (" (SSA labels normalised)" if args.ssa_labels else "")
          + (f", config {args.config}" if args.config != "{}" else "")
          + (f", rev config {rev_config}" if rev_config != args.config
             else "")
          + (f", {args.warm_rounds} replayed warm rounds each"
             if args.warm_rounds else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
