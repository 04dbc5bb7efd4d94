"""Shared pieces of the benchmark: paths, statistics, result output."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: run outputs (span NDJSON, per-run scratch dirs); git-ignored
OUT_DIR = BENCH_DIR / "out"


def import_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and make sure
    ``repro`` is imported from there and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(
            f"perfbench: repro imported from {repro.__file__}, "
            f"not from {SRC}")


class Scratch:
    """A fresh directory under :data:`OUT_DIR` for one run; removed by
    :meth:`close`. Child processes get it as ``TMPDIR`` so nothing the
    run starts writes outside the checkout."""

    def __init__(self, label: str):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"{label}-", dir=OUT_DIR)
        tempfile.tempdir = self.path

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def fresh(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.path)

    def child_env(self) -> Dict[str, str]:
        env = os.environ.copy()
        env["TMPDIR"] = self.path
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) if not existing \
            else str(SRC) + os.pathsep + existing
        return env

    def close(self) -> None:
        tempfile.tempdir = None
        shutil.rmtree(self.path, ignore_errors=True)


# -- statistics ----------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has
    at least ten samples above it: the eleventh-largest sample, at
    percentile ``100 * (n - 10) / n``. With ten samples or fewer there
    is no such percentile and the maximum is returned at 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 100.0, 0.0
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


# -- inputs --------------------------------------------------------------------

@dataclass
class Input:
    """One program the benchmark analyses — inline ``source`` or a
    list of ``files`` — with the workload's oracle ``expected``."""

    label: str
    source: Optional[str] = None
    files: Optional[List[str]] = None
    expected: object = None

    def params(self) -> Dict[str, object]:
        """The keyword arguments of an ``analyze`` request."""
        if self.files is not None:
            return {"files": self.files, "name": self.label}
        return {"source": self.source, "filename": f"{self.label}.c",
                "name": self.label}


def analyze(item: Input):
    """A cold in-process verdict: ``SafeFlow(AnalysisConfig())`` with
    no cache directory."""
    from repro.core.config import AnalysisConfig
    from repro.core.driver import SafeFlow

    analyzer = SafeFlow(AnalysisConfig())
    if item.files is not None:
        return analyzer.analyze_files(item.files, name=item.label)
    return analyzer.analyze_source(item.source, filename=f"{item.label}.c",
                                   name=item.label)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS of a live process from ``/proc``; 0 when it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of a live process, from ``/proc``."""
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(p) for p in f.read().split())
        except OSError:
            continue
    return out


def machine_info() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- results -------------------------------------------------------------------

@dataclass
class Metric:
    value: float
    unit: str
    #: sample count / percentile / why-unmeasured notes, printed beside
    #: the value but kept out of the JSON result line
    note: str = ""


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    #: one line per failed operation (first few are printed)
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: extra lines for the human-readable report
    details: List[str] = field(default_factory=list)
    #: spans of the traced pass, written out as NDJSON
    spans: List[object] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def put(self, name: str, value: float, unit: str,
            note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, note)

    def json_line(self, names: Sequence[str]) -> str:
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not produced: {missing}")
        return json.dumps({
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                n: {"value": self.metrics[n].value,
                    "unit": self.metrics[n].unit}
                for n in names
            },
        })

    def print_report(self, names: Sequence[str],
                     out=sys.stdout) -> None:
        info = machine_info()
        print(f"perfbench {self.workload} seed={self.seed} "
              f"nproc={info['nproc']} python={info['python']} "
              f"platform={info['platform']}", file=out)
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"  attempted={self.attempted} failed={self.failed} "
              f"error_rate={error_rate:.6g}", file=out)
        for line in self.failures[:10]:
            print(f"  FAILED: {line}", file=out)
        for name in names:
            m = self.metrics.get(name)
            if m is None:
                continue
            note = f"  ({m.note})" if m.note else ""
            print(f"  {name:<32} {m.value:>14.6g} {m.unit:<6}{note}",
                  file=out)
        for line in self.details:
            print(f"  {line}", file=out)


#: seconds :meth:`HostProbe.probe` takes on the reference host (about
#: its fast mode on the 2-vCPU VM the bounds were set on). Normalised
#: timings are what the program would take on a host this fast.
REFERENCE_S = 0.010


def _reference_work() -> int:
    """A fixed piece of pure-Python work shaped like the analyzer's: a
    worklist walk over a graph of a few thousand nodes that records a
    small fact per node it reaches."""
    n = 8000
    successors = [[(i * 7 + 3) % n, (i * 13 + 5) % n, (i * 31 + 1) % n]
                  for i in range(n)]
    seen = set()
    facts = {}
    work = [0]
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        facts[node] = (node & 15, str(node))
        work.extend(successors[node])
    return len(facts)


class HostProbe:
    """How fast the host runs right now, from timing a fixed piece of
    work that does not use the program.

    On a shared VM the host switches between a fast and a 2x slower
    mode every few hundred milliseconds, and the share of time in the
    slow mode drifts over minutes, so the same verdict's median time
    moved 15-35% from one run to the next. Probing between operations
    (never inside one) and scaling the run's timings by
    ``REFERENCE_S / mean(probes)`` takes most of that out: an
    operation spans many mode switches, so its time follows the mean
    of the probes, not their median. A worklist walk tracked verdict
    times better than a small dict-chasing loop (correlation 0.78
    against 0.37 over 10-second windows), which over-corrected. The
    raw timings are printed beside the normalised ones."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: wall seconds spent probing, kept out of throughput
        self.seconds = 0.0

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # only the host's speed may move the sample
        t0 = time.perf_counter()
        try:
            _reference_work()
        finally:
            t1 = time.perf_counter()
            if enabled:
                gc.enable()
        self.samples.append(t1 - t0)
        self.seconds += time.perf_counter() - t0

    @property
    def scale(self) -> float:
        """Factor mapping a timing taken now to the reference host."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.samples)


@dataclass
class Pass:
    """What one set of decks measured."""

    latencies: List[float] = field(default_factory=list)
    #: per-operation program output the workload keeps (reports, stats)
    outputs: List[object] = field(default_factory=list)
    #: seconds the operations took, host probes excluded
    wall: float = 0.0
    #: probes of the host's speed between operations; none for the
    #: service, whose shards would lose the core a probe runs on
    host: HostProbe = field(default_factory=HostProbe)

    @property
    def ops_s(self) -> float:
        return len(self.latencies) / self.wall if self.wall else 0.0


def run_decks(count: int, deck, tracer=None,
              install=None) -> Tuple[Pass, Pass]:
    """Run ``count`` complete decks of operations: fixed work, so the
    sample count, the tail percentile and memory that grows with the
    number of operations compare across runs and commits.

    ``deck(tracer_or_None, pass)`` runs one deck of operations into a
    :class:`Pass`. Without a tracer every deck is untraced and the
    second pass stays empty. With one, decks alternate untraced and
    traced (an even number, untraced first), so both passes see the
    same kind of inputs and the same drift; ``install(tracer)`` wraps
    the program's entry points for a traced deck and
    ``tracer.restore()`` unwraps them after it. Returns
    ``(untraced, traced)``.
    """
    plain, traced = Pass(), Pass()
    if tracer is not None:
        count += count % 2
    for index in range(count):
        into = traced if tracer is not None and index % 2 else plain
        probing = into.host.seconds
        t0 = time.perf_counter()
        if into is traced:
            install(tracer)
            try:
                deck(tracer, traced)
            finally:
                tracer.restore()
        else:
            deck(None, plain)
        into.wall += (time.perf_counter() - t0
                      - (into.host.seconds - probing))
    return plain, traced


def put_end_to_end(result: "Result", setups: Sequence[float],
                   setup_what: str, measured: Pass, rss_mb: float,
                   rss_what: str, op_what: str) -> None:
    """The end-to-end metrics of one untraced pass; its timings are
    normalised by the pass's host probes, if it took any. Set-up times
    are not: a set-up is a few long steps, and probes beside each
    moved them more than the host did."""
    latencies = measured.latencies
    n = len(latencies)
    pct, tail_s = tail(latencies)
    result.put("setup_s", median(setups), "s",
               f"median of {len(setups)} {setup_what}")
    scale = measured.host.scale

    def raw(value: str) -> str:
        return (f"; raw {value}, host scale {scale:.3f}"
                if measured.host.samples else "")

    p50 = ms(median(latencies))
    result.put("throughput_ops_s", measured.ops_s / scale, "1/s",
               f"{n} {op_what} in {measured.wall:.2f} s"
               + raw(f"{measured.ops_s:.4f} 1/s"))
    result.put("latency_p50_ms", p50 * scale, "ms",
               f"n={n}" + raw(f"{p50:.3f} ms"))
    result.put("latency_tail_ms", ms(tail_s) * scale, "ms",
               f"p{pct:.2f}, n={n}" + raw(f"{ms(tail_s):.3f} ms"))
    result.put("peak_rss_mb", rss_mb, "MB", rss_what)


def write_spans(spans, path: Path) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for span in sorted(spans, key=lambda s: s.start):
            f.write(json.dumps(span.to_json()) + "\n")


def load_benchmark_names() -> Tuple[List[str], List[str], List[str]]:
    """Workload, end-to-end and per-layer metric names, in
    ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            [m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ms(seconds: Optional[float]) -> float:
    return (seconds or 0.0) * 1000.0
