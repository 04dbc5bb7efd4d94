"""Performance-layer benchmarks: cache speedup and batch throughput.

Two acceptance properties of the ``repro.perf`` layer, measured and
asserted:

- a warm-cache re-analysis of a corpus system is at least 2x faster
  than a cold one (the verdict record is replayed, so the front end
  and phases 1-3 are skipped);
- a 4-worker batch over the three Table-1 systems beats running the
  same jobs sequentially.

Run via ``make bench`` (saves ``BENCH_parallel.json``).
"""

import os
import shutil
import time

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import load_all, load_system
from repro.perf.batch import BatchJob


def _best_of(fn, rounds):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_warm_cache_vs_cold(benchmark, tmp_path):
    """Warm re-analysis must be >= 2x faster than a cold run."""
    system = load_system("generic_simplex")
    cache_dir = str(tmp_path / "cache")
    config = AnalysisConfig(summary_mode=True, cache_dir=cache_dir)

    def cold_run():
        shutil.rmtree(cache_dir, ignore_errors=True)
        system.analyze(config)

    cold = _best_of(cold_run, rounds=3)

    system.analyze(config)  # prime the store
    benchmark.pedantic(lambda: system.analyze(config),
                       rounds=5, iterations=1, warmup_rounds=1)
    warm = benchmark.stats.stats.min
    benchmark.extra_info["cold_seconds"] = cold
    benchmark.extra_info["speedup"] = cold / warm
    assert warm * 2.0 <= cold, (
        f"warm {warm * 1000:.1f}ms vs cold {cold * 1000:.1f}ms: "
        f"speedup {cold / warm:.2f}x < 2x"
    )


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="parallel speedup needs more than one CPU")
def test_batch_4_workers_vs_sequential(benchmark):
    """4-worker batch over the 3-system corpus must beat sequential.

    Only meaningful on multi-core hosts: the jobs are CPU-bound, so on
    a single core the fork/pickle overhead can never be recovered.
    """
    jobs = [
        BatchJob(name=system.key,
                 files=tuple(str(p) for p in system.core_files))
        for system in load_all()
    ]
    flow = SafeFlow(AnalysisConfig())  # no caches: raw parallelism

    sequential = _best_of(
        lambda: flow.analyze_batch(jobs, max_workers=1), rounds=2
    )

    benchmark.pedantic(lambda: flow.analyze_batch(jobs, max_workers=4),
                       rounds=3, iterations=1, warmup_rounds=1)
    parallel = benchmark.stats.stats.min
    benchmark.extra_info["sequential_seconds"] = sequential
    benchmark.extra_info["speedup"] = sequential / parallel
    assert parallel < sequential, (
        f"4 workers {parallel:.2f}s not faster than "
        f"sequential {sequential:.2f}s"
    )
