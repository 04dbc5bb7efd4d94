"""Analysis-service benchmark: warm daemon requests vs the cold CLI path.

The point of running ``safeflow serve`` at all is that a long-lived
daemon amortizes work across requests: its workers share the on-disk
IR cache, and a repeat request on any worker replays the verdict
record the first one wrote. This benchmark measures that directly:

- *cold CLI*: a fresh ``SafeFlow`` with no cache directory, the same
  work ``safeflow analyze`` does on every invocation;
- *warm server*: a round-trip through ``SafeFlowClient`` against a
  daemon whose caches were primed by one prior request — including
  all protocol, queue, and worker-pool overhead.

The warm request must still be measurably faster despite the added
serving machinery. Results autosave to ``BENCH_server.json`` at the
repo root. Run via ``make bench-server`` (or plain pytest).
"""

import json
import time
from pathlib import Path

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import load_system
from repro.perf.latency import LatencyRecorder
from repro.server import SafeFlowClient, SafeFlowServer

REPO_ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
WARM_ROUNDS = 30
SYSTEM = "generic_simplex"
MIN_SPEEDUP = 1.2


def _best_of(fn, rounds=ROUNDS):
    return _record(fn, rounds).percentile(0)


def _record(fn, rounds) -> LatencyRecorder:
    """Time ``rounds`` calls into the shared latency recorder
    (:mod:`repro.perf.latency` — same helper ``bench_fleet`` uses)."""
    recorder = LatencyRecorder()
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        recorder.record(time.perf_counter() - start)
    return recorder


def test_warm_server_request_beats_cold_cli(tmp_path):
    system = load_system(SYSTEM)
    files = [str(p) for p in system.core_files]

    def cold():
        flow = SafeFlow(AnalysisConfig(summary_mode=True))
        report = flow.analyze_files(files, name=SYSTEM)
        assert report.render()

    cold_s = _best_of(cold)

    server = SafeFlowServer(
        config=AnalysisConfig(summary_mode=True,
                              cache_dir=str(tmp_path / "cache")),
        port=0, workers=2,
    )
    server.start()
    try:
        with SafeFlowClient(port=server.address[1]) as client:
            prime = client.analyze(files=files, name=SYSTEM)

            def warm():
                result = client.analyze(files=files, name=SYSTEM)
                assert result["render"] == prime["render"]

            warm_lat = _record(warm, WARM_ROUNDS)
            warm_s = warm_lat.percentile(0)
            metrics = client.metrics()
            client_stats = dict(client.stats)
    finally:
        server.stop()

    speedup = cold_s / warm_s
    payload = {
        "system": SYSTEM,
        "rounds": ROUNDS,
        "warm_rounds": WARM_ROUNDS,
        "cold_cli_s": cold_s,
        "warm_server_s": warm_s,
        "warm_latency": warm_lat.summary(),
        "speedup": speedup,
        "pool_mode": server.pool.mode,
        "cache": metrics["cache"],
        "client": client_stats,
    }
    (REPO_ROOT / "BENCH_server.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    assert metrics["cache"]["frontend_hits"] > 0
    assert metrics["cache"]["verdict_replays"] > 0
    assert warm_lat.summary()["p99_s"] >= warm_lat.summary()["p50_s"]
    # the persistent connection did persist: N requests, one connect
    assert client_stats["reconnects"] == 0
    assert speedup >= MIN_SPEEDUP, (
        f"warm server request ({warm_s:.3f}s) not measurably faster "
        f"than cold CLI path ({cold_s:.3f}s): {speedup:.2f}x"
    )
