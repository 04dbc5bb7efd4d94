#!/usr/bin/env python3
"""End-to-end smoke test of ``safeflow serve`` as a real subprocess.

Starts the daemon via ``python -m repro.cli serve`` (ephemeral port,
metrics snapshot on exit), round-trips every corpus system through
``SafeFlowClient``, checks each response is byte-identical to the
in-process cold analysis, repeats one system warm, scrapes the
metrics plane, asks the daemon to shut down over RPC, and verifies a
clean exit plus a well-formed ``--metrics-json`` file. Exits nonzero
on the first discrepancy.

The daemon runs in summary mode: a worker's memoised program replays
its last verdict, which must come back marked ``verdict_replayed`` and
byte-identical to the cold in-process verdict. A repeat under another
config override must be computed.

Then a two-shard ``safeflow fleet`` (shards sharing one store) answers
one corpus system through the router, and the same request sent
straight to the *other* shard must be a store hit
(``frontend_cache_hits`` >= 1) rendering byte-identical to the cold
in-process verdict.

Run via ``make serve-smoke``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.core.config import AnalysisConfig          # noqa: E402
from repro.core.driver import SafeFlow                # noqa: E402
from repro.corpus import SYSTEM_KEYS, load_system     # noqa: E402
from repro.server import SafeFlowClient               # noqa: E402
from verdict_diff import VOLATILE_STATS                # noqa: E402

LISTEN_RE = re.compile(r"listening on .*?:(\d+)")
ROUTING_RE = re.compile(r"routing on (\S+?):(\d+) ")
WORKERS = 2


def fail(message):
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _comparable(report_json):
    stats = {key: value for key, value in report_json["stats"].items()
             if key not in VOLATILE_STATS}
    return dict(report_json, stats=stats)


def main():
    tmp = Path(tempfile.mkdtemp(prefix="safeflow-smoke-"))
    metrics_path = tmp / "metrics.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--workers", str(WORKERS), "--summaries",
         "--cache-dir", str(tmp / "cache"),
         "--metrics-json", str(metrics_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(REPO_ROOT),
    )
    try:
        line = proc.stdout.readline()
        match = LISTEN_RE.search(line)
        if not match:
            proc.kill()
            fail(f"no listening banner, got: {line!r}")
        port = int(match.group(1))
        print(f"serve-smoke: daemon up on port {port} (pid {proc.pid})")

        with SafeFlowClient(port=port, request_timeout=120.0) as client:
            if not client.ping():
                fail("ping did not answer")
            for key in SYSTEM_KEYS:
                system = load_system(key)
                files = [str(p) for p in system.core_files]
                cold = SafeFlow(AnalysisConfig(summary_mode=True)) \
                    .analyze_files(files, name=key)
                result = client.analyze(files=files, name=key)
                if result["render"] != cold.render():
                    fail(f"{key}: served report differs from cold analysis")
                print(f"serve-smoke: {key}: byte-identical "
                      f"({'PASS' if result['passed'] else 'FAIL'} as expected)")
            # warm repeats: every worker computes a verdict once, then
            # one of them must replay it
            files = [str(p) for p in load_system("ip").core_files]
            cold = SafeFlow(AnalysisConfig(summary_mode=True)) \
                .analyze_files(files, name="ip")
            expected = _comparable(cold.to_json())
            replayed = 0
            for attempt in range(WORKERS + 1):
                result = client.analyze(files=files, name="ip",
                                        verbose=True)
                if (result["render"] != cold.render(verbose=True)
                        or _comparable(result["report"]) != expected):
                    fail(f"warm repeat {attempt} differs from cold analysis")
                replayed += bool(
                    result["report"]["stats"].get("verdict_replayed"))
            if not replayed:
                fail(f"none of {WORKERS + 1} warm repeats was replayed")
            print(f"serve-smoke: warm repeats byte-identical, "
                  f"{replayed} replayed")
            result = client.analyze(
                files=files, name="ip",
                config={"track_control_dependence": False})
            if result["report"]["stats"].get("verdict_replayed"):
                fail("a config override replayed another config's verdict")
            analyses = len(SYSTEM_KEYS) + WORKERS + 2
            metrics = client.metrics()
            if metrics["cache"]["frontend_hits"] < 1:
                fail("no cache hits after a warm repeat")
            if metrics["cache"]["verdict_replays"] != replayed:
                fail(f"metrics count {metrics['cache']['verdict_replays']} "
                     f"replays, responses {replayed}")
            if metrics["analyses"]["completed"] != analyses:
                fail(f"unexpected completion count: {metrics['analyses']}")
            print(f"serve-smoke: metrics ok "
                  f"(completed={metrics['analyses']['completed']}, "
                  f"frontend_hits={metrics['cache']['frontend_hits']}, "
                  f"verdict_replays={metrics['cache']['verdict_replays']})")
            client.shutdown(drain=True)

        try:
            rc = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("daemon did not exit after shutdown RPC")
        if rc != 0:
            fail(f"daemon exited with {rc}:\n{proc.stdout.read()}")
        snapshot = json.loads(metrics_path.read_text())
        if snapshot["analyses"]["completed"] != analyses:
            fail("metrics snapshot file disagrees with scraped metrics")
        print("serve-smoke: clean shutdown, metrics snapshot written — OK")
    finally:
        if proc.poll() is None:
            proc.kill()
    fleet_smoke(tmp, env)


def fleet_smoke(tmp, env):
    """A primed source sent to its non-home shard is a store hit."""
    log_path = tmp / "fleet.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fleet", "--shards", "2",
             "--port", "0", "--cache-dir", str(tmp / "fleet-cache")],
            stdout=log, stderr=subprocess.STDOUT, env=env,
            cwd=str(REPO_ROOT))
    try:
        deadline = time.monotonic() + 90
        match = None
        while match is None:
            if proc.poll() is not None or time.monotonic() > deadline:
                fail(f"fleet did not start: {log_path.read_text()[-2000:]}")
            match = ROUTING_RE.search(log_path.read_text())
            time.sleep(0.05)
        router = (match.group(1), int(match.group(2)))
        files = [str(p) for p in load_system("ip").core_files]
        cold = SafeFlow().analyze_files(files, name="ip").render()
        with SafeFlowClient(*router, request_timeout=120.0) as client:
            while client.health().get("shards_healthy") != 2:
                if time.monotonic() > deadline:
                    fail("fleet shards did not become healthy")
                time.sleep(0.05)
            if client.analyze(files=files, name="ip")["render"] != cold:
                fail("fleet: routed report differs from cold analysis")
            shards = client.metrics()["shards"]
        home = next(s for s in shards if s["routed"])
        away = next(s for s in shards if s is not home)
        host, port = away["address"]
        with SafeFlowClient(host, int(port), request_timeout=120.0) as client:
            result = client.analyze(files=files, name="ip")
        hits = result["report"]["stats"]["frontend_cache_hits"]
        if hits < 1:
            fail(f"fleet: shard {away['shard']} missed the shared store")
        if result["render"] != cold:
            fail("fleet: non-home shard report differs from cold analysis")
        print(f"serve-smoke: fleet: shard {away['shard']} answered shard "
              f"{home['shard']}'s source from the shared store "
              f"(frontend_cache_hits={hits}), byte-identical — OK")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
