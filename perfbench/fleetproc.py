"""A ``safeflow fleet`` subprocess: spawn, health, metrics, teardown.

The fleet runs in its own session, and every shard daemon it spawns
runs in another (with its analysis workers in the shard's group), so
:meth:`Fleet.stop` asks the router to stop its shards, then SIGKILLs
the router's group and every shard group it ever saw, and waits until
each process is gone — no daemon outlives a run.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from common import Scratch, child_pids, vm_hwm_mb

_ROUTING_RE = re.compile(r"routing on (\S+?):(\d+) \(pid (\d+)")
SPAWN_DEADLINE = 90.0


class Fleet:
    def __init__(self, scratch: Scratch, shards: int,
                 tenants_path: Optional[str] = None):
        self.scratch = scratch
        self.shards = shards
        self.tenants_path = tenants_path
        self.cache_dir = scratch.fresh("fleet-cache")
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self.shard_pids: Set[int] = set()
        #: shard id → (host, port) of its daemon
        self.shard_addresses: Dict[int, Tuple[str, int]] = {}

    def start(self) -> float:
        """Spawn the fleet; returns seconds until every shard is
        healthy."""
        argv = [sys.executable, "-m", "repro.cli", "fleet",
                "--shards", str(self.shards), "--port", "0",
                "--cache-dir", self.cache_dir]
        if self.tenants_path:
            argv += ["--tenants", self.tenants_path]
        log_path = os.path.join(self.cache_dir, "router.log")
        t0 = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT,
                env=self.scratch.child_env(), cwd=self.scratch.path,
                start_new_session=True)
        deadline = time.monotonic() + SPAWN_DEADLINE
        while self.address is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"fleet did not start: {open(log_path).read()[-2000:]}")
            match = _ROUTING_RE.search(open(log_path).read())
            if match:
                self.address = (match.group(1), int(match.group(2)))
            else:
                time.sleep(0.01)
        while True:
            health = self._health()
            if health is not None:
                self._note_shards(health.get("shards") or [])
                if health.get("shards_healthy") == self.shards:
                    return time.perf_counter() - t0
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("fleet shards did not become healthy")
            time.sleep(0.01)

    def client(self, **kwargs):
        from repro.server.client import SafeFlowClient

        host, port = self.address
        return SafeFlowClient(host=host, port=port, **kwargs)

    def shard_client(self, shard: int, **kwargs):
        from repro.server.client import SafeFlowClient

        host, port = self.shard_addresses[shard]
        return SafeFlowClient(host=host, port=port, **kwargs)

    def _health(self) -> Optional[Dict[str, Any]]:
        from repro.errors import SafeFlowError

        try:
            with self.client(connect_timeout=2.0, request_timeout=10.0,
                             retries=0) as c:
                return c.health()
        except (SafeFlowError, OSError):
            return None

    def metrics(self) -> Dict[str, Any]:
        with self.client(request_timeout=30.0) as c:
            metrics = c.metrics()
        self._note_shards(metrics.get("shards") or [])
        return metrics

    def _note_shards(self, shards: List[Dict[str, Any]]) -> None:
        for shard in shards:
            if shard.get("pid"):
                self.shard_pids.add(int(shard["pid"]))
            if shard.get("address"):
                host, port = shard["address"]
                self.shard_addresses[int(shard["shard"])] = (host, int(port))

    def peak_rss_mb(self) -> float:
        """Sum of peak RSS over the router, its shard daemons and their
        analysis workers."""
        pids = {self.proc.pid} | self.shard_pids
        for pid in list(self.shard_pids):
            pids.update(child_pids(pid))
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                pass
        groups = {self.proc.pid} | self.shard_pids
        for pgid in groups:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and any(
                _alive(pid) for pid in self.shard_pids):
            time.sleep(0.02)
        self.proc = None


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # a zombie is dead for our purposes
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def write_tenants(path: str, names: List[str]) -> str:
    """Two tenants whose quotas are far above the offered load."""
    table = {
        "default": {"weight": 1, "priority": "normal"},
        "tenants": {name: {"weight": 1, "rate": 1e6, "burst": 1e6,
                           "priority": "normal"} for name in names},
    }
    with open(path, "w") as f:
        json.dump(table, f)
    return path
