"""Shard lifecycle: spawning, supervising, and restarting the
``safeflow serve`` daemons behind the fleet router.

Two interchangeable backends implement the same synchronous contract
(``start`` / ``stop`` / ``kill`` / ``restart`` / ``alive`` /
``address``; the router calls the blocking ones through an executor):

- :class:`ProcessBackend` runs a real ``safeflow serve`` subprocess —
  what ``safeflow fleet`` deploys, what the chaos tests SIGKILL, and
  the only backend with true crash isolation;
- :class:`InProcessBackend` embeds a :class:`SafeFlowServer` in the
  router's process — no spawn cost, used by the fast tests.

A shard keeps its identity across restarts: the same
:class:`ShardSpec` (and in particular the same ``cache_dir``) is
reused, so a restarted shard comes back with its disk IR cache
already warm. Only the port may change
(ephemeral bind), which the router re-reads from :attr:`address`
after every (re)start.

The supervision philosophy follows :mod:`repro.resilience`: a dead
shard is an *event*, not an error — restart it, re-dispatch what it
was holding, and account for it in the metrics plane.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.config import AnalysisConfig

#: what `safeflow serve` prints once it is accepting connections
_LISTENING_RE = re.compile(
    r"safeflow serve: listening on (\S+?):(\d+)\b")

#: seconds to wait for a spawned daemon to announce its address
SPAWN_DEADLINE = 30.0


@dataclass
class ShardSpec:
    """Everything needed to (re)create one shard."""

    shard_id: int
    cache_dir: str
    workers: int = 1
    queue_size: int = 64
    summaries: bool = False
    host: str = "127.0.0.1"
    #: False maps to `safeflow serve --in-process` (thread workers);
    #: tests use it to avoid per-shard worker-process spawn cost
    use_processes: bool = True
    #: path to a tenants.json quota table; every shard gets the same
    #: table so admission behaves identically wherever a job lands
    tenants_path: Optional[str] = None
    #: in-flight dispatch cap per shard: "auto" (AIMD adaptive), an
    #: integer (fixed), or None (unlimited)
    max_inflight: Optional[str] = None
    #: extra `safeflow serve` flags (ProcessBackend only)
    extra_args: Tuple[str, ...] = ()

    def config(self) -> AnalysisConfig:
        return AnalysisConfig(
            summary_mode=self.summaries,
            cache_dir=self.cache_dir,
        )


class ProcessBackend:
    """One shard as a supervised ``safeflow serve`` subprocess."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def log_path(self) -> str:
        return os.path.join(self.spec.cache_dir,
                            f"shard-{self.spec.shard_id}.log")

    def start(self) -> Tuple[str, int]:
        """Spawn the daemon and block until it announces its address.

        The daemon's stdout/stderr go to a *file* (:attr:`log_path`),
        never a pipe: the daemon's worker subprocesses inherit the
        descriptor, and after a SIGKILL of the daemon a pipe would
        only see EOF once every orphaned worker exits — a file needs
        no reader at all. The announcement line is polled from the
        file.
        """
        if self.alive:
            return self.address
        os.makedirs(self.spec.cache_dir, exist_ok=True)
        with open(self.log_path, "ab") as log:
            start_offset = log.tell()
            # own session: the daemon and the analysis workers it
            # forks form one process group, so kill() can take down
            # the whole tree even after the daemon itself was
            # SIGKILLed out from under its children
            self.proc = subprocess.Popen(
                self._argv(),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self._env(),
                start_new_session=True,
            )
        deadline = time.monotonic() + SPAWN_DEADLINE
        address = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.log_path, "rb") as log:
                log.seek(start_offset)
                tail = log.read().decode("utf-8", "replace")
            match = _LISTENING_RE.search(tail)
            if match:
                address = (match.group(1), int(match.group(2)))
                break
            time.sleep(0.05)
        if address is None:
            self.kill()
            raise RuntimeError(
                f"shard {self.spec.shard_id}: daemon did not announce "
                f"its address within {SPAWN_DEADLINE}s "
                f"(see {self.log_path})")
        self.address = address
        return address

    def _argv(self) -> List[str]:
        spec = self.spec
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", spec.host, "--port", "0",
            "--cache-dir", spec.cache_dir,
            "--workers", str(spec.workers),
            "--queue-size", str(spec.queue_size),
        ]
        if spec.summaries:
            argv.append("--summaries")
        if not spec.use_processes:
            argv.append("--in-process")
        if spec.tenants_path:
            argv.extend(["--tenants", spec.tenants_path])
        if spec.max_inflight:
            argv.extend(["--max-inflight", str(spec.max_inflight)])
        argv.extend(spec.extra_args)
        return argv

    @staticmethod
    def _env() -> dict:
        """Child environment with this interpreter's ``repro`` on the
        path (the fleet may run from a source checkout)."""
        env = os.environ.copy()
        package_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (package_root if not existing
                             else package_root + os.pathsep + existing)
        return env

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful stop: SIGTERM (the daemon drains) then SIGKILL."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        self._reap()

    def kill(self) -> None:
        """SIGKILL the whole shard process group, no drain — the
        chaos path. Group-wide so workers orphaned by an external
        SIGKILL of the daemon die too."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            if self.proc.poll() is None:
                try:
                    self.proc.kill()
                except OSError:
                    pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass
        self._reap()

    def _reap(self) -> None:
        self.address = None

    def restart(self, graceful: bool = False) -> Tuple[str, int]:
        """Bring the shard back with the same spec (same cache dir)."""
        if graceful:
            self.stop()
        else:
            self.kill()
        self.proc = None
        return self.start()


class InProcessBackend:
    """One shard as an embedded :class:`SafeFlowServer` (tests)."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.server = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        if self.server is not None:
            return self.address
        from ..server.daemon import SafeFlowServer

        os.makedirs(self.spec.cache_dir, exist_ok=True)
        tenants = None
        if self.spec.tenants_path:
            from ..qos import load_tenants

            tenants = load_tenants(self.spec.tenants_path)
        max_inflight = self.spec.max_inflight
        if max_inflight not in (None, "auto"):
            max_inflight = int(max_inflight)
        self.server = SafeFlowServer(
            config=self.spec.config(),
            host=self.spec.host, port=0,
            workers=self.spec.workers,
            queue_size=self.spec.queue_size,
            use_processes=self.spec.use_processes,
            tenants=tenants,
            max_inflight=max_inflight,
        )
        self.server.start()
        self.address = tuple(self.server.address[:2])
        return self.address

    @property
    def alive(self) -> bool:
        return self.server is not None

    @property
    def pid(self) -> Optional[int]:
        return os.getpid() if self.server is not None else None

    def stop(self, timeout: float = 30.0) -> None:
        if self.server is None:
            return
        self.server.stop()
        self.server = None
        self.address = None

    def kill(self) -> None:
        """Closest an in-process shard gets to dying abruptly: stop
        without draining. True SIGKILL chaos needs ProcessBackend."""
        if self.server is None:
            return
        self.server.stop(drain=False)
        self.server = None
        self.address = None

    def restart(self, graceful: bool = False) -> Tuple[str, int]:
        if graceful:
            self.stop()
        else:
            self.kill()
        return self.start()
