"""Workload ``service_mix``: a closed loop against a ``safeflow fleet``.

Two ``SafeFlowClient`` connections (one thread each, one per core)
drive a ``safeflow fleet`` subprocess with 2 shards and default shard
settings. Each client sends its next request when the previous one
returns, which is how the callers behave: CI jobs and editors block on
each verdict. A tenants file declares the two clients' tenants with
quotas far above the offered load.

Requests draw from 128 distinct sources — 80 tiny micro units, 45
small generated controllers and the three corpus systems — Zipf-
distributed within their class: 60% micro (the router, protocol and
qos bookkeeping dominate), 38% controllers and corpus, and 2% sources
never seen before (cold front-end work in the tail). About 64 sources
per shard overflow the 32-entry in-memory program memo, so memo misses
fall through to the disk IR cache: in a 30-second run (seed 1, 2677
requests) a quarter of the IR-cache hits took 1 ms or more of
shard-reported front-end time (a disk unpickle), against under 0.5 ms
for three quarters (memo hits). Every response's ``render`` must be
byte-identical to a direct in-process analysis of the same source.

Timings are raw: a host probe between requests would take a core from
the shards, and probes before and after the window sample too short a
stretch of the host's fast/slow switching to track it (they moved the
normalised throughput 43% across five runs whose raw throughput moved
7%). With two busy processes on two vCPUs the raw figures were steady.

A traced run alternates untraced and traced slices of the window,
then probes warm requests one at a time via the router and directly
to their home shard (router hop, server overhead).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (Input, Pass, Result, Scratch, analyze, median, ms,
                    put_end_to_end)
from fleetproc import Fleet, write_tenants
import layers
from spans import Span, Tracer, breakdowns

SHARDS = 2
CLIENTS = 2
TENANTS = ["alpha", "beta"]
MICRO, CONTROLLERS = 80, 45
P_MICRO, P_FRESH = 0.60, 0.02
#: fresh sources are generated like the controller at this rank
FRESH_RANK = 6
ZIPF_S = 1.1
CORPUS_RANKS = (3, 12, 24)
SETUP_REPEATS = 3
#: requests per client in the schedule; far more than a window uses
SCHEDULE = 10_000
#: traced runs alternate untraced and traced slices of this many
TRACE_SLICES = 6
#: router-vs-direct probe requests after the traced slices
PROBES = 48
REFUSALS = ("rate_limited", "shed", "queue_full")


def _micro(i: int, rng: random.Random) -> Input:
    c, d, e = rng.randint(1, 99), rng.randint(1, 9), rng.randint(1, 99)
    text = (f"int reg{i};\n"
            f"int step{i}(int x) {{ if (x > {c}) reg{i} = x; "
            f"return x + {d}; }}\n"
            f"int main(void) {{ return step{i}({e}); }}\n")
    return Input(f"micro{i}", source=text)


def _controller(label: str, rank: int, rng: random.Random,
                smoke: bool) -> Input:
    """A small generated controller; its size grows with ``rank`` (a
    Zipf rank, so bigger controllers are asked for less often) and the
    seed only varies its region roles."""
    from repro.corpus import generate_core

    program = generate_core(
        data_error_regions=rng.randint(1, 2),
        control_fp_regions=rng.randint(0, 2),
        benign_read_regions=rng.randint(1, 2),
        monitored_regions=1 + rank % 2,
        filler_functions=rank % 3 if smoke else 4 + (12 * rank) // CONTROLLERS,
        chain_depth=1 + rank % 3,
        call_fanout=rank % 3,
        pipeline_stages=rank % 4,
    )
    return Input(label, source=f"/* {label} */\n" + program.source)


def _direct(src: Input) -> str:
    return analyze(src).render()


def _zipf(n: int) -> List[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]


class Mix:
    """The seeded source set and per-client request schedules."""

    def __init__(self, seed: int, smoke: bool):
        from repro.corpus import SYSTEM_KEYS, load_system

        self.smoke = smoke
        micro_n, ctl_n = (8, 4) if smoke else (MICRO, CONTROLLERS)
        # the 128 sources are the same for every seed: a source's
        # content decides its shard, and a seed-dependent split of the
        # hot sources between the two shards would swing every metric.
        # The seed draws the request stream and the fresh sources.
        fixed = random.Random(0)
        self.micro = [_micro(i, fixed) for i in range(micro_n)]
        self.controllers = [_controller(f"ctl{i}", i, fixed, smoke)
                            for i in range(ctl_n)]
        # the corpus systems sit at fixed Zipf ranks, so every seed
        # asks for them equally often
        for rank, key in zip(CORPUS_RANKS, SYSTEM_KEYS):
            self.controllers.insert(rank, Input(key, files=[
                str(p) for p in load_system(key).core_files]))
        self.sources = self.micro + self.controllers
        for src in self.sources:
            src.expected = _direct(src)
        micro_w = list(itertools.accumulate(_zipf(len(self.micro))))
        ctl_w = list(itertools.accumulate(_zipf(len(self.controllers))))
        self.fresh_count = 0
        self._fresh_lock = threading.Lock()
        self.rng = random.Random(seed)
        self.fresh_rng = random.Random(self.rng.random())
        self.schedules = []
        for _ in range(CLIENTS):
            schedule = []
            for _ in range(SCHEDULE):
                u = self.rng.random()
                if u < P_FRESH:
                    schedule.append(None)
                elif u < P_FRESH + P_MICRO:
                    schedule.append(self.rng.choices(
                        self.micro, cum_weights=micro_w)[0])
                else:
                    schedule.append(self.rng.choices(
                        self.controllers, cum_weights=ctl_w)[0])
            self.schedules.append(schedule)

    def fresh(self) -> Input:
        """A source no shard has seen; its oracle is computed after the
        measured window."""
        with self._fresh_lock:
            self.fresh_count += 1
            label = f"fresh{self.fresh_count}"
            return _controller(label, FRESH_RANK, self.fresh_rng,
                               self.smoke)


class Loop:
    """The closed loop: one thread per client, each walking its own
    schedule from where it last stopped."""

    def __init__(self, fleet: Fleet, mix: Mix, result: Result):
        self.mix = mix
        self.result = result
        self.lock = threading.Lock()
        self.clients = [fleet.client(tenant=t, request_timeout=120.0)
                        for t in TENANTS]
        self.cursor = [0] * CLIENTS
        self.stopping = threading.Event()
        #: (source, response render) of fresh requests, checked later
        self.fresh_seen: List[Tuple[Input, str]] = []

    def close(self) -> None:
        self.stopping.set()
        for client in self.clients:
            client.close()

    def retries(self) -> int:
        return sum(c.stats["retries"] for c in self.clients)

    def _worker(self, k: int, until: float, into: Pass,
                tracer: Optional[Tracer]) -> None:
        from repro.server.client import ServerError

        client = self.clients[k]
        schedule = self.mix.schedules[k]
        while time.perf_counter() < until and not self.stopping.is_set():
            src = schedule[self.cursor[k] % len(schedule)]
            self.cursor[k] += 1
            fresh = src is None
            if fresh:
                src = self.mix.fresh()
            root = tracer.begin_op() if tracer else None
            t0 = time.perf_counter()
            error, response = None, None
            try:
                response = client.analyze(**src.params())
            except ServerError as exc:
                error = (f"{src.label}: refused ({exc.name})"
                         if exc.name in REFUSALS
                         else f"{src.label}: {exc}")
            except Exception as exc:  # transport failure: failed op
                error = f"{src.label}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if root is not None:
                tracer.end(root)
                if response is not None:
                    _lay_out_phases(tracer, root, response)
            with self.lock:
                self.result.attempted += 1
                if error is None and fresh:
                    self.fresh_seen.append((src, response["render"]))
                elif error is None and response["render"] != src.expected:
                    error = f"{src.label}: render differs from direct"
                if error:
                    self.result.fail(error)
                    continue
                into.latencies.append(elapsed)
                into.outputs.append(
                    layers.StatsView(response["report"]["stats"]))

    def run(self, seconds: float, into: Pass,
            tracer: Optional[Tracer] = None) -> None:
        t0 = time.perf_counter()
        until = t0 + seconds
        threads = [threading.Thread(target=self._worker,
                                    args=(k, until, into, tracer),
                                    daemon=True)
                   for k in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        into.wall += time.perf_counter() - t0

    def prime(self) -> None:
        """One untimed request per source from both clients: warms the
        shards' caches and checks every source once."""
        halves = [self.mix.sources[k::CLIENTS] for k in range(CLIENTS)]

        def warm(k: int) -> None:
            for src in halves[k]:
                try:
                    response = self.clients[k].analyze(**src.params())
                    error = (None if response["render"] == src.expected
                             else f"{src.label}: warm-up render differs")
                except Exception as exc:  # refusal or transport failure
                    error = (f"{src.label}: warm-up "
                             f"{type(exc).__name__}: {exc}")
                with self.lock:
                    self.result.attempted += 1
                    if error:
                        self.result.fail(error)

        threads = [threading.Thread(target=warm, args=(k,), daemon=True)
                   for k in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def check_fresh(self) -> None:
        for src, render in self.fresh_seen:
            if render != _direct(src):
                self.result.fail(f"{src.label}: render differs from direct")


def _lay_out_phases(tracer: Tracer, root: Span, response) -> None:
    """Children of the ``client.analyze`` span from the shard-reported
    ``phase_timings``, laid out back to back and ending with it."""
    call = next((s for s in reversed(tracer.spans)
                 if s.parent == root.id and s.name == "client.analyze"),
                None)
    if call is None:
        return
    timings = response["report"]["stats"].get("phase_timings") or {}
    total = min(float(timings.get("total") or 0.0), call.duration)
    at = call.end - total
    used = 0.0
    for phase in layers.REPORTED_PHASES:
        seconds = float(timings.get(phase) or 0.0)
        seconds = max(0.0, min(seconds, total - used))
        if seconds:
            at = tracer.add_reported(call, phase, seconds, at)
            used += seconds
    if total - used > 0:
        tracer.add_reported(call, "server.other", total - used, at)


def _qos_refusals(metrics) -> int:
    tenants = (metrics.get("qos") or {}).get("tenants") or {}
    return sum(int(counts.get(kind, 0) or 0)
               for counts in tenants.values() for kind in REFUSALS)


def _probe(fleet: Fleet, mix: Mix, result: Result):
    """The same warm request via the router and then directly to its
    home shard, one at a time over one router and one shard
    connection: ``(hops, overheads, analyses)`` in seconds."""
    from repro.fleet.hashring import HashRing, routing_key

    ring = HashRing(range(SHARDS))
    rng = random.Random(len(mix.sources))
    by_shard: Dict[int, List[Input]] = {}
    for _ in range(PROBES):
        src = rng.choice(mix.sources)
        by_shard.setdefault(ring.lookup(routing_key(src.params())),
                            []).append(src)
    hops, overheads, analyses = [], [], []
    with fleet.client(tenant=TENANTS[0], request_timeout=120.0) as via:
        for shard, sources in sorted(by_shard.items()):
            with fleet.shard_client(shard, tenant=TENANTS[0],
                                    request_timeout=120.0) as direct:
                for src in sources:
                    params = src.params()
                    # both timed calls must find the program in the
                    # shard's memo, so the difference is the hop alone
                    direct.analyze(**params)
                    t0 = time.perf_counter()
                    routed = via.analyze(**params)
                    t1 = time.perf_counter()
                    straight = direct.analyze(**params)
                    t2 = time.perf_counter()
                    result.attempted += 2
                    if (routed["render"] != src.expected
                            or straight["render"] != src.expected):
                        result.fail(f"{src.label}: probe render differs")
                        continue
                    stats = straight["report"]["stats"]
                    total = stats["phase_timings"]["total"]
                    hops.append((t1 - t0) - (t2 - t1))
                    overheads.append((t2 - t1) - total)
                    analyses.append(total)
    return hops, overheads, analyses


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        scratch: Scratch) -> Result:
    result = Result("service_mix", seed)
    mix = Mix(seed, smoke)
    tenants = write_tenants(f"{scratch.path}/tenants.json", TENANTS)

    # set-up = spawning the fleet until every shard is healthy, each
    # time with a fresh cache directory; the last fleet is measured
    setups = []
    fleet = None
    loop = None
    try:
        for attempt in range(SETUP_REPEATS):
            fleet = Fleet(scratch, SHARDS, tenants)
            setups.append(fleet.start())
            if attempt < SETUP_REPEATS - 1:
                fleet.stop()
        loop = Loop(fleet, mix, result)
        loop.prime()
        before = fleet.metrics()
        plain, measured = Pass(), Pass()
        if not trace:
            loop.run(seconds, plain)
        else:
            tracer = Tracer()
            for k in range(TRACE_SLICES):
                if k % 2:
                    layers.install(tracer)
                    try:
                        loop.run(seconds / TRACE_SLICES, measured, tracer)
                    finally:
                        tracer.restore()
                else:
                    loop.run(seconds / TRACE_SLICES, plain)
            # let one health poll carry the shards' qos counters over
            time.sleep(1.0)
            after = fleet.metrics()
            retries = loop.retries()
            loop.close()
            hops, overheads, analyses = _probe(fleet, mix, result)
        rss = fleet.peak_rss_mb()
        loop.check_fresh()
    finally:
        if loop is not None:
            loop.close()
        if fleet is not None:
            fleet.stop()

    put_end_to_end(result, setups, "fleet spawns", plain, rss,
                   "router + shard daemons + their workers",
                   f"requests ({mix.fresh_count} fresh)")
    if not trace:
        return result

    ops = breakdowns(tracer.spans)
    layers.span_metrics(result, ops, in_process=False)
    layers.kernel_metrics(result, measured.outputs)
    layers.cache_metrics(result, measured.outputs, None)
    layers.unmeasured_incremental(result, "the service runs without "
                                          "summaries or sessions")
    calls = [s.duration for s in tracer.spans if s.name == "client.analyze"]
    result.put("client.rtt_ms", ms(median(calls)), "ms",
               f"median of {len(calls)} traced requests")
    note = f"median of {len(hops)} probes"
    result.put("fleet.router_hop_ms", ms(median(hops)), "ms",
               note + ": via router minus direct to the home shard")
    result.put("server.overhead_ms", ms(median(overheads)), "ms",
               note + ": direct RTT minus shard-reported total")
    result.put("server.analysis_ms", ms(median(analyses)), "ms",
               note + ": shard-reported phase_timings.total")
    router_before = before.get("router") or {}
    router_after = after.get("router") or {}
    result.put("fleet.steals", router_after.get("steals", 0)
               - router_before.get("steals", 0), "count",
               "router counter over the measured slices")
    result.put("qos.refusals", _qos_refusals(after) - _qos_refusals(before),
               "count", "rate_limited + shed + queue_full over the slices")
    result.put("client.retries", retries, "count",
               "both clients, whole run")
    layers.overhead(result, plain.ops_s, measured.ops_s)
    result.details.extend(layers.attribution(ops))
    result.spans = tracer.spans
    return result
