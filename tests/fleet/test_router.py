"""Router correctness with embedded (in-process) shards: byte-identity
against the direct analysis path, the unchanged-client contract, the
fleet RPC surface, and work stealing with per-shard attribution."""

import threading

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.fleet import FleetConfig, FleetRouter
from repro.server import SafeFlowClient, ServerError

SOURCES = {
    "clean": "int main(void) { return 0; }",
    "guarded": """
int source(void);
void sink(int x);
int main(void) {
    int v = source();
    if (v > 0) sink(v);
    return 0;
}
""",
    "unguarded": """
int source(void);
void sink(int x);
int main(void) {
    int v = source();
    sink(v);
    return 0;
}
""",
}


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    router = FleetRouter(FleetConfig(
        shards=4, port=0, cache_root=str(root),
        backend="inprocess", use_processes=False,
        steal_threshold=1, steal_margin=1,
        health_interval=0.2,
    ))
    host, port = router.start()
    yield router, host, port
    router.stop()


def fleet_client(fleet, **kwargs):
    _router, host, port = fleet
    kwargs.setdefault("request_timeout", 60.0)
    return SafeFlowClient(host=host, port=port, **kwargs)


class TestByteIdentity:
    @pytest.mark.parametrize("key", sorted(SOURCES))
    def test_router_matches_direct_analysis(self, fleet, key):
        direct = SafeFlow(AnalysisConfig()).analyze_source(
            SOURCES[key], filename=f"{key}.c")
        with fleet_client(fleet) as client:
            via_fleet = client.analyze(
                source=SOURCES[key], filename=f"{key}.c")
        assert via_fleet["render"] == direct.render()
        assert via_fleet["passed"] == direct.passed
        assert via_fleet["exit_code"] == (0 if direct.passed else 1)

    def test_repeats_are_identical(self, fleet):
        with fleet_client(fleet) as client:
            first = client.analyze(source=SOURCES["guarded"], filename="g.c")
            for _ in range(5):
                again = client.analyze(
                    source=SOURCES["guarded"], filename="g.c")
                assert again["render"] == first["render"]
                assert again["counts"] == first["counts"]


class TestSharedStore:
    def test_a_primed_source_is_a_store_hit_on_its_non_home_shard(
            self, fleet):
        router, _host, _port = fleet
        params = {"source": SOURCES["unguarded"], "filename": "away.c"}
        before = {sid: shard.routed for sid, shard in router.shards.items()}
        with fleet_client(fleet) as client:
            primed = client.analyze(**params)
        home = next(sid for sid, shard in router.shards.items()
                    if shard.routed != before[sid])
        away = next(sid for sid in sorted(router.shards) if sid != home)
        host, port = router.shards[away].backend.address
        with SafeFlowClient(host=host, port=port,
                            request_timeout=60.0) as client:
            response = client.analyze(**params)
        direct = SafeFlow(AnalysisConfig()).analyze_source(
            SOURCES["unguarded"], filename="away.c")
        assert response["report"]["stats"]["frontend_cache_hits"] == 1
        # the primed verdict record answers: no phase runs there
        assert response["report"]["stats"]["verdict_replayed"] is True
        assert response["render"] == primed["render"] == direct.render()


class TestClientContract:
    def test_one_connection_many_requests(self, fleet):
        """SafeFlowClient needs no changes to speak to the fleet, and
        its persistent connection is reused across calls."""
        with fleet_client(fleet) as client:
            for _ in range(10):
                client.analyze(source=SOURCES["clean"], filename="c.c")
            assert client.stats["connects"] == 1
            assert client.stats["reconnects"] == 0
            assert client.stats["requests"] == 10
            assert client.stats["responses"] == 10

    def test_errors_are_structured(self, fleet):
        with fleet_client(fleet) as client:
            with pytest.raises(ServerError) as err:
                client.call("no_such_method")
            assert err.value.code == -32601  # METHOD_NOT_FOUND


class TestFleetRpcSurface:
    def test_ping_identifies_the_router(self, fleet):
        with fleet_client(fleet) as client:
            pong = client.call("ping")
        assert pong["pong"] is True
        assert pong["role"] == "fleet"

    def test_health_aggregates_shards(self, fleet):
        with fleet_client(fleet) as client:
            health = client.call("health")
        assert health["status"] == "ok"
        assert health["shards_total"] == 4
        assert health["shards_healthy"] == 4
        assert len(health["shards"]) == 4
        for shard in health["shards"]:
            assert shard["healthy"] is True
            assert shard["draining"] is False
        # the aggregate latency plane mirrors the daemon health plane
        assert "latency_p50_s" in health and "latency_p99_s" in health
        assert "queue_depth" in health and "inflight" in health

    def test_metrics_counters_and_shard_attribution(self, fleet):
        with fleet_client(fleet) as client:
            client.analyze(source=SOURCES["clean"], filename="c.c")
            metrics = client.call("metrics")
        router = metrics["router"]
        assert router["requests"] >= 1
        assert router["responses"] >= 1
        assert len(metrics["shards"]) == 4
        assert sum(s["routed"] for s in metrics["shards"]) >= 1
        assert "latency" in metrics

    def test_rolling_reload_returns_every_shard_healthy(self, fleet):
        with fleet_client(fleet) as client:
            before = client.analyze(source=SOURCES["guarded"], filename="g.c")
            result = client.call("fleet_reload", timeout=120.0)
            after = client.analyze(source=SOURCES["guarded"], filename="g.c")
        assert result["reloaded"] == [0, 1, 2, 3]
        assert result["healthy"] == [0, 1, 2, 3]
        assert after["render"] == before["render"]


class TestWorkStealing:
    def test_hot_key_overflows_to_cold_shards(self, fleet):
        """One hot routing key saturates its home shard; with
        steal_threshold=1/margin=1 the overflow lands on cold shards
        and the books balance: every steal is attributed once as
        steals_out (home) and once as steals_in (thief)."""
        router, _host, _port = fleet
        with fleet_client(fleet) as probe:
            base = probe.call("metrics")["router"]["steals"]

        baseline = {}
        errors = []

        def hammer(wid, rounds=12):
            try:
                with fleet_client(fleet) as client:
                    for _ in range(rounds):
                        r = client.analyze(
                            source=SOURCES["unguarded"], filename="hot.c")
                        key = (r["passed"], r["render"])
                        baseline.setdefault("verdict", key)
                        if key != baseline["verdict"]:
                            errors.append((wid, key))
            except Exception as exc:  # pragma: no cover
                errors.append((wid, repr(exc)))

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        with fleet_client(fleet) as probe:
            metrics = probe.call("metrics")
        stolen = metrics["router"]["steals"] - base
        assert stolen >= 1, "expected the hot key to overflow"
        shards = metrics["shards"]
        assert (sum(s["steals_in"] for s in shards)
                == sum(s["steals_out"] for s in shards)
                == metrics["router"]["steals"])
        # stealing spread the hot key beyond its home shard
        assert sum(1 for s in shards if s["routed"] > 0) >= 2
