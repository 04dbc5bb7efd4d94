"""Functional tests of the analysis daemon: round-trips, warm cache
visibility, admission control, deadlines, cancellation, drain."""

import threading
import time

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import SYSTEM_KEYS, load_system
from repro.server import SafeFlowClient, SafeFlowServer, ServerError
from repro.server import pool as pool_mod
from repro.server import protocol

from tests.conftest import FIGURE2_SOURCE
from tests.perf.test_cache_correctness import SIMPLE

CLEAN = "int main(void) { return 0; }"
BROKEN = "int main(void) { return 0;"  # unbalanced brace


def start_server(tmp_path, **kwargs):
    kwargs.setdefault("config", AnalysisConfig(
        summary_mode=True, cache_dir=str(tmp_path / "cache")))
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("queue_size", 8)
    server = SafeFlowServer(port=0, **kwargs)
    server.start()
    return server


def client_for(server, **kwargs) -> SafeFlowClient:
    kwargs.setdefault("request_timeout", 60.0)
    return SafeFlowClient(port=server.address[1], **kwargs)


def _slow_execute(spec, config):
    """Deterministic stand-in for an expensive analysis."""
    time.sleep(0.6)
    return {
        "ok": True, "name": spec.get("name", "program"), "passed": True,
        "exit_code": 0, "counts": {}, "render": "slept",
        "report": {"stats": {"phase_timings": {"total": 0.6}}},
    }


@pytest.fixture
def slow_inline_server(tmp_path, monkeypatch):
    """workers=1, queue of 2, in-process execution, 0.6s per job —
    every admission/deadline/cancel/drain scenario is deterministic."""
    monkeypatch.setattr(pool_mod, "_execute_spec", _slow_execute)
    server = start_server(tmp_path, workers=1, queue_size=2,
                          use_processes=False)
    yield server
    server.stop()


def _submit_async(server, results, index, **analyze_kwargs):
    def run():
        with client_for(server) as client:
            try:
                results[index] = client.analyze(**analyze_kwargs)
            except ServerError as exc:
                results[index] = exc
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# ----------------------------------------------------------------------
# round-trips (acceptance: byte-identical to the cold CLI path)
# ----------------------------------------------------------------------

class TestRoundTrip:
    @pytest.fixture(scope="class")
    def corpus_server(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve-corpus")
        server = start_server(tmp)
        yield server
        server.stop()

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_corpus_byte_identical_to_cold_cli_path(self, corpus_server, key):
        system = load_system(key)
        files = [str(p) for p in system.core_files]
        cold = SafeFlow(AnalysisConfig(summary_mode=True)).analyze_files(
            files, name=key)
        with client_for(corpus_server) as client:
            result = client.analyze(files=files, name=key)
        assert result["render"] == cold.render()
        assert result["counts"] == cold.counts()
        assert result["passed"] == cold.passed
        assert result["exit_code"] == (0 if cold.passed else 1)

    def test_inline_source_matches_direct_analysis(self, corpus_server):
        cold = SafeFlow(AnalysisConfig(summary_mode=True)).analyze_source(
            FIGURE2_SOURCE, name="fig2")
        with client_for(corpus_server) as client:
            result = client.analyze(source=FIGURE2_SOURCE, name="fig2",
                                    verbose=True)
        assert result["render"] == cold.render(verbose=True)

    def test_warm_repeat_reports_cache_hits(self, corpus_server):
        system = load_system("ip")
        files = [str(p) for p in system.core_files]
        with client_for(corpus_server) as client:
            first = client.analyze(files=files, name="ip")
            warm = client.analyze(files=files, name="ip")
            metrics = client.metrics()
        assert warm["render"] == first["render"]
        assert metrics["cache"]["frontend_hits"] > 0
        assert metrics["analyses"]["completed"] >= 2
        assert metrics["latency"]["phases"]["frontend"]["count"] >= 2

    def test_config_override_round_trip(self, corpus_server):
        cold = SafeFlow(AnalysisConfig(
            summary_mode=True, unannotated_shm_is_core=False,
        )).analyze_source(SIMPLE, name="paranoid")
        with client_for(corpus_server) as client:
            result = client.analyze(
                source=SIMPLE, name="paranoid",
                config={"unannotated_shm_is_core": False},
            )
        assert result["render"] == cold.render()


# ----------------------------------------------------------------------
# the observability plane
# ----------------------------------------------------------------------

class TestHealthAndMetrics:
    def test_health_shape(self, tmp_path):
        server = start_server(tmp_path, workers=3)
        try:
            with client_for(server) as client:
                assert client.ping()
                health = client.health()
        finally:
            server.stop()
        assert health["status"] == "ok"
        assert health["protocol"] == protocol.PROTOCOL_VERSION
        assert health["workers"] == 3
        assert health["queue_capacity"] == 8
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        assert health["uptime_seconds"] >= 0
        assert health["cache_dir"].endswith("cache")

    def test_metrics_counts_requests_and_errors(self, tmp_path):
        server = start_server(tmp_path, use_processes=False)
        try:
            with client_for(server) as client:
                client.ping()
                with pytest.raises(ServerError):
                    client.call("no_such_method")
                metrics = client.metrics()
        finally:
            server.stop()
        assert metrics["requests_total"]["ping"] == 1
        assert metrics["errors_total"]["method_not_found"] == 1
        assert metrics["responses_total"]["error"] == 1


# ----------------------------------------------------------------------
# failures stay structured
# ----------------------------------------------------------------------

class TestErrors:
    @pytest.fixture
    def server(self, tmp_path):
        server = start_server(tmp_path, use_processes=False)
        yield server
        server.stop()

    def test_parse_failure_is_structured(self, server):
        with client_for(server) as client:
            with pytest.raises(ServerError) as exc:
                client.analyze(source=BROKEN, name="broken")
        assert exc.value.code == protocol.ANALYSIS_FAILED
        assert "ParseError" in exc.value.message
        assert "Traceback" not in exc.value.message

    def test_missing_file_is_structured(self, server):
        with client_for(server) as client:
            with pytest.raises(ServerError) as exc:
                client.analyze(files=["/nonexistent/prog.c"])
        assert exc.value.code == protocol.ANALYSIS_FAILED

    @pytest.mark.parametrize("params", [
        {},                                     # neither source nor files
        {"source": "x", "files": ["y.c"]},      # both
        {"files": []},                          # empty
        {"source": "x", "config": {"bogus": 1}},
        {"source": "x", "config": {"sparse_fixpoint": False}},
        {"source": "x", "deadline": -1},
        {"source": "x", "job_id": ""},
    ])
    def test_invalid_params(self, server, params):
        with client_for(server) as client:
            with pytest.raises(ServerError) as exc:
                client.call("analyze", params)
        assert exc.value.code == protocol.INVALID_PARAMS

    def test_sibling_requests_survive_a_failure(self, server):
        with client_for(server) as client:
            with pytest.raises(ServerError):
                client.analyze(source=BROKEN)
            ok = client.analyze(source=CLEAN, name="after")
        assert ok["passed"] is True


# ----------------------------------------------------------------------
# admission control, deadlines, cancellation
# ----------------------------------------------------------------------

class TestBackpressure:
    def test_queue_full_is_immediate(self, slow_inline_server):
        server = slow_inline_server
        results = {}
        threads = [_submit_async(server, results, i, source=CLEAN,
                                 name=f"q{i}")
                   for i in range(3)]  # 1 running + 2 queued = capacity
        assert _wait_until(
            lambda: server.pool.running_count() == 1
            and server.queue.depth() == 2)
        # under load one of the fillers may itself have been bounced
        # and retried (queue_full is retryable), so count rejections
        # relative to this snapshot, not from zero
        with client_for(server) as client:
            before = client.metrics()["analyses"]["queue_rejections"]
        # retries=0: a retryable queue_full would re-submit and
        # inflate the rejection counter below
        with client_for(server, retries=0) as client:
            with pytest.raises(ServerError) as exc:
                client.analyze(source=CLEAN, name="overflow")
        assert exc.value.code == protocol.QUEUE_FULL
        assert exc.value.retryable
        for thread in threads:
            thread.join(timeout=10)
        assert all(results[i]["render"] == "slept" for i in range(3))
        with client_for(server) as client:
            rejections = client.metrics()["analyses"]["queue_rejections"]
        assert rejections == before + 1

    def test_deadline_exceeded(self, slow_inline_server):
        with client_for(slow_inline_server) as client:
            with pytest.raises(ServerError) as exc:
                client.analyze(source=CLEAN, name="late", deadline=0.05)
        assert exc.value.code == protocol.DEADLINE_EXCEEDED
        with client_for(slow_inline_server) as client:
            metrics = client.metrics()
        assert metrics["analyses"]["deadline_exceeded"] == 1

    def test_cancel_queued_job_resolves_immediately(self, slow_inline_server):
        server = slow_inline_server
        results = {}
        _submit_async(server, results, 0, source=CLEAN, name="running")
        assert _wait_until(lambda: server.pool.running_count() == 1)
        _submit_async(server, results, 1, source=CLEAN, name="victim",
                      job_id="victim")
        assert _wait_until(lambda: server.queue.depth() == 1)
        started = time.monotonic()
        with client_for(server) as client:
            outcome = client.cancel("victim")
        assert outcome == {"job_id": "victim", "found": True,
                           "cancelled": True}
        assert _wait_until(lambda: 1 in results)
        # resolved long before the worker could have reached it
        assert time.monotonic() - started < 0.5
        assert isinstance(results[1], ServerError)
        assert results[1].code == protocol.CANCELLED
        assert _wait_until(lambda: 0 in results, timeout=10)
        assert results[0]["render"] == "slept"  # sibling undisturbed

    def test_cancel_unknown_job(self, slow_inline_server):
        with client_for(slow_inline_server) as client:
            outcome = client.cancel("never-submitted")
        assert outcome["found"] is False

    def test_duplicate_job_id_rejected(self, slow_inline_server):
        server = slow_inline_server
        results = {}
        _submit_async(server, results, 0, source=CLEAN, job_id="dup")
        assert _wait_until(lambda: server.pool.running_count() == 1)
        with client_for(server) as client:
            with pytest.raises(ServerError) as exc:
                client.analyze(source=CLEAN, job_id="dup")
        assert exc.value.code == protocol.INVALID_PARAMS


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------

class TestShutdown:
    def test_drain_completes_backlog_without_dropping_responses(
            self, slow_inline_server):
        server = slow_inline_server
        results = {}
        threads = [_submit_async(server, results, i, source=CLEAN,
                                 name=f"drain{i}")
                   for i in range(3)]  # 1 running + 2 queued
        assert _wait_until(
            lambda: server.pool.running_count() == 1
            and server.queue.depth() == 2)
        with client_for(server) as shutter:
            assert shutter.shutdown()["shutting_down"] is True
        for thread in threads:
            thread.join(timeout=15)
        # every admitted request got its real result, none were dropped
        assert sorted(results) == [0, 1, 2]
        assert all(results[i]["render"] == "slept" for i in range(3))
        assert server.wait_stopped(timeout=15)

    def test_new_requests_rejected_while_draining(self, slow_inline_server):
        server = slow_inline_server
        results = {}
        _submit_async(server, results, 0, source=CLEAN, name="inflight")
        assert _wait_until(lambda: server.pool.running_count() == 1)
        server._draining = True  # as the shutdown RPC would set it
        with client_for(server) as client:
            with pytest.raises(ServerError) as exc:
                client.analyze(source=CLEAN, name="rejected")
        assert exc.value.code == protocol.SHUTTING_DOWN

    def test_health_reports_draining(self, slow_inline_server):
        server = slow_inline_server
        server._draining = True
        with client_for(server) as client:
            assert client.health()["status"] == "draining"
