"""Degraded-verdict visibility in the service plane: metrics fold,
health counters, and the client-side warning."""

import logging

import pytest

from repro.core.config import AnalysisConfig
from repro.server import SafeFlowClient, SafeFlowServer
from repro.server.metrics import ServerMetrics

BROKEN = "int broken( {\n"
CLEAN = "int main(void) { return 0; }"


class TestMetricsFold:
    def test_observe_analysis_counts_degraded_units(self):
        metrics = ServerMetrics()
        metrics.observe_analysis({"degraded_units": 3})
        metrics.observe_analysis({"degraded_units": 0})
        metrics.observe_analysis({"degraded_units": 2})
        snapshot = metrics.snapshot()
        assert snapshot["degraded"] == {"analyses": 2, "units": 5}
        assert metrics.degraded_counts() == {"analyses": 2, "units": 5}

    def test_clean_analyses_leave_zeroes(self):
        metrics = ServerMetrics()
        metrics.observe_analysis({})
        assert metrics.snapshot()["degraded"] == {"analyses": 0, "units": 0}


class TestClientWarning:
    def _client_with_response(self, monkeypatch, payload):
        client = SafeFlowClient(port=1)
        monkeypatch.setattr(SafeFlowClient, "call",
                            lambda self, *a, **k: payload)
        return client

    def test_degraded_verdict_logs_warning(self, monkeypatch, caplog):
        payload = {"report": {"verdict": "degraded",
                              "degraded": [{"kind": "unit"}]}}
        client = self._client_with_response(monkeypatch, payload)
        with caplog.at_level(logging.WARNING, logger="repro.server.client"):
            result = client.analyze(source=BROKEN, name="broken")
        assert result is payload
        assert any("DEGRADED" in record.message
                   and "fail-closed" in record.message
                   for record in caplog.records)

    def test_clean_verdict_is_silent(self, monkeypatch, caplog):
        payload = {"report": {"verdict": "pass", "degraded": []}}
        client = self._client_with_response(monkeypatch, payload)
        with caplog.at_level(logging.WARNING, logger="repro.server.client"):
            client.analyze(source=CLEAN, name="clean")
        assert not caplog.records


class TestDaemonDegraded:
    def test_health_and_metrics_expose_degraded_counts(self, tmp_path):
        config = AnalysisConfig(cache_dir=None, recover_tiers=())
        server = SafeFlowServer(config=config, port=0, workers=1,
                                queue_size=4)
        server.start()
        try:
            with SafeFlowClient(port=server.address[1],
                                request_timeout=60.0) as client:
                health = client.health()
                assert health["degraded_units"] == 0
                result = client.analyze(source=BROKEN, name="broken")
                assert result["report"]["verdict"] == "degraded"
                assert "degraded units" in result["render"]
                health = client.health()
                assert health["degraded_analyses"] == 1
                assert health["degraded_units"] >= 1
                degraded = client.metrics()["degraded"]
                assert degraded["analyses"] == 1
                assert degraded["units"] == health["degraded_units"]
        finally:
            server.stop()
