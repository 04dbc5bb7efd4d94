"""Unit tests of the service wire protocol and the metrics plane."""

import json

import pytest

from repro.server import metrics as metrics_mod
from repro.server import protocol
from repro.server.metrics import LatencyHistogram, ServerMetrics


class TestProtocol:
    def test_encode_is_one_line(self):
        blob = protocol.encode({"id": 1, "result": {"text": "a\nb\nc"}})
        assert blob.endswith(b"\n")
        assert blob.count(b"\n") == 1  # newlines stay escaped inside JSON

    def test_request_round_trip(self):
        line = protocol.encode(protocol.request_payload(
            "analyze", {"source": "int main(void){return 0;}"}, 7))
        request = protocol.decode_request(line)
        assert request.method == "analyze"
        assert request.id == 7
        assert "source" in request.params

    def test_params_default_to_empty(self):
        request = protocol.decode_request(b'{"id": 1, "method": "ping"}')
        assert request.params == {}

    @pytest.mark.parametrize("line,code", [
        (b"{not json", protocol.PARSE_ERROR),
        (b'"just a string"', protocol.INVALID_REQUEST),
        (b'{"id": 1}', protocol.INVALID_REQUEST),
        (b'{"id": 1, "method": ""}', protocol.INVALID_REQUEST),
        (b'{"id": 1, "method": "x", "params": [1]}',
         protocol.INVALID_REQUEST),
        (b'{"id": [1], "method": "x"}', protocol.INVALID_REQUEST),
    ])
    def test_bad_requests(self, line, code):
        with pytest.raises(protocol.ProtocolError) as exc:
            protocol.decode_request(line)
        assert exc.value.code == code

    def test_error_response_carries_stable_name(self):
        response = protocol.error_response(3, protocol.QUEUE_FULL, "full")
        assert response["error"]["name"] == "queue_full"
        assert response["error"]["code"] == protocol.QUEUE_FULL
        # every defined code has a name for the metrics plane
        for code in protocol.ERROR_NAMES:
            assert protocol.error_name(code) == protocol.ERROR_NAMES[code]

    def test_ok_response_shape(self):
        response = protocol.ok_response("abc", {"x": 1})
        assert response == {"id": "abc", "result": {"x": 1}}


class TestLatencyHistogram:
    def test_buckets_are_cumulative(self):
        hist = LatencyHistogram(buckets=(0.01, 0.1, 1.0))
        for seconds in (0.005, 0.05, 0.05, 0.5, 5.0):
            hist.observe(seconds)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.005
        assert snap["max"] == 5.0
        assert snap["buckets_le"] == [
            [0.01, 1], [0.1, 3], [1.0, 4], ["+Inf", 5],
        ]

    def test_sum_accumulates(self):
        hist = LatencyHistogram()
        hist.observe(0.25)
        hist.observe(0.75)
        assert hist.snapshot()["sum"] == pytest.approx(1.0)


class TestServerMetrics:
    def test_snapshot_is_json_serializable(self):
        m = ServerMetrics()
        m.count_request("analyze")
        m.count_response(True, seconds=0.01)
        m.count_response(False, "queue_full", seconds=0.001)
        m.observe_analysis({
            "phase_timings": {"frontend": 0.02, "valueflow": 0.01},
            "frontend_cache_hits": 1, "frontend_cache_misses": 2,
            "verdict_replayed": True,
        })
        snap = m.snapshot()
        json.dumps(snap)  # must never contain non-JSON values
        assert snap["requests_total"] == {"analyze": 1}
        assert snap["responses_total"] == {"ok": 1, "error": 1}
        assert snap["errors_total"] == {"queue_full": 1}
        assert snap["analyses"]["completed"] == 1
        assert snap["cache"] == {
            "frontend_hits": 1, "frontend_misses": 2,
            "integrity_evictions": 0, "verdict_replays": 1,
        }
        assert "incremental" not in snap
        assert set(snap["latency"]["phases"]) == {"frontend", "valueflow"}
        assert snap["latency"]["request"]["count"] == 2

    def test_gauges_read_live_values(self):
        m = ServerMetrics()
        depth = [4]
        m.register_gauge("queue_depth", lambda: depth[0])
        assert m.snapshot()["gauges"]["queue_depth"] == 4
        depth[0] = 0
        assert m.snapshot()["gauges"]["queue_depth"] == 0

    def test_broken_gauge_does_not_break_snapshot(self):
        m = ServerMetrics()
        m.register_gauge("bad", lambda: 1 / 0)
        assert m.snapshot()["gauges"]["bad"] == -1

    def test_uptime_grows(self, monkeypatch):
        m = ServerMetrics()
        base = metrics_mod.time.monotonic()
        monkeypatch.setattr(metrics_mod.time, "monotonic",
                            lambda: base + 12.5)
        assert m.uptime_seconds() >= 12.5
