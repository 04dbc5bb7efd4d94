"""The shared latency helpers (percentiles, rolling quantiles) and the
amortized gc-pause exit policy behind the serving warm path."""

import gc
import threading

import pytest

from repro.perf import gcpause
from repro.perf.gcpause import gc_paused
from repro.perf.latency import LatencyRecorder, RollingLatency, percentile


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 90) == 9.0
        assert percentile(values, 99) == 10.0
        assert percentile(values, 100) == 10.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_empty(self):
        assert percentile([], 50) is None


class TestLatencyRecorder:
    def test_summary_shape_and_ordering(self):
        rec = LatencyRecorder()
        for ms in range(1, 101):
            rec.record(ms / 1000.0)
        summary = rec.summary()
        assert summary["count"] == 100
        assert summary["min_s"] == pytest.approx(0.001)
        assert summary["max_s"] == pytest.approx(0.100)
        assert (summary["min_s"] <= summary["p50_s"] <= summary["p90_s"]
                <= summary["p99_s"] <= summary["max_s"])

    def test_empty_summary(self):
        assert LatencyRecorder().summary()["count"] == 0


class TestRollingLatency:
    def test_window_bounds_memory(self):
        rolling = RollingLatency(window=16)
        for i in range(1000):
            rolling.observe(float(i))
        quantiles = rolling.quantiles()
        assert quantiles["window"] == 16   # occupancy, bounded
        assert quantiles["count"] == 1000  # all-time observations
        # only the newest window survives
        assert quantiles["p50_s"] >= 984.0

    def test_thread_safety_smoke(self):
        rolling = RollingLatency(window=64)
        threads = [
            threading.Thread(
                target=lambda: [rolling.observe(0.001) for _ in range(500)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        quantiles = rolling.quantiles()
        assert quantiles["count"] == 2000
        assert quantiles["window"] == 64


class TestAmortizedGcPause:
    @pytest.fixture(autouse=True)
    def reset_full_collect_stamp(self):
        before = gcpause._LAST_FULL
        yield
        gcpause._LAST_FULL = before

    def test_gc_disabled_inside_and_restored(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_first_exit_collects_fully(self, monkeypatch):
        gcpause._LAST_FULL = 0.0
        collected = []
        real_collect = gc.collect
        monkeypatch.setattr(
            gc, "collect",
            lambda gen=2: collected.append(gen) or real_collect(gen))
        with gc_paused():
            pass
        assert collected == [2]

    def test_rapid_exits_amortize_to_gen0(self, monkeypatch):
        collected = []
        real_collect = gc.collect
        monkeypatch.setattr(
            gc, "collect",
            lambda gen=2: collected.append(gen) or real_collect(gen))
        with gc_paused():
            pass
        # within FULL_COLLECT_INTERVAL, further exits collect only the
        # young generation — the serving warm path's 60%-of-latency fix
        with gc_paused():
            pass
        with gc_paused():
            pass
        assert collected[1:] == [0, 0]

    def test_interval_elapse_triggers_full_collect(self, monkeypatch):
        collected = []
        real_collect = gc.collect
        monkeypatch.setattr(
            gc, "collect",
            lambda gen=2: collected.append(gen) or real_collect(gen))
        with gc_paused():
            pass
        gcpause._LAST_FULL -= gcpause.FULL_COLLECT_INTERVAL + 1
        with gc_paused():
            pass
        assert collected[-1] == 2

    def test_reentrant_nesting_collects_once(self, monkeypatch):
        collected = []
        monkeypatch.setattr(gc, "collect",
                            lambda gen=2: collected.append(gen) or 0)
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            # inner exit must not collect; the outer one does
            assert collected == []
        assert len(collected) == 1

    def test_inactive_is_a_no_op(self):
        with gc_paused(active=False):
            assert gc.isenabled()
