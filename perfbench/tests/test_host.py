"""Host-speed normalisation and fixed-work deck runs."""

import pytest

import common
from common import HostProbe, Pass, run_decks


def test_scale_is_reference_over_mean_probe():
    host = HostProbe()
    assert host.scale == 1.0  # no probes: timings stay raw
    host.samples = [0.004, 0.006, 0.020]
    assert host.scale == pytest.approx(common.REFERENCE_S / 0.010)


def test_probe_time_is_kept_out_of_the_pass_wall(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(common.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(common, "_reference_work",
                        lambda: clock.__setitem__(0, clock[0] + 0.5))

    def deck(tracer, into: Pass) -> None:
        into.host.probe()  # 0.5 s of reference work
        clock[0] += 3.0  # the operation
        into.latencies.append(3.0)

    plain, traced = run_decks(2, deck)
    assert plain.wall == pytest.approx(6.0)
    assert plain.host.seconds == pytest.approx(1.0)
    assert plain.ops_s == pytest.approx(2 / 6.0)
    assert not traced.latencies


def test_traced_runs_alternate_an_even_number_of_decks():
    class FakeTracer:
        def restore(self):
            pass

    seen = []
    plain, traced = run_decks(
        3, lambda tracer, into: seen.append(tracer is not None),
        FakeTracer(), lambda tracer: None)
    assert seen == [False, True, False, True]
