"""The chaos harness's own contract: a schedule run produces a
structured outcome whose byte-identity assertions actually executed.

Only the cheapest schedule runs here — the full matrix is the CI
chaos job (``safeflow chaos --smoke``) and ``safeflow chaos``."""

import os

from repro import AnalysisConfig, SafeFlow
from repro.resilience import faults
from repro.resilience.chaos import SCHEDULES, SMOKE_SCHEDULES, run_chaos
from tests.conftest import FIGURE2_SOURCE


def test_smoke_schedules_are_a_subset():
    assert set(SMOKE_SCHEDULES) <= set(SCHEDULES)


def test_kill_resume_schedule_is_registered():
    # the durability schedule must run in CI smoke: it is the only
    # coverage of a SIGKILLed batch *driver* (not worker) resuming
    assert "kill-resume" in SCHEDULES
    assert "kill-resume" in SMOKE_SCHEDULES


def test_smoke_damages_every_on_disk_store(tmp_path):
    # IR cache (its verdict and program records) and segment log: each
    # of the stores written through the one codec is damaged in CI
    # smoke, and kill-resume kills a batch between verdict records
    for schedule in ("corrupt-ir", "watch-kill", "kill-resume"):
        assert schedule in SMOKE_SCHEDULES
    # corrupt-ir damages both record kinds of one program
    cache_dir = str(tmp_path)
    SafeFlow(AnalysisConfig(cache_dir=cache_dir)).analyze_source(
        FIGURE2_SOURCE, "f.c")
    verdict = faults.corrupt_ir_entry(cache_dir)
    program = faults.truncate_ir_entry(cache_dir)
    assert verdict.endswith(".verdict") and program.endswith(".pkl")
    key = os.path.basename(program)[:-len(".pkl")]
    assert os.path.basename(verdict).startswith(key + ".")


def test_corrupt_ir_schedule_passes_and_reports():
    outcome = run_chaos(schedules=["corrupt-ir"], jobs=2, workers=1)
    assert outcome.ok
    assert [s.name for s in outcome.schedules] == ["corrupt-ir"]
    report = outcome.schedules[0]
    assert report.passed and not report.skipped
    assert any("eviction" in note for note in report.notes)
    assert "corrupted one verdict record, truncated its program record" \
        in report.notes
    payload = outcome.to_json()
    assert payload["ok"] is True
    assert payload["schedules"][0]["name"] == "corrupt-ir"
    rendered = outcome.render()
    assert "corrupt-ir" in rendered and "PASS" in rendered


def test_unknown_schedule_is_rejected():
    import pytest

    with pytest.raises(ValueError):
        run_chaos(schedules=["no-such-schedule"])


def test_kill_resume_schedule_passes_and_reports():
    outcome = run_chaos(schedules=["kill-resume"], jobs=3, workers=1)
    assert outcome.ok, outcome.render()
    (report,) = outcome.schedules
    assert any("re-run replayed" in note for note in report.notes)
