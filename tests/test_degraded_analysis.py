"""Fail-closed degraded-mode analysis and its CLI surface.

The verdict-level guarantee under test: whenever anything was degraded
the report can never ``pass`` — missing evidence is treated exactly
like unmonitored non-core flow (top taint), so a partial analysis
over-approximates, never under-approximates.
"""

import json

import pytest

from repro import AnalysisConfig, SafeFlow
from repro.cli import main as cli_main

GOOD_CALLER = """
double compute(double x);
void sendControl(double v);
int main(void)
{
    double output = compute(1.0);
    /***SafeFlow Annotation assert(safe(output)); /***/
    sendControl(output);
    return 0;
}
"""

BAD_UNIT = "double compute(double x) { return x + ; }\n"


def _degraded_config(**kwargs):
    return AnalysisConfig(cache_dir=None, recover_tiers=(), **kwargs)


class TestFailClosed:
    def test_call_into_degraded_unit_taints_assert(self, tmp_path):
        good = tmp_path / "good.c"
        bad = tmp_path / "bad.c"
        good.write_text(GOOD_CALLER)
        bad.write_text(BAD_UNIT)
        report = SafeFlow(_degraded_config()).analyze_files(
            [str(good), str(bad)], name="split")
        # the parse failure is recorded...
        assert len(report.degraded) == 1
        assert report.degraded[0].kind == "unit"
        # ...and the surviving unit still got real verdicts: the call
        # into the degraded function is top taint, so the assert fires
        assert len(report.errors) == 1
        assert "degraded:compute" in report.errors[0].message
        assert report.verdict == "fail"
        assert not report.passed

    def test_degraded_call_warning_has_provenance(self, tmp_path):
        good = tmp_path / "good.c"
        bad = tmp_path / "bad.c"
        good.write_text(GOOD_CALLER)
        bad.write_text(BAD_UNIT)
        report = SafeFlow(_degraded_config()).analyze_files(
            [str(good), str(bad)], name="split")
        messages = [w.message for w in report.warnings]
        assert any("call into degraded function 'compute'" in m
                   and "fail-closed" in m for m in messages)

    def test_degraded_function_body_fails_closed(self):
        # compute's body uses goto: the function is demoted, so its
        # result must be untrusted even though the unit parsed
        source = """
void sendControl(double v);
double compute(double x) { goto out; out: return x; }
int main(void)
{
    double output = compute(1.0);
    /***SafeFlow Annotation assert(safe(output)); /***/
    sendControl(output);
    return 0;
}
"""
        report = SafeFlow(_degraded_config()).analyze_source(
            source, filename="g.c", name="g")
        assert [d.kind for d in report.degraded] == ["function"]
        assert report.degraded[0].function == "compute"
        assert len(report.errors) == 1
        assert "degraded:compute" in report.errors[0].message

    def test_no_findings_still_never_passes(self):
        # degradation without any flow into an assert: verdict is
        # "degraded", and passed is False regardless
        source = "int broken( {\n"
        report = SafeFlow(_degraded_config()).analyze_source(
            source, filename="b.c", name="b")
        assert report.verdict == "degraded"
        assert not report.passed
        assert report.stats.degraded_units == 1


class TestVerdictPlumbing:
    def test_three_way_verdict(self, tmp_path):
        clean = SafeFlow(_degraded_config()).analyze_source(
            "int main(void) { return 0; }", filename="c.c", name="c")
        assert clean.verdict == "pass"
        assert clean.passed

    def test_render_mentions_degradation_only_when_present(self):
        clean = SafeFlow(_degraded_config()).analyze_source(
            "int main(void) { return 0; }", filename="c.c", name="c")
        assert "degraded" not in clean.render()
        broken = SafeFlow(_degraded_config()).analyze_source(
            "int broken( {\n", filename="b.c", name="b")
        rendered = broken.render()
        assert "degraded units     : 1 (fail-closed)" in rendered
        assert "degraded units (analyzed fail-closed):" in rendered

    def test_to_json_carries_verdict_and_units(self):
        report = SafeFlow(_degraded_config()).analyze_source(
            "int broken( {\n", filename="b.c", name="b")
        payload = report.to_json()
        assert payload["verdict"] == "degraded"
        assert payload["stats"]["degraded_units"] == 1
        assert payload["degraded"][0]["kind"] == "unit"

    def test_degraded_mode_is_render_invisible_on_clean_input(self):
        source = """
int helper(int x) { return x * 2; }
int main(void) { return helper(21); }
"""
        strict = SafeFlow(AnalysisConfig(cache_dir=None)).analyze_source(
            source, filename="s.c", name="s")
        degraded = SafeFlow(_degraded_config()).analyze_source(
            source, filename="s.c", name="s")
        assert strict.render(verbose=True) == degraded.render(verbose=True)


class TestCliDegraded:
    def test_syntax_error_is_structured_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text(BAD_UNIT)
        code = cli_main(["analyze", str(bad), "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2
        assert "safeflow: error:" in captured.err
        assert "parse error" in captured.err
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out

    def test_keep_going_degrades_instead(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        ok = tmp_path / "ok.c"
        bad.write_text(BAD_UNIT)
        ok.write_text("int main(void) { return 0; }\n")
        code = cli_main(["analyze", str(bad), str(ok),
                         "--keep-going", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 1  # fail-closed: degraded never exits 0
        assert "degraded units" in captured.out
        assert "Traceback" not in captured.out

    def test_keep_going_json_verdict(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text(BAD_UNIT)
        code = cli_main(["analyze", str(bad), "--keep-going",
                         "--no-cache", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["verdict"] == "degraded"
        assert payload["degraded"][0]["cause"].startswith("C parse error")

    def test_batch_keep_going_and_fail_fast_conflict(self, tmp_path):
        ok = tmp_path / "ok.c"
        ok.write_text("int main(void) { return 0; }\n")
        with pytest.raises(SystemExit):
            cli_main(["batch", str(ok), "--keep-going", "--fail-fast",
                      "--no-cache"])
