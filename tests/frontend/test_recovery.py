"""The frontend recovery ladder (repro.frontend.recovery).

Covers the tier rewrites (line-count preservation is load-bearing:
the preprocessor line map must stay valid), the ladder driver's
ordering and provenance, the fail-closed discipline (a salvaged unit
can only ever degrade a verdict), cache/fingerprint hygiene, and the
crash-is-tier-failure contract under injected faults.
"""

import json

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.degrade import KIND_FUNCTION, KIND_RECOVERED, KIND_UNIT
from repro.errors import ParseError, PreprocessorError
from repro.frontend.driver import load_source, recover_token
from repro.frontend.recovery import (
    DEFAULT_TIERS,
    RECOVERY_FORMAT_VERSION,
    TIER_ORDER,
    cleanup_source,
    frontend_unit,
    gnu_strategy,
    normalize_gnu,
    normalize_tiers,
    recovery_fingerprint,
)
from repro.perf.fingerprint import config_fingerprint


GNU_SOURCE = """
int __attribute__((noinline)) twice(int x) { return x + x; }
static __inline__ int helper(int a) { return a - 1; }
int use(void) { return twice(helper(2)); }
"""

STDINT_SOURCE = """
#include <stdint.h>

uint16_t level;

uint16_t bump(uint16_t v)
{
    if (v < UINT16_MAX) {
        return (uint16_t) (v + 1);
    }
    return v;
}
"""

BROKEN_DEF_SOURCE = """
int good(int a) { return a + 1; }

int broken(int a)
{
    return a @@ 2;
}

int also_good(int a) { return good(a) - 1; }
"""

HOPELESS_SOURCE = "int f(void) {{ %% \"unterminated\n"


# ----------------------------------------------------------------------
# tier specs and fingerprints
# ----------------------------------------------------------------------

class TestTierSpecs:
    def test_all_spec(self):
        assert normalize_tiers("all") == DEFAULT_TIERS

    def test_comma_spec_canonical_order(self):
        # ladder order is fixed; the spec's order does not matter
        assert normalize_tiers("salvage,gnu") == ("gnu", "salvage")

    def test_iterable_spec(self):
        assert normalize_tiers(["prelude"]) == ("prelude",)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            normalize_tiers("gnu,frobnicate")

    def test_strict_not_a_tier(self):
        with pytest.raises(ValueError):
            normalize_tiers("strict")

    def test_fingerprint_empty_without_tiers(self):
        assert recovery_fingerprint(()) == ""

    def test_fingerprint_components(self):
        fp = recovery_fingerprint(DEFAULT_TIERS)
        assert fp.startswith(f"v{RECOVERY_FORMAT_VERSION}:")
        assert ",".join(TIER_ORDER) in fp
        assert f"gnu={gnu_strategy()}" in fp

    def test_fingerprint_sensitive_to_tier_set(self):
        assert (recovery_fingerprint(("gnu",))
                != recovery_fingerprint(("gnu", "salvage")))

    def test_config_fingerprint_folds_recovery(self):
        base = AnalysisConfig()
        recovering = AnalysisConfig(recover_tiers=DEFAULT_TIERS)
        assert config_fingerprint(base) != config_fingerprint(recovering)

    def test_recover_token_plain_bool_without_tiers(self):
        # seed cache keys must not move when the ladder is off
        assert recover_token(None) is False
        assert recover_token(()) is True

    def test_recover_token_with_tiers(self):
        token = recover_token(DEFAULT_TIERS)
        assert isinstance(token, str)
        assert recovery_fingerprint(DEFAULT_TIERS) in token


# ----------------------------------------------------------------------
# tier rewrites: line-count preservation is the contract
# ----------------------------------------------------------------------

class TestNormalizeGnu:
    def test_attribute_stripped_line_preserving(self):
        text = "int __attribute__((aligned(16))) x;\nint y;\n"
        new, edits = normalize_gnu(text)
        assert "__attribute__" not in new
        assert new.count("\n") == text.count("\n")
        assert edits

    def test_multiline_attribute(self):
        text = "int __attribute__((aligned(16),\n  packed)) x;\nint y;\n"
        new, edits = normalize_gnu(text)
        assert "__attribute__" not in new
        assert new.count("\n") == text.count("\n")

    def test_inline_asm_blanked(self):
        text = 'void f(void) {\n  asm volatile("dmb" ::: "memory");\n}\n'
        new, edits = normalize_gnu(text)
        assert "asm" not in new
        assert new.count("\n") == text.count("\n")

    def test_clean_source_untouched(self):
        text = "int f(int a) { return a; }\n"
        new, edits = normalize_gnu(text)
        assert new == text
        assert edits == []

    def test_string_literals_never_rewritten(self):
        text = 'char *s = "__attribute__((x)) typeof";\n'
        new, _ = normalize_gnu(text)
        assert '"__attribute__((x)) typeof"' in new


class TestCleanupSource:
    def test_unknown_directive_blanked(self):
        text = "#region x\nint a;\n#endregion\n"
        new, edits = cleanup_source(text)
        assert "#region" not in new and "#endregion" not in new
        assert "int a;" in new
        assert new.count("\n") == text.count("\n")
        assert len(edits) == 2

    def test_kept_directives_survive(self):
        text = "#define N 4\n#include <stdint.h>\n#pragma pack\nint a;\n"
        new, edits = cleanup_source(text)
        assert new == text
        assert edits == []

    def test_nonascii_spaced_out(self):
        text = "int a;\n"
        new, edits = cleanup_source(text)
        assert new == "int a;\n"
        assert edits

    def test_crlf_normalized(self):
        new, edits = cleanup_source("int a;\r\nint b;\r\n")
        assert "\r" not in new
        assert new.count("\n") == 2

    def test_annotation_comments_untouched(self):
        text = ("/***SafeFlow Annotation\n"
                "#warning not a directive, inside a comment\n"
                "assume(noncore(p)) /***/\nint a;\n")
        new, edits = cleanup_source(text)
        assert "#warning not a directive" in new


# ----------------------------------------------------------------------
# the ladder driver
# ----------------------------------------------------------------------

class TestLadder:
    def test_strict_clean_stops_at_strict(self):
        r = frontend_unit("int f(void) { return 1; }\n", "ok.c",
                          recover_tiers=DEFAULT_TIERS)
        assert r.tier == "strict"
        assert r.degraded == []
        assert r.attempts == {"strict": 1}
        assert r.successes == {"strict": 1}

    def test_gnu_tier_salvages_and_records_provenance(self):
        r = frontend_unit(GNU_SOURCE, "gnu.c",
                          recover_tiers=DEFAULT_TIERS)
        assert r.tier == "gnu"
        assert r.unit is not None
        (rec,) = [u for u in r.degraded if u.kind == KIND_RECOVERED]
        assert rec.tier == "gnu"
        assert rec.edits  # the exact rewrites are audited
        assert "strict front end failed" in rec.cause
        assert r.attempts == {"strict": 1, "gnu": 1}
        assert r.successes == {"gnu": 1}

    def test_prelude_tier_resolves_stdint(self):
        r = frontend_unit(STDINT_SOURCE, "adc.c",
                          recover_tiers=DEFAULT_TIERS)
        assert r.tier == "prelude"
        assert r.attempts["gnu"] == 1 and "gnu" not in r.successes

    def test_tier_subset_respected(self):
        # without the prelude tier a stdint unit cannot be salvaged by
        # gnu alone; it must fall through to the enabled later tiers
        r = frontend_unit(STDINT_SOURCE, "adc.c",
                          recover_tiers=("gnu", "cleanup"))
        assert r.tier != "prelude"
        assert "prelude" not in r.attempts

    def test_salvage_drops_only_offending_definition(self):
        r = frontend_unit(BROKEN_DEF_SOURCE, "mix.c",
                          recover_tiers=DEFAULT_TIERS)
        assert r.tier == "salvage"
        dropped = [u for u in r.degraded if u.kind == KIND_FUNCTION]
        assert [u.function for u in dropped] == ["broken"]
        defs = [ext.decl.name for ext in r.unit.ast.ext
                if ext.__class__.__name__ == "FuncDef"]
        assert "good" in defs and "also_good" in defs
        assert "broken" not in defs

    def test_salvage_drops_the_definition_of_a_line_less_error(self):
        # "Invalid expression" names no line: the salvage tier takes it
        # from the token the parser stopped at
        source = ("int a(int x) { return x; }\n"
                  "int b(void) {\n  int x = ;\n  return x;\n}\n"
                  "int main(void) { return a(1); }\n")
        r = frontend_unit(source, "three.c", recover_tiers=DEFAULT_TIERS)
        assert r.tier == "salvage"
        assert [u.function for u in r.degraded
                if u.kind == KIND_FUNCTION] == ["b"]
        report = SafeFlow(AnalysisConfig(
            recover_tiers=DEFAULT_TIERS)).analyze_source(source, "three.c")
        assert report.stats.functions == 2

    def test_salvage_location_is_line_accurate(self):
        (dropped,) = [u for u in frontend_unit(
            BROKEN_DEF_SOURCE, "mix.c",
            recover_tiers=DEFAULT_TIERS).degraded if u.kind == KIND_FUNCTION]
        want = BROKEN_DEF_SOURCE.split("\n").index("int broken(int a)") + 1
        assert dropped.location.line == want

    def test_all_tiers_fail_lost_unit(self):
        r = frontend_unit(HOPELESS_SOURCE, "blob.c",
                          recover_tiers=DEFAULT_TIERS)
        assert r.unit is None
        assert r.tier is None
        assert [u.kind for u in r.degraded] == [KIND_UNIT]
        assert set(r.attempts) == {"strict", *TIER_ORDER}
        assert r.successes == {}

    def test_all_tiers_fail_without_recover_raises(self):
        with pytest.raises((ParseError, PreprocessorError)):
            frontend_unit(HOPELESS_SOURCE, "blob.c", recover_tiers=None)

    def test_no_tiers_is_historical_behavior(self):
        with pytest.raises((ParseError, PreprocessorError)):
            frontend_unit(GNU_SOURCE, "gnu.c", recover_tiers=None)
        r = frontend_unit(GNU_SOURCE, "gnu.c", recover_tiers=())
        assert r.unit is None
        assert r.attempts == {}  # counters only exist with the ladder


# ----------------------------------------------------------------------
# coordinate translation with grown preludes (satellite regression)
# ----------------------------------------------------------------------

class TestCoordinates:
    def test_prelude_growth_keeps_lines_accurate(self):
        # the prelude tier injects fake headers and compat typedefs
        # before the unit; every function's recorded start must still
        # point at the original source line
        program = load_source(STDINT_SOURCE, filename="adc.c",
                              recover_tiers=DEFAULT_TIERS)
        by_name = {u.function: u for u in program.degraded
                   if u.kind == KIND_FUNCTION}
        want = STDINT_SOURCE.split("\n").index(
            "uint16_t bump(uint16_t v)") + 1
        assert by_name["bump"].location.line == want

    def test_smeared_function_location_line_accurate(self):
        program = load_source(GNU_SOURCE, filename="gnu.c",
                              recover_tiers=DEFAULT_TIERS)
        by_name = {u.function: u for u in program.degraded
                   if u.kind == KIND_FUNCTION}
        want = GNU_SOURCE.split("\n").index(
            "int use(void) { return twice(helper(2)); }") + 1
        assert by_name["use"].location.line == want


# ----------------------------------------------------------------------
# fail-closed discipline through the full pipeline
# ----------------------------------------------------------------------

class TestFailClosed:
    def test_recovered_unit_never_passes(self):
        config = AnalysisConfig(recover_tiers=DEFAULT_TIERS)
        report = SafeFlow(config).analyze_source(GNU_SOURCE, name="gnu")
        assert report.verdict == "degraded"
        assert not report.passed
        assert report.stats.recovered_units == 1

    def test_every_function_of_recovered_unit_degraded(self):
        program = load_source(GNU_SOURCE, filename="gnu.c",
                              recover_tiers=DEFAULT_TIERS)
        smeared = {u.function for u in program.degraded
                   if u.kind == KIND_FUNCTION}
        assert smeared == {"twice", "helper", "use"}

    def test_strict_clean_report_byte_identical_with_ladder(self):
        clean = "int f(int a) { return a + 1; }\n"
        strict = SafeFlow(AnalysisConfig()).analyze_source(clean, name="p")
        ladder = SafeFlow(AnalysisConfig(
            recover_tiers=DEFAULT_TIERS)).analyze_source(clean, name="p")
        assert ladder.render() == strict.render()
        assert ladder.verdict == strict.verdict == "pass"

    def test_recovery_counters_reach_stats(self):
        config = AnalysisConfig(recover_tiers=DEFAULT_TIERS)
        report = SafeFlow(config).analyze_source(GNU_SOURCE, name="gnu")
        assert report.stats.recovery_attempts["strict"] == 1
        assert report.stats.recovery_successes == {"gnu": 1}
        payload = report.to_json()["stats"]
        assert payload["recovered_units"] == 1
        assert payload["recovery_attempts"]["gnu"] == 1

    def test_stats_silent_without_ladder(self):
        report = SafeFlow(AnalysisConfig()).analyze_source(
            "int f(void) { return 0; }\n", name="p")
        payload = report.to_json()["stats"]
        assert "recovered_units" not in payload
        assert "recovery_attempts" not in payload


# ----------------------------------------------------------------------
# differential fail-closed proof: bundled corpus + wild corpus
# ----------------------------------------------------------------------

class TestDifferential:
    def test_bundled_corpus_byte_identical_under_ladder(self):
        # wherever strict mode succeeds, enabling the ladder must not
        # change a single byte of the report
        from repro.corpus import load_all

        for system in load_all():
            files = [str(p) for p in system.core_files]
            strict = SafeFlow(AnalysisConfig()).analyze_files(
                files, name=system.key)
            ladder = SafeFlow(AnalysisConfig(
                recover_tiers=DEFAULT_TIERS)).analyze_files(
                files, name=system.key)
            assert ladder.render(verbose=True) == strict.render(
                verbose=True), system.key
            assert ladder.stats.recovered_units == 0

    def test_wild_corpus_recovered_units_never_pass(self):
        import glob
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..",
                            "examples", "wild")
        config = AnalysisConfig(recover_tiers=DEFAULT_TIERS)
        for path in sorted(glob.glob(os.path.join(root, "*.c"))):
            report = SafeFlow(config).analyze_files(
                [path], name=os.path.basename(path))
            if report.stats.recovered_units or any(
                    u.kind == KIND_UNIT for u in report.degraded):
                assert not report.passed, path
                assert report.verdict == "degraded", path
            else:
                assert report.verdict == "pass", path


# ----------------------------------------------------------------------
# crash-is-tier-failure (chaos contract)
# ----------------------------------------------------------------------

class TestTierCrash:
    def _with_fault(self, monkeypatch, tier):
        monkeypatch.setenv("SAFEFLOW_FAULTS",
                           json.dumps({"crash_tier": tier}))

    def test_crashed_tier_falls_through(self, monkeypatch):
        self._with_fault(monkeypatch, "gnu")
        r = frontend_unit(GNU_SOURCE, "gnu.c",
                          recover_tiers=DEFAULT_TIERS)
        # the gnu tier was attempted, crashed, and did not succeed;
        # the unit either lands on a later tier or is lost — never a
        # driver error
        assert r.attempts["gnu"] == 1
        assert "gnu" not in r.successes
        assert r.tier != "gnu"

    def test_crashed_salvage_loses_unit_gracefully(self, monkeypatch):
        self._with_fault(monkeypatch, "salvage")
        r = frontend_unit(BROKEN_DEF_SOURCE, "mix.c",
                          recover_tiers=DEFAULT_TIERS)
        assert r.unit is None
        assert [u.kind for u in r.degraded] == [KIND_UNIT]

    def test_crash_never_reaches_analysis_driver(self, monkeypatch):
        self._with_fault(monkeypatch, "gnu")
        config = AnalysisConfig(recover_tiers=DEFAULT_TIERS)
        report = SafeFlow(config).analyze_source(GNU_SOURCE, name="gnu")
        assert report.verdict == "degraded"

    def test_crashed_strict_with_ladder_still_salvages(self, monkeypatch):
        # even the strict attempt crashing is contained once the
        # ladder is enabled
        self._with_fault(monkeypatch, "strict")
        r = frontend_unit("int f(void) { return 1; }\n", "ok.c",
                          recover_tiers=DEFAULT_TIERS)
        assert r.tier is not None and r.tier != "strict"
        assert r.unit is not None
