"""Warm verdict replay: a verdict computed with a cache dir is kept as
a verdict record, and a later request under the same config
fingerprint answers from it without running phases 1-3 (the record's
validation and keying are covered by ``test_verdict_record.py``).

A replay must be indistinguishable from a cold verdict in everything
but its timings, counters and provenance flag; it must never answer a
run under another config, a ``profile`` run, or a caller that hands
``analyze_program`` its own program; and the verdict it keeps must
never reach a program record, and never see a caller's edits to a
report it returned.
"""

import glob
import io
import json
import os
import pickle
import pickletools

import pytest

from repro import AnalysisConfig, SafeFlow
from repro.corpus import SYSTEM_KEYS, generate_core, load_system
from repro.frontend import load_source
from repro.incremental.watcher import IncrementalSession
from repro.perf.integrity import unseal
from tests.conftest import FIGURE2_SOURCE

#: stats that describe one run, not its verdict
VOLATILE = ("phase_timings", "kernel_counters", "hotspots",
            "frontend_cache_hits", "frontend_cache_misses",
            "summary_cache_hits", "summary_cache_misses",
            "cache_integrity_evictions", "verdict_replayed")

BAD_UNIT = "double compute(double x) { return x + ; }\n"
GNU_UNIT = "int __attribute__((noinline)) twice(int a) { return a + a; }\n"
CALLER = """
double compute(double x);
int twice(int a);
void sendControl(double v);
int main(void)
{
    double output = compute(1.0) + twice(2);
    /***SafeFlow Annotation assert(safe(output)); /***/
    sendControl(output);
    return 0;
}
"""


def signature(report):
    data = report.to_json()
    for key in VOLATILE:
        data["stats"].pop(key, None)
    return (report.render(), report.render(verbose=True),
            json.dumps(data, sort_keys=True),
            json.dumps(report.witness_graphs, sort_keys=True))


def replay_rounds(run, rounds=2):
    """``run(cache_dir config)`` once computed, then ``rounds`` times
    replayed; returns the first report and the replays."""
    first = run()
    assert not first.stats.verdict_replayed
    replays = [run() for _ in range(rounds)]
    assert all(r.stats.verdict_replayed for r in replays)
    return first, replays


def verdict_records(cache_dir):
    return glob.glob(os.path.join(str(cache_dir), "**", "*.verdict"),
                     recursive=True)


def recover_inputs(tmp_path):
    paths = []
    for name, text in (("caller.c", CALLER), ("bad.c", BAD_UNIT),
                       ("gnu.c", GNU_UNIT)):
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


class TestByteIdentity:
    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_corpus_system(self, key, tmp_path):
        files = [str(p) for p in load_system(key).core_files]
        cold = SafeFlow().analyze_files(files, name=key)
        warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
        first, replays = replay_rounds(
            lambda: warm.analyze_files(files, name=key))
        for report in (first, *replays):
            assert signature(report) == signature(cold)

    @pytest.mark.parametrize("params", [
        dict(filler_functions=4, chain_depth=3, monitored_regions=1,
             data_error_regions=1),
        dict(filler_functions=8, chain_depth=4, call_fanout=2,
             pipeline_stages=4, monitored_regions=2),
    ], ids=["data-error", "pipeline"])
    def test_generated_core(self, params, tmp_path):
        source = generate_core(**params).source
        cold = SafeFlow().analyze_source(source, "gen.c", name="gen")
        warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
        first, replays = replay_rounds(
            lambda: warm.analyze_source(source, "gen.c", name="gen"))
        for report in (first, *replays):
            assert signature(report) == signature(cold)

    @pytest.mark.parametrize("options", [
        dict(recover_tiers=()),
        dict(recover_tiers=("gnu", "prelude", "cleanup", "salvage")),
    ], ids=["keep-going", "recover"])
    def test_degraded_input(self, options, tmp_path):
        paths = recover_inputs(tmp_path)
        cold = SafeFlow(AnalysisConfig(**options)).analyze_files(paths)
        assert cold.degraded
        warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c"),
                                       **options))
        first, replays = replay_rounds(lambda: warm.analyze_files(paths))
        for report in (first, *replays):
            assert signature(report) == signature(cold)
            assert report.stats.recovery_attempts == \
                cold.stats.recovery_attempts

    def test_replay_takes_the_requests_name_and_fresh_counters(
            self, tmp_path):
        warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
        computed = warm.analyze_source(FIGURE2_SOURCE, "f.c", name="one")
        replay = warm.analyze_source(FIGURE2_SOURCE, "f.c", name="two")
        assert replay.name == "two" and computed.name == "one"
        assert replay.stats.verdict_replayed
        assert replay.stats.to_json()["verdict_replayed"] is True
        assert "verdict_replayed" not in computed.stats.to_json()
        assert replay.stats.loc_total == computed.stats.loc_total > 0
        assert (replay.stats.frontend_cache_hits,
                replay.stats.frontend_cache_misses) == (1, 0)
        assert set(replay.stats.phase_timings) == {"frontend", "total"}
        assert replay.stats.kernel_counters == {}


class TestEligibility:
    def test_config_override_computes(self, tmp_path):
        default = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
        no_control = SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path), track_control_dependence=False))
        expected = {
            id(default): signature(SafeFlow().analyze_source(
                FIGURE2_SOURCE, "f.c")),
            id(no_control): signature(SafeFlow(AnalysisConfig(
                track_control_dependence=False)).analyze_source(
                    FIGURE2_SOURCE, "f.c")),
        }
        assert len(set(expected.values())) == 2
        # one verdict record per config: each config computes once on
        # the stored program, and then its verdict record answers
        hits, replayed = [], []
        for analyzer in (default, no_control, default, no_control):
            report = analyzer.analyze_source(FIGURE2_SOURCE, "f.c")
            assert signature(report) == expected[id(analyzer)]
            hits.append(report.stats.frontend_cache_hits)
            replayed.append(report.stats.verdict_replayed)
        assert hits == [0, 1, 1, 1]
        assert replayed == [False, False, True, True]

    def test_profile_never_replays(self, tmp_path):
        SafeFlow(AnalysisConfig(cache_dir=str(tmp_path))).analyze_source(
            FIGURE2_SOURCE, "f.c")
        profiled = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path),
                                           profile=True))
        for _ in range(2):
            report = profiled.analyze_source(FIGURE2_SOURCE, "f.c")
            assert not report.stats.verdict_replayed
            assert report.stats.hotspots
            assert report.stats.kernel_counters["bodies_analyzed"] > 0

    def test_summary_mode_replays(self, tmp_path):
        cold = SafeFlow(AnalysisConfig(summary_mode=True)).analyze_source(
            FIGURE2_SOURCE, "f.c")
        summaries = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path),
                                            summary_mode=True))
        first, replays = replay_rounds(
            lambda: summaries.analyze_source(FIGURE2_SOURCE, "f.c"))
        for report in (first, *replays):
            assert signature(report) == signature(cold)
            assert report.stats.summary_cache_hits == 0

    def test_recomputing_a_degraded_annotation_reports_it_once(
            self, tmp_path):
        source = ("int *p;\n"
                  "void init(void)\n"
                  "/***SafeFlow Annotation shminit;"
                  " assume(shmvar(q, 4)) /***/\n"
                  "{ }\n"
                  "int main(void) { init(); return 0; }\n")
        profiled = SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path), recover_tiers=(), profile=True))
        for _ in range(3):
            report = profiled.analyze_source(source, "t.c")
            assert [u.kind for u in report.degraded] == ["annotation"]

    def test_without_a_memo_nothing_is_kept(self, tmp_path):
        analyzer = SafeFlow(AnalysisConfig(cache_dir=None))
        for _ in range(2):
            report = analyzer.analyze_source(FIGURE2_SOURCE, "f.c")
            assert not report.stats.verdict_replayed

    def test_analyze_program_never_replays_or_attaches(self, tmp_path):
        program = load_source(FIGURE2_SOURCE, filename="f.c")
        analyzer = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
        for _ in range(2):
            report = analyzer.analyze_program(program)
            assert not report.stats.verdict_replayed
        assert verdict_records(tmp_path) == []

    def test_incremental_session_never_replays(self, tmp_path):
        unit = tmp_path / "core.c"
        unit.write_text(FIGURE2_SOURCE)
        session = IncrementalSession(
            [str(unit)], config=AnalysisConfig(cache_dir=str(tmp_path)))
        first = session.verdict()
        unchanged = session.verdict()
        unit.write_text(FIGURE2_SOURCE.replace("5.0", "6.0"))
        edited = session.verdict()
        for report in (first, unchanged, edited):
            assert not report.stats.verdict_replayed
        assert verdict_records(tmp_path) == []


class TestIsolation:
    def test_mutating_a_report_does_not_leak_into_replays(self, tmp_path):
        warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
        computed = warm.analyze_source(FIGURE2_SOURCE, "f.c")
        expected = signature(computed)
        assert computed.errors and computed.warnings

        def vandalise(report):
            report.errors.clear()
            report.warnings.append(report.warnings[0])
            report.witness_graphs.clear()
            report.degraded.append(None)
            report.stats.functions = -1
            report.stats.recovery_attempts["strict"] = 99

        vandalise(computed)
        replay = warm.analyze_source(FIGURE2_SOURCE, "f.c")
        assert replay.stats.verdict_replayed
        assert signature(replay) == expected
        vandalise(replay)
        again = warm.analyze_source(FIGURE2_SOURCE, "f.c")
        assert again.stats.verdict_replayed
        assert signature(again) == expected


class TestLifetime:
    def test_ir_cache_entry_holds_no_report(self, tmp_path):
        analyzer = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
        analyzer.analyze_source(FIGURE2_SOURCE, "f.c")
        cache = analyzer._ir_cache()
        key = cache.key_for_source(
            FIGURE2_SOURCE, "f.c", {}, True, analyzer._recover_token())
        assert verdict_records(tmp_path)
        with open(cache._path(key), "rb") as f:
            entry = pickle.loads(unseal(f.read()))
        names = {arg for _, arg, _ in pickletools.genops(
                     io.BytesIO(entry.program_blob))
                 if isinstance(arg, str)}
        assert "Program" in names  # the walk sees class names
        assert not {"AnalysisReport", "AnalysisStats",
                    "repro.core.results"} & names
