"""The verdict record: a verdict computed with a cache dir is kept on
disk beside its program record, keyed by the program's content key
plus the config fingerprint, so a hit replays it without unpickling
the IR or running phases 1-3.

A record must be validated against the files as they are now (an
edited or newly shadowing header misses), must be kept per config,
and is neither read nor written by a ``profile`` run.
"""

import os

import pytest

from repro import AnalysisConfig, SafeFlow
from repro.corpus import SYSTEM_KEYS, generate_core, load_system
from repro.errors import ParseError
from repro.perf.ircache import IRCache
from tests.conftest import FIGURE2_SOURCE
from tests.perf.test_progmemo import HEADER, HEADER_WITH_A_FUNCTION, MAIN
from tests.perf.test_verdict_replay import signature

#: the ``medium`` rung of ``benchmarks/bench_kernels.py``
MEDIUM_RUNG = dict(filler_functions=120, chain_depth=8, call_fanout=2,
                   pipeline_stages=10, monitored_regions=2)


def verdict_records(cache_dir):
    directory = os.path.join(cache_dir, "ir")
    if not os.path.isdir(directory):
        return []
    return sorted(n for n in os.listdir(directory) if n.endswith(".verdict"))


class TestDiskHitReplays:
    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_corpus_system(self, key, tmp_path, monkeypatch):
        files = [str(p) for p in load_system(key).core_files]
        cold = SafeFlow().analyze_files(files, name=key)
        warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
        first = warm.analyze_files(files, name=key)
        assert not first.stats.verdict_replayed
        unpickled = []
        read = IRCache._read

        def counting_read(cache, key):
            unpickled.append(key)
            return read(cache, key)

        monkeypatch.setattr(IRCache, "_read", counting_read)
        for _ in range(2):
            hit = warm.analyze_files(files, name=key)
            assert hit.stats.verdict_replayed
            assert (hit.stats.frontend_cache_hits,
                    hit.stats.frontend_cache_misses) == (1, 0)
            assert hit.render(verbose=True) == cold.render(verbose=True)
            assert signature(hit) == signature(cold)
        # the replay never unpickled the IR
        assert unpickled == []

    def test_bench_kernels_medium_rung(self, tmp_path):
        source = generate_core(**MEDIUM_RUNG).source
        cold = SafeFlow().analyze_source(source, "medium.c", name="medium")
        warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
        warm.analyze_source(source, "medium.c", name="medium")
        hit = warm.analyze_source(source, "medium.c", name="medium")
        assert hit.stats.verdict_replayed
        assert hit.stats.loc_total == cold.stats.loc_total > 0
        assert hit.render(verbose=True) == cold.render(verbose=True)
        assert signature(hit) == signature(cold)

    def test_a_failed_front_end_writes_no_record(self, tmp_path):
        config = AnalysisConfig(cache_dir=str(tmp_path))
        with pytest.raises(ParseError):
            SafeFlow(config).analyze_source("int x = ;\n", "bad.c")
        assert verdict_records(str(tmp_path)) == []


def _include_unit(tmp_path):
    src, inc = tmp_path / "src", tmp_path / "inc"
    src.mkdir()
    inc.mkdir()
    main = src / "main.c"
    main.write_text(MAIN)
    (inc / "k.h").write_text(HEADER)
    flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c"),
                                   include_dirs=(str(inc),)))
    first = flow.analyze_files([str(main)])
    assert first.stats.functions == 1
    assert flow.analyze_files([str(main)]).stats.verdict_replayed
    return flow, main, src, inc


class TestValidation:
    def test_an_edited_header_misses(self, tmp_path):
        flow, main, _src, inc = _include_unit(tmp_path)
        (inc / "k.h").write_text(HEADER_WITH_A_FUNCTION)
        edited = flow.analyze_files([str(main)])
        assert not edited.stats.verdict_replayed
        assert edited.stats.frontend_cache_hits == 0
        assert edited.stats.functions == 2
        again = flow.analyze_files([str(main)])
        assert again.stats.verdict_replayed
        assert again.stats.functions == 2

    def test_a_header_that_now_shadows_the_one_read_misses(self, tmp_path):
        flow, main, src, _inc = _include_unit(tmp_path)
        # the unit's own directory is searched first
        (src / "k.h").write_text(HEADER_WITH_A_FUNCTION)
        shadowed = flow.analyze_files([str(main)])
        assert not shadowed.stats.verdict_replayed
        assert shadowed.stats.functions == 2
        cold = SafeFlow(AnalysisConfig(include_dirs=flow.config.include_dirs)
                        ).analyze_files([str(main)])
        assert shadowed.render(verbose=True) == cold.render(verbose=True)


class TestPerConfig:
    def test_a_changed_fingerprint_computes_then_each_config_replays(
            self, tmp_path):
        configs = [AnalysisConfig(cache_dir=str(tmp_path)),
                   AnalysisConfig(cache_dir=str(tmp_path),
                                  track_control_dependence=False)]
        cold = [SafeFlow(AnalysisConfig(
                    track_control_dependence=c.track_control_dependence)
                ).analyze_source(FIGURE2_SOURCE, "f.c") for c in configs]
        assert signature(cold[0]) != signature(cold[1])
        for round_ in range(3):
            for config, expected in zip(configs, cold):
                report = SafeFlow(config).analyze_source(FIGURE2_SOURCE,
                                                         "f.c")
                assert report.stats.verdict_replayed == (round_ > 0)
                assert signature(report) == signature(expected)
        assert len(verdict_records(str(tmp_path))) == 2


class TestProfile:
    def test_profile_neither_writes_nor_reads_a_record(self, tmp_path):
        profiled = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path),
                                           profile=True))
        report = profiled.analyze_source(FIGURE2_SOURCE, "f.c")
        assert report.stats.hotspots
        assert verdict_records(str(tmp_path)) == []

        # a record written by an ordinary run is not read either
        SafeFlow(AnalysisConfig(cache_dir=str(tmp_path))).analyze_source(
            FIGURE2_SOURCE, "f.c")
        assert len(verdict_records(str(tmp_path))) == 1
        again = profiled.analyze_source(FIGURE2_SOURCE, "f.c")
        assert not again.stats.verdict_replayed
        assert again.stats.frontend_cache_hits == 1
        assert again.stats.kernel_counters["bodies_analyzed"] > 0
        assert again.stats.hotspots
