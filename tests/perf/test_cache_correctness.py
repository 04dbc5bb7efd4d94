"""Cache correctness: cached paths must change *nothing* but speed.

Warm runs must render byte-identical reports to cold runs on every
corpus system, and both caches must invalidate when any key ingredient
changes: the source bytes (including ``#include`` dependencies), the
preprocessor ``defines``, or the analysis flags of the
:class:`AnalysisConfig` (the config hash is part of the cache key).
"""

import dataclasses

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import SYSTEM_KEYS, load_system


SIMPLE = r"""
typedef struct { double v; int flag; } R;
R *nc;
void emit(double v);
void initShm(void)
/***SafeFlow Annotation shminit /***/
{
    nc = (R *) shmat(shmget(7, sizeof(R), 0666), 0, 0);
    /***SafeFlow Annotation
        assume(shmvar(nc, sizeof(R)));
        assume(noncore(nc)) /***/
}

double scale(double a) { return a * 2.0; }

int main(void)
{
    double x;
    double y;
    initShm();
    x = nc->v;
    y = scale(x);
    /***SafeFlow Annotation assert(safe(y)); /***/
    emit(y);
    return 0;
}
"""


def _strip_stats(payload):
    payload = dict(payload)
    payload.pop("stats", None)
    return payload


@pytest.mark.parametrize("key", SYSTEM_KEYS)
def test_warm_equals_cold_on_corpus(tmp_path, key):
    """Baseline (no cache), cold (empty cache) and warm (populated
    cache) runs must render byte-identically on every Table-1 system."""
    system = load_system(key)
    baseline = system.analyze(AnalysisConfig(summary_mode=True))
    cached_config = AnalysisConfig(
        summary_mode=True, cache_dir=str(tmp_path / "cache")
    )
    cold = system.analyze(cached_config)
    warm = system.analyze(cached_config)

    assert cold.render(verbose=True) == baseline.render(verbose=True)
    assert warm.render(verbose=True) == baseline.render(verbose=True)
    assert _strip_stats(warm.to_json()) == _strip_stats(cold.to_json())

    assert cold.stats.frontend_cache_hits == 0
    assert cold.stats.frontend_cache_misses > 0
    assert warm.stats.frontend_cache_hits > 0
    assert warm.stats.frontend_cache_misses == 0
    assert not cold.stats.verdict_replayed
    assert warm.stats.verdict_replayed


def test_frontend_cache_hits_and_source_invalidation(tmp_path):
    src = tmp_path / "prog.c"
    src.write_text(SIMPLE)
    flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "cache")))

    cold = flow.analyze_files([str(src)])
    assert cold.stats.frontend_cache_misses == 1
    assert cold.stats.frontend_cache_hits == 0

    warm = flow.analyze_files([str(src)])
    assert warm.stats.frontend_cache_hits == 1
    assert warm.stats.frontend_cache_misses == 0
    assert warm.render(verbose=True) == cold.render(verbose=True)

    # editing the source busts the entry
    src.write_text(SIMPLE.replace("a * 2.0", "a * 3.0"))
    edited = flow.analyze_files([str(src)])
    assert edited.stats.frontend_cache_misses == 1
    assert edited.stats.frontend_cache_hits == 0


def test_frontend_cache_include_dependency_invalidation(tmp_path):
    """The cache key hashes the listed files; ``#include`` dependencies
    are caught by digest re-validation of everything the preprocessor
    actually read."""
    header = tmp_path / "scale.h"
    header.write_text("double scale(double a) { return a * 2.0; }\n")
    src = tmp_path / "prog.c"
    src.write_text('#include "scale.h"\n' + SIMPLE.replace(
        "double scale(double a) { return a * 2.0; }", ""
    ))
    flow = SafeFlow(AnalysisConfig(
        cache_dir=str(tmp_path / "cache"),
        include_dirs=(str(tmp_path),),
    ))

    flow.analyze_files([str(src)])
    warm = flow.analyze_files([str(src)])
    assert warm.stats.frontend_cache_hits == 1

    header.write_text("double scale(double a) { return a * 4.0; }\n")
    edited = flow.analyze_files([str(src)])
    assert edited.stats.frontend_cache_hits == 0
    assert edited.stats.frontend_cache_misses == 1


@pytest.mark.parametrize("record", ["verdict", "program"])
def test_a_lost_unit_is_not_served_after_its_header_is_fixed(tmp_path,
                                                             record):
    """A unit lost to a broken header records the reads made up to the
    failure, so fixing the header invalidates the stored verdict and
    program."""
    header = tmp_path / "bad.h"
    header.write_text("int K = ;\n")
    src = tmp_path / "main.c"
    src.write_text('#include "bad.h"\n'
                   "int f(int x) { return x + 1; }\n"
                   "int main(void) { return f(2); }\n")
    config = AnalysisConfig(recover_tiers=(),
                            cache_dir=str(tmp_path / "cache"))
    lost = SafeFlow(config).analyze_files([str(src)])
    assert [u.kind for u in lost.degraded] == ["unit"]
    header.write_text("int K = 1;\n")
    if record == "program":
        for verdict in (tmp_path / "cache").rglob("*.verdict"):
            verdict.unlink()
    fixed = SafeFlow(config).analyze_files([str(src)])
    cold = SafeFlow(AnalysisConfig(recover_tiers=())).analyze_files(
        [str(src)])
    assert not fixed.stats.verdict_replayed
    assert fixed.stats.frontend_cache_hits == 0
    assert fixed.stats.functions == cold.stats.functions == 2
    assert fixed.render(verbose=True) == cold.render(verbose=True)


def test_frontend_cache_defines_invalidation(tmp_path):
    src = tmp_path / "prog.c"
    src.write_text(SIMPLE)
    cache = str(tmp_path / "cache")

    flow = SafeFlow(AnalysisConfig(cache_dir=cache))
    flow.analyze_files([str(src)])
    assert flow.analyze_files([str(src)]).stats.frontend_cache_hits == 1

    defined = SafeFlow(AnalysisConfig(cache_dir=cache,
                                      defines={"EXTRA": "1"}))
    report = defined.analyze_files([str(src)])
    assert report.stats.frontend_cache_hits == 0
    assert report.stats.frontend_cache_misses == 1


def test_summary_cache_config_flag_invalidation(tmp_path):
    """Analysis flags are part of the verdict key of a summary-mode
    run: flipping one must compute; flipping it back replays the
    verdict record of the first config."""
    config = AnalysisConfig(summary_mode=True,
                            cache_dir=str(tmp_path / "cache"))
    flow = SafeFlow(config)

    cold = flow.analyze_source(SIMPLE, name="prog")
    assert not cold.stats.verdict_replayed
    warm = flow.analyze_source(SIMPLE, name="prog")
    assert warm.stats.verdict_replayed

    flipped = SafeFlow(dataclasses.replace(
        config, track_control_dependence=False
    )).analyze_source(SIMPLE, name="prog")
    assert flipped.stats.frontend_cache_hits == 1
    assert not flipped.stats.verdict_replayed

    back = flow.analyze_source(SIMPLE, name="prog")
    assert back.stats.verdict_replayed
    again = flow.analyze_source(SIMPLE, name="prog")
    assert again.stats.verdict_replayed
    for report in (warm, back, again):
        assert report.render(verbose=True) == cold.render(verbose=True)


def test_corrupt_cache_files_fail_open(tmp_path):
    """Garbage in any cache file must read as a miss, never a crash."""
    cache = tmp_path / "cache"
    config = AnalysisConfig(summary_mode=True, cache_dir=str(cache))
    flow = SafeFlow(config)
    good = flow.analyze_source(SIMPLE, name="prog")

    for victim in [p for p in cache.rglob("*") if p.is_file()]:
        victim.write_text("GARBAGE\n")
    corrupted = flow.analyze_source(SIMPLE, name="prog")
    assert corrupted.render(verbose=True) == good.render(verbose=True)
    assert corrupted.stats.frontend_cache_hits == 0
    assert not corrupted.stats.verdict_replayed

    # the rewrite heals the cache: next run hits again
    healed = flow.analyze_source(SIMPLE, name="prog")
    assert healed.stats.frontend_cache_hits == 1
    assert healed.render(verbose=True) == good.render(verbose=True)


def test_cache_control_fields_do_not_change_results(tmp_path):
    """cache_dir is excluded from all fingerprints, so a cold or warm
    cached run reports exactly what an uncached run does."""
    plain = SafeFlow(AnalysisConfig(summary_mode=True))
    cached = SafeFlow(AnalysisConfig(
        summary_mode=True,
        cache_dir=str(tmp_path / "cache"),
    ))
    a = plain.analyze_source(SIMPLE, name="prog")
    b = cached.analyze_source(SIMPLE, name="prog")
    c = cached.analyze_source(SIMPLE, name="prog")
    assert a.render(verbose=True) == b.render(verbose=True)
    assert a.render(verbose=True) == c.render(verbose=True)
    assert a.stats.frontend_cache_misses == 0
    assert b.stats.frontend_cache_misses == 1
    assert c.stats.frontend_cache_hits == 1
    assert c.stats.verdict_replayed


def test_ir_cache_entry_of_an_older_schema_is_not_served(tmp_path,
                                                         monkeypatch):
    # schema 2 programs were lowered to allocas and promoted by mem2reg:
    # their phis are numbered differently and carry dead phis
    from repro.frontend import load_source
    from repro.perf import ircache
    from repro.perf.ircache import IRCache

    def load(cache):
        key = cache.key_for_source(SIMPLE, "simple.c", None, True)
        program = cache.fetch(key)
        if program is None:
            cache.store(key, load_source(SIMPLE, filename="simple.c"))

    cache = IRCache(str(tmp_path))
    monkeypatch.setattr(ircache, "code_digest", lambda: "an older build")
    load(cache)
    monkeypatch.undo()
    assert ircache.code_digest() != "an older build"
    load(cache)
    assert (cache.hits, cache.misses) == (0, 2)
    load(cache)
    assert cache.hits == 1
