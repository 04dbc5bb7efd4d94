"""The program store (``IRCache``): leases, staleness of its program
and verdict records against edited file dependencies, cache-dir
scoping, report byte-identity through the driver, the dependency
digests every record is validated against, and how often one request
digests a file. The store's correctness suite through the driver is
tests/perf/test_cache_correctness.py."""

import os
from types import SimpleNamespace

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.perf import ircache
from repro.perf.fingerprint import file_digest
from repro.perf.ircache import IRCache

SIMPLE = """
int source(void);
void sink(int x);
int main(void) {
    int v = source();
    if (v > 0) sink(v);
    return 0;
}
"""

MAIN = """
#include "k.h"
int source(void);
void sink(int x);
int main(void) {
    int v = source();
    if (v > LIMIT) sink(v);
    return 0;
}
"""
HEADER = "#define LIMIT 10\n"
HEADER_WITH_A_FUNCTION = HEADER + "int helper(void) { return 1; }\n"


def fake_program(paths=()):
    """Just enough object graph to store and validate."""
    return SimpleNamespace(deps=tuple((p, file_digest(p)) for p in paths),
                           module=SimpleNamespace())


class TestLease:
    def test_acquire_empty_is_miss(self, tmp_path):
        cache = IRCache(str(tmp_path))
        assert cache.lease("k", "f") == (None, None)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_lease_is_exclusive(self, tmp_path):
        # each lease unpickles its own copy: two threads never analyze
        # one object graph
        cache = IRCache(str(tmp_path))
        assert cache.store("k", fake_program())
        first, _ = cache.lease("k")
        second, _ = cache.lease("k")
        assert first is not None and second is not None
        assert first is not second and first.module is not second.module

    def test_none_key_is_never_memoized(self, tmp_path):
        cache = IRCache(str(tmp_path))
        assert cache.store(None, fake_program()) is False
        assert cache.store_verdict(None, "f", (), "verdict") is False
        assert cache.lease(None, "f") == (None, None)


class TestStaleness:
    def test_edited_dependency_is_evicted(self, tmp_path):
        dep = tmp_path / "dep.h"
        dep.write_text("#define LIMIT 10\n")
        cache = IRCache(str(tmp_path / "c"))
        program = fake_program([str(dep)])
        cache.store("k", program)
        cache.store_verdict("k", "f", program.deps, "verdict")
        dep.write_text("#define LIMIT 99\n")
        assert cache.lease("k", "f") == (None, None)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_unchanged_dependency_is_served(self, tmp_path):
        dep = tmp_path / "dep.h"
        dep.write_text("#define LIMIT 10\n")
        cache = IRCache(str(tmp_path / "c"))
        program = fake_program([str(dep)])
        cache.store("k", program)
        cache.store_verdict("k", "f", program.deps, "verdict")
        assert cache.lease("k", "f") == (None, "verdict")
        leased, verdict = cache.lease("k", "other")
        assert verdict is None and leased.deps == program.deps
        assert (cache.hits, cache.misses) == (2, 0)

    def test_unreadable_dependency_is_not_memoizable(self, tmp_path):
        cache = IRCache(str(tmp_path / "c"))
        # unknown dependencies (a file read twice with different bytes)
        # cannot be validated, so nothing is stored
        unknown = SimpleNamespace(deps=None, module=SimpleNamespace())
        assert cache.store("k", unknown) is False
        assert cache.store_verdict("k", "f", None, "verdict") is False
        # a dependency that vanished after storing is stale
        gone = tmp_path / "gone.h"
        gone.write_text("int x;")
        program = fake_program([str(gone)])
        cache.store("k", program)
        cache.store_verdict("k", "f", program.deps, "verdict")
        gone.unlink()
        assert cache.lease("k", "f") == (None, None)
        assert (cache.hits, cache.misses) == (0, 1)


class TestDriverIntegration:
    def test_warm_repeat_is_a_frontend_hit(self, tmp_path):
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        cold = flow.analyze_source(SIMPLE, filename="m.c")
        warm = flow.analyze_source(SIMPLE, filename="m.c")
        assert warm.render() == cold.render()
        assert warm.stats.verdict_replayed  # from the verdict record
        assert (warm.stats.frontend_cache_hits,
                warm.stats.frontend_cache_misses) == (1, 0)

    def test_memo_is_report_preserving(self, tmp_path):
        stored = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "on")))
        first = stored.analyze_source(SIMPLE, filename="m.c")
        second = stored.analyze_source(SIMPLE, filename="m.c")
        reference = SafeFlow().analyze_source(SIMPLE, filename="m.c")
        assert first.render() == second.render() == reference.render()

    def test_disjoint_cache_dirs_do_not_share_programs(self, tmp_path):
        SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "one"))).analyze_source(
                SIMPLE, filename="m.c")
        other = SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "two"))).analyze_source(
                SIMPLE, filename="m.c")
        assert other.stats.frontend_cache_hits == 0
        for name in ("one", "two"):
            records = os.listdir(tmp_path / name / "ir")
            assert sum(r.endswith(".pkl") for r in records) == 1

    def test_edited_file_misses_through_the_driver(self, tmp_path):
        unit = tmp_path / "unit.c"
        unit.write_text(SIMPLE)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        before = flow.analyze_files([str(unit)], name="unit")
        assert before.stats.functions == 1
        unit.write_text("int helper(void) { return 1; }\n" + SIMPLE)
        edited = flow.analyze_files([str(unit)], name="unit")
        assert edited.stats.functions == 2, \
            "the store must not serve the stale program"

    def test_disabled_by_config(self, tmp_path):
        # no cache dir, no store: nothing is stored or served
        flow = SafeFlow(AnalysisConfig(cache_dir=None))
        for _ in range(2):
            report = flow.analyze_source(SIMPLE, filename="m.c")
            assert (report.stats.frontend_cache_hits,
                    report.stats.frontend_cache_misses) == (0, 0)
            assert not report.stats.verdict_replayed


def _include_unit(tmp_path):
    (tmp_path / "k.h").write_text(HEADER)
    main = tmp_path / "main.c"
    main.write_text(MAIN)
    return main, tmp_path / "k.h"


def _edit_while(monkeypatch, owner, attr, header, call=1):
    """Make the ``call``-th run of ``owner.attr`` first add a function
    to ``header``, as an editor saving the file mid-request would."""
    original = getattr(owner, attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(True)
        if len(calls) == call:
            header.write_text(HEADER_WITH_A_FUNCTION)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


class TestDependencyDigests:
    """Both records validate against the digest of the bytes the
    preprocessor read, not of the file as it is when they are stored:
    an include edited mid-request must miss, and so must one created
    where it shadows the include that was read."""

    def test_include_edited_mid_analysis_misses(
            self, tmp_path, monkeypatch):
        from repro.valueflow import engine

        main, header = _include_unit(tmp_path)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        with monkeypatch.context() as patch:
            _edit_while(patch, engine.ValueFlowAnalysis, "run", header)
            first = flow.analyze_files([str(main)])
        assert first.stats.functions == 1
        again = flow.analyze_files([str(main)])
        assert not again.stats.verdict_replayed
        assert again.stats.functions == 2
        assert again.stats.frontend_cache_hits == 0

    def test_include_edited_during_lowering_misses_on_disk(
            self, tmp_path, monkeypatch):
        from repro.frontend import driver as frontend_driver

        main, header = _include_unit(tmp_path)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        with monkeypatch.context() as patch:
            _edit_while(patch, frontend_driver, "lower_units", header)
            first = flow.analyze_files([str(main)])
        assert first.stats.functions == 1
        again = flow.analyze_files([str(main)])
        assert again.stats.frontend_cache_hits == 0
        assert again.stats.functions == 2

    def test_a_header_that_now_shadows_the_one_read_misses(self, tmp_path):
        src, inc = tmp_path / "src", tmp_path / "inc"
        src.mkdir()
        inc.mkdir()
        main = src / "main.c"
        main.write_text(MAIN)
        (inc / "k.h").write_text(HEADER)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c"),
                                       include_dirs=(str(inc),)))
        assert flow.analyze_files([str(main)]).stats.functions == 1
        # the unit's own directory is searched first
        (src / "k.h").write_text(HEADER_WITH_A_FUNCTION)
        again = flow.analyze_files([str(main)])
        assert not again.stats.verdict_replayed
        assert again.stats.functions == 2
        assert flow.analyze_files([str(main)]).stats.frontend_cache_hits == 1

    def test_a_file_read_with_two_contents_is_not_stored(
            self, tmp_path, monkeypatch):
        from repro.frontend import driver as frontend_driver
        from repro.frontend import load_files

        header = tmp_path / "k.h"
        header.write_text(HEADER)
        units = []
        for name in ("a", "b"):
            unit = tmp_path / f"{name}.c"
            unit.write_text(f'#include "k.h"\nint {name}(void);\n')
            units.append(str(unit))
        program = load_files(units)
        assert dict(program.deps)[str(header)] == file_digest(str(header))
        # k.h is edited after a.c read it and before b.c does
        _edit_while(monkeypatch, frontend_driver, "frontend_file", header,
                    call=2)
        program = load_files(units)
        assert program.deps is None
        cache = IRCache(str(tmp_path / "c"))
        assert not cache.store("k", program)
        assert not cache.store_verdict("k", "f", program.deps, "verdict")


class TestDigestCount:
    """One request digests each top-level file once, for its key, and
    each include at most once, and only to validate a record."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path.rsplit("/", 1)[-1])
            return file_digest(path)

        monkeypatch.setattr(ircache, "file_digest", counting)
        return calls

    def _counts(self, calls):
        return {name: calls.count(name) for name in sorted(set(calls))}

    def test_each_tier(self, tmp_path, counted):
        main, _ = _include_unit(tmp_path)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))

        flow.analyze_files([str(main)])  # cold: both records miss
        assert self._counts(counted) == {"main.c": 1}
        counted.clear()
        flow.analyze_files([str(main)])  # verdict record hit
        assert self._counts(counted) == {"k.h": 1, "main.c": 1}
        counted.clear()
        for record in os.listdir(tmp_path / "c" / "ir"):
            if record.endswith(".verdict"):
                os.remove(tmp_path / "c" / "ir" / record)
        hit = flow.analyze_files([str(main)])  # program record hit
        assert hit.stats.frontend_cache_hits == 1
        assert self._counts(counted) == {"k.h": 1, "main.c": 1}

    def test_stale_verdict_then_stale_program_record(self, tmp_path,
                                                     counted):
        main, header = _include_unit(tmp_path)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        flow.analyze_files([str(main)])
        header.write_text(HEADER_WITH_A_FUNCTION)
        counted.clear()
        report = flow.analyze_files([str(main)])
        assert report.stats.functions == 2
        assert report.stats.frontend_cache_hits == 0
        assert self._counts(counted) == {"k.h": 1, "main.c": 1}
