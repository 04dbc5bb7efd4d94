"""The program store's memory tier (``IRCache.memory``, in front of the
disk tier): exclusive leases, staleness against edited file
dependencies, LRU bounds, cache-dir scoping, report byte-identity
through the driver, the dependency digests both tiers validate
against, and how often one request digests a file. The disk tier's
own correctness suite is tests/perf/test_cache_correctness.py."""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.perf import ircache
from repro.perf.fingerprint import file_digest
from repro.perf.ircache import IRCache, MemoryTier

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


class _Module:
    """Records whether the memory tier tore it down."""

    released = False

    def release(self):
        assert not self.released, "released twice"
        self.released = True


def fake_program(paths=()):
    """Just enough object graph for dependency validation and
    teardown."""
    return SimpleNamespace(deps=tuple((p, file_digest(p)) for p in paths),
                           module=_Module())


@pytest.fixture(autouse=True)
def clean_memory_tier():
    IRCache.memory.clear()
    yield
    IRCache.memory.clear()


class TestLease:
    def test_acquire_empty_is_miss(self):
        memory = MemoryTier()
        assert memory.acquire("k") is None
        assert memory.counters() == {"stale_evictions": 0, "pooled": 0}

    def test_release_then_acquire_returns_same_object(self):
        memory = MemoryTier()
        prog = fake_program()
        assert memory.release("k", prog) is True
        assert memory.acquire("k") is prog
        assert memory.counters() == {"stale_evictions": 0, "pooled": 0}

    def test_lease_is_exclusive(self):
        # a pooled program is handed to exactly one acquirer
        memory = MemoryTier()
        memory.release("k", fake_program())
        assert memory.acquire("k") is not None
        assert memory.acquire("k") is None

    def test_none_key_is_never_memoized(self):
        memory = MemoryTier()
        assert memory.release(None, fake_program()) is False
        assert memory.acquire(None) is None

    def test_zero_capacity_disables(self):
        memory = MemoryTier(capacity=0)
        assert memory.release("k", fake_program()) is False
        assert memory.acquire("k") is None


class TestStaleness:
    def test_edited_dependency_is_evicted(self, tmp_path):
        dep = tmp_path / "dep.h"
        dep.write_text("#define LIMIT 10\n")
        memory = MemoryTier()
        program = fake_program([str(dep)])
        memory.release("k", program)
        dep.write_text("#define LIMIT 99\n")
        assert memory.acquire("k") is None
        assert memory.counters()["stale_evictions"] == 1
        assert program.module.released

    def test_unchanged_dependency_is_served(self, tmp_path):
        dep = tmp_path / "dep.h"
        dep.write_text("#define LIMIT 10\n")
        memory = MemoryTier()
        prog = fake_program([str(dep)])
        memory.release("k", prog)
        assert memory.acquire("k") is prog

    def test_unreadable_dependency_is_not_memoizable(self, tmp_path):
        memory = MemoryTier()
        # unknown dependencies (a file read twice with different bytes)
        # cannot be validated, so the program is never pooled
        unknown = SimpleNamespace(deps=None, module=_Module())
        assert memory.release("k", unknown) is False
        # a dependency that vanished after pooling is stale
        gone = tmp_path / "gone.h"
        gone.write_text("int x;")
        memory.release("k", fake_program([str(gone)]))
        gone.unlink()
        assert memory.acquire("k") is None
        assert memory.counters()["stale_evictions"] == 1


class TestBounds:
    def test_capacity_evicts_least_recently_used_key(self):
        memory = MemoryTier(capacity=2)
        a, b, c = fake_program(), fake_program(), fake_program()
        memory.release("a", a)
        memory.release("b", b)
        memory.release("c", c)  # evicts the oldest key's entry ("a")
        assert memory.counters()["pooled"] == 2
        assert a.module.released  # torn down on eviction
        assert not (b.module.released or c.module.released)
        assert memory.acquire("a") is None
        assert memory.acquire("b") is b
        assert memory.acquire("c") is c

    def test_clear_empties_pools(self):
        memory = MemoryTier()
        program = fake_program()
        memory.release("k", program)
        memory.clear()
        assert memory.counters()["pooled"] == 0
        assert program.module.released
        assert memory.acquire("k") is None


class TestTeardown:
    def test_leased_program_is_never_released(self):
        memory = MemoryTier(capacity=1)
        a = fake_program()
        memory.release("a", a)
        assert memory.acquire("a") is a
        memory.release("b", fake_program())
        memory.clear()
        assert not a.module.released

    def test_threads_never_acquire_a_released_program(self):
        # more threads than cores, a tiny pool and frequent switches:
        # eviction must never tear down a program another thread holds
        memory = MemoryTier(capacity=2)
        errors = []

        def worker(seed):
            try:
                for i in range(400):
                    key = f"k{(seed + i) % 5}"
                    program = memory.acquire(key) or fake_program()
                    if program.module.released:
                        errors.append(key)
                    memory.release(key, program)
            except AssertionError as exc:  # a double release
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert memory.counters()["pooled"] <= 2


class TestDriverIntegration:
    def test_warm_repeat_is_a_frontend_hit(self, tmp_path):
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        cold = flow.analyze_source(SIMPLE, filename="m.c")
        warm = flow.analyze_source(SIMPLE, filename="m.c")
        assert warm.render() == cold.render()
        assert warm.stats.verdict_replayed  # only a memory hit replays
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
        assert IRCache.memory.counters()["pooled"] == 2

    def test_edited_file_misses_through_the_driver(self, tmp_path):
        unit = tmp_path / "unit.c"
        unit.write_text(SIMPLE)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        before = flow.analyze_files([str(unit)], name="unit")
        assert before.stats.functions == 1
        unit.write_text("int helper(void) { return 1; }\n" + SIMPLE)
        edited = flow.analyze_files([str(unit)], name="unit")
        assert edited.stats.functions == 2, \
            "memory tier must not serve the stale program"

    def test_disabled_by_config(self, tmp_path):
        # no cache dir, no store: nothing is pooled or served
        flow = SafeFlow(AnalysisConfig(cache_dir=None))
        for _ in range(2):
            report = flow.analyze_source(SIMPLE, filename="m.c")
            assert (report.stats.frontend_cache_hits,
                    report.stats.frontend_cache_misses) == (0, 0)
        assert IRCache.memory.counters()["pooled"] == 0


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
    """Both tiers validate against the digest of the bytes the
    preprocessor read, not of the file as it is when the program is
    stored or pooled: an include edited mid-request must miss, and so
    must one created where it shadows the include that was read."""

    def test_include_edited_during_the_analysis_misses_in_memory(
            self, tmp_path, monkeypatch):
        from repro.valueflow import engine

        main, header = _include_unit(tmp_path)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        with monkeypatch.context() as patch:
            _edit_while(patch, engine.ValueFlowAnalysis, "run", header)
            first = flow.analyze_files([str(main)])
        assert first.stats.functions == 1
        stale = IRCache.memory.counters()["stale_evictions"]
        again = flow.analyze_files([str(main)])
        assert not again.stats.verdict_replayed
        assert again.stats.functions == 2
        assert IRCache.memory.counters()["stale_evictions"] == stale + 1

    def test_include_edited_during_lowering_misses_on_disk(
            self, tmp_path, monkeypatch):
        from repro.frontend import driver as frontend_driver

        main, header = _include_unit(tmp_path)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        with monkeypatch.context() as patch:
            _edit_while(patch, frontend_driver, "lower_units", header)
            first = flow.analyze_files([str(main)])
        assert first.stats.functions == 1
        IRCache.memory.clear()  # a fresh process: only the disk tier
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
        IRCache.memory.clear()
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
        assert not cache.give_back("k", program)


class TestDigestCount:
    """One request digests each top-level file once, for its key, and
    each include at most once, and only to validate a tier."""

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

        flow.analyze_files([str(main)])  # cold: both tiers miss
        assert self._counts(counted) == {"main.c": 1}
        counted.clear()
        flow.analyze_files([str(main)])  # memory hit
        assert self._counts(counted) == {"k.h": 1, "main.c": 1}
        counted.clear()
        IRCache.memory.clear()
        hit = flow.analyze_files([str(main)])  # disk hit
        assert hit.stats.frontend_cache_hits == 1
        assert self._counts(counted) == {"k.h": 1, "main.c": 1}

    def test_stale_memory_then_stale_disk(self, tmp_path, counted):
        main, header = _include_unit(tmp_path)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        flow.analyze_files([str(main)])
        header.write_text(HEADER_WITH_A_FUNCTION)
        counted.clear()
        stale = IRCache.memory.counters()["stale_evictions"]
        report = flow.analyze_files([str(main)])
        assert report.stats.functions == 2
        assert IRCache.memory.counters()["stale_evictions"] == stale + 1
        assert self._counts(counted) == {"k.h": 1, "main.c": 1}
