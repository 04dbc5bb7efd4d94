"""The in-memory Program memo (the tier above the disk IR cache):
exclusive leases, staleness against edited file dependencies,
LRU bounds, cache-dir scoping, and report byte-identity through the
driver. The disk tier's own correctness suite is
tests/perf/test_cache_correctness.py."""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.perf.progmemo import ProgramMemo, program_memo

SIMPLE = """
int source(void);
void sink(int x);
int main(void) {
    int v = source();
    if (v > 0) sink(v);
    return 0;
}
"""


class _Module:
    """Records whether the memo tore it down."""

    released = False

    def release(self):
        assert not self.released, "released twice"
        self.released = True


def fake_program(paths=()):
    """Just enough object graph for dependency extraction and
    teardown."""
    return SimpleNamespace(units=[SimpleNamespace(files=list(paths))],
                           module=_Module())


@pytest.fixture(autouse=True)
def clean_global_memo():
    program_memo().clear()
    yield
    program_memo().clear()


class TestLease:
    def test_acquire_empty_is_miss(self):
        memo = ProgramMemo()
        assert memo.acquire("k") is None
        assert memo.counters()["misses"] == 1

    def test_release_then_acquire_returns_same_object(self):
        memo = ProgramMemo()
        prog = fake_program()
        assert memo.release("k", prog) is True
        assert memo.acquire("k") is prog
        assert memo.counters() == {
            "hits": 1, "misses": 0, "stale_evictions": 0, "pooled": 0}

    def test_lease_is_exclusive(self):
        # a pooled program is handed to exactly one acquirer
        memo = ProgramMemo()
        memo.release("k", fake_program())
        assert memo.acquire("k") is not None
        assert memo.acquire("k") is None

    def test_none_key_is_never_memoized(self):
        memo = ProgramMemo()
        assert memo.release(None, fake_program()) is False
        assert memo.acquire(None) is None

    def test_zero_capacity_disables(self):
        memo = ProgramMemo(capacity=0)
        assert memo.release("k", fake_program()) is False
        assert memo.acquire("k") is None


class TestStaleness:
    def test_edited_dependency_is_evicted(self, tmp_path):
        dep = tmp_path / "dep.h"
        dep.write_text("#define LIMIT 10\n")
        memo = ProgramMemo()
        program = fake_program([str(dep)])
        memo.release("k", program)
        dep.write_text("#define LIMIT 99\n")
        assert memo.acquire("k") is None
        assert memo.counters()["stale_evictions"] == 1
        assert program.module.released

    def test_unchanged_dependency_is_served(self, tmp_path):
        dep = tmp_path / "dep.h"
        dep.write_text("#define LIMIT 10\n")
        memo = ProgramMemo()
        prog = fake_program([str(dep)])
        memo.release("k", prog)
        assert memo.acquire("k") is prog

    def test_unreadable_dependency_is_not_memoizable(self, tmp_path):
        memo = ProgramMemo()
        prog = fake_program([str(tmp_path / "gone.h")])
        (tmp_path / "gone.h").write_text("int x;")
        (tmp_path / "gone.h").unlink()
        # missing files are skipped (inline-source temp paths), so the
        # program pools with no deps; a file that exists but cannot be
        # hashed would return None — exercised via digest failure
        assert memo.release("k", prog) is True


class TestBounds:
    def test_capacity_evicts_least_recently_used_key(self):
        memo = ProgramMemo(capacity=2)
        a, b, c = fake_program(), fake_program(), fake_program()
        memo.release("a", a)
        memo.release("b", b)
        memo.release("c", c)  # evicts the oldest key's entry ("a")
        assert memo.counters()["pooled"] == 2
        assert a.module.released  # torn down on eviction
        assert not (b.module.released or c.module.released)
        assert memo.acquire("a") is None
        assert memo.acquire("b") is b
        assert memo.acquire("c") is c

    def test_clear_empties_pools(self):
        memo = ProgramMemo()
        program = fake_program()
        memo.release("k", program)
        memo.clear()
        assert memo.counters()["pooled"] == 0
        assert program.module.released
        assert memo.acquire("k") is None


class TestTeardown:
    def test_leased_program_is_never_released(self):
        memo = ProgramMemo(capacity=1)
        a = fake_program()
        memo.release("a", a)
        assert memo.acquire("a") is a
        memo.release("b", fake_program())
        memo.clear()
        assert not a.module.released

    def test_threads_never_acquire_a_released_program(self):
        # more threads than cores, a tiny pool and frequent switches:
        # eviction must never tear down a program another thread holds
        memo = ProgramMemo(capacity=2)
        errors = []

        def worker(seed):
            try:
                for i in range(400):
                    key = f"k{(seed + i) % 5}"
                    program = memo.acquire(key) or fake_program()
                    if program.module.released:
                        errors.append(key)
                    memo.release(key, program)
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
        assert memo.counters()["pooled"] <= 2


class TestDriverIntegration:
    def test_warm_repeat_is_a_frontend_hit(self, tmp_path):
        hits_before = program_memo().counters()["hits"]
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        cold = flow.analyze_source(SIMPLE, filename="m.c")
        warm = flow.analyze_source(SIMPLE, filename="m.c")
        assert warm.render() == cold.render()
        assert program_memo().counters()["hits"] > hits_before

    def test_memo_is_report_preserving(self, tmp_path):
        memo_on = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "on")))
        first = memo_on.analyze_source(SIMPLE, filename="m.c")
        second = memo_on.analyze_source(SIMPLE, filename="m.c")
        memo_off = SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "off"), frontend_memo=False))
        reference = memo_off.analyze_source(SIMPLE, filename="m.c")
        assert first.render() == second.render() == reference.render()

    def test_disjoint_cache_dirs_do_not_share_programs(self, tmp_path):
        SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "one"))).analyze_source(
                SIMPLE, filename="m.c")
        hits_before = program_memo().counters()["hits"]
        SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "two"))).analyze_source(
                SIMPLE, filename="m.c")
        assert program_memo().counters()["hits"] == hits_before

    def test_edited_file_misses_through_the_driver(self, tmp_path):
        unit = tmp_path / "unit.c"
        unit.write_text(SIMPLE)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        before = flow.analyze_files([str(unit)], name="unit")
        assert before.stats.functions == 1
        unit.write_text("int helper(void) { return 1; }\n" + SIMPLE)
        edited = flow.analyze_files([str(unit)], name="unit")
        assert edited.stats.functions == 2, \
            "memo must not serve the stale program"

    def test_disabled_by_config(self, tmp_path):
        hits_before = program_memo().counters()["hits"]
        flow = SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "c"), frontend_memo=False))
        flow.analyze_source(SIMPLE, filename="m.c")
        flow.analyze_source(SIMPLE, filename="m.c")
        counters = program_memo().counters()
        assert counters["hits"] == hits_before and counters["pooled"] == 0
