"""Incremental session differential suite: the edit-type matrix.

Every case applies one edit class to a multi-unit program held by an
:class:`IncrementalSession` and asserts two things against a *cold*
session (fresh store, fresh front end, same on-disk sources):

- the re-verdict render is **byte-identical** to the cold run;
- the re-analyzed function count / dirty cone matches the edit's
  expected blast radius.

Plus the watch loop itself (injectable clock), the stale-store cold
start, and the trusted-replay → validating fallback.
"""

import dataclasses
import os

import pytest

from repro.core.config import AnalysisConfig
from repro.errors import LoweringError, ParseError
from repro.corpus import generate_core_files
from repro.incremental.watcher import IncrementalSession, WatchLoop


MAIN_C = r"""
typedef struct { double v; int flag; } R;
R *nc;
void emit(double v);
double leaf(double a);

void initShm(void)
/***SafeFlow Annotation shminit /***/
{
    nc = (R *) shmat(shmget(7, sizeof(R), 0666), 0, 0);
    /***SafeFlow Annotation
        assume(shmvar(nc, sizeof(R)));
        assume(noncore(nc)) /***/
}

double helper(double a) { return leaf(a) + 1.0; }
double other(double a) { return a - 3.0; }

int main(void)
{
    double x;
    double y;
    double z;
    initShm();
    x = nc->v;
    y = helper(x);
    z = other(x);
    /***SafeFlow Annotation assert(safe(y)); /***/
    emit(y + z);
    return 0;
}
"""

LIB_C = "double leaf(double a) { return a * 2.0; }\n"


def _config(**kw):
    kw.setdefault("cache_dir", None)
    kw.setdefault("summary_mode", True)
    return AnalysisConfig(**kw)


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


def _edit(path, old, new):
    """Read-modify-write; asserts the edit actually applies."""
    with open(path) as f:
        text = f.read()
    assert old in text, f"{old!r} not found in {path}"
    _write(path, text.replace(old, new))


def _cold_render(paths, tmp_path, tag, **cfg):
    """A fresh session over the current on-disk sources."""
    session = IncrementalSession(
        list(paths), config=_config(**cfg),
        store_root=str(tmp_path / f"cold-{tag}"))
    return session.verdict().render(verbose=True)


def _two_unit_session(tmp_path, **cfg):
    main = str(tmp_path / "main.c")
    lib = str(tmp_path / "lib.c")
    _write(main, MAIN_C)
    _write(lib, LIB_C)
    session = IncrementalSession(
        [main, lib], config=_config(**cfg),
        store_root=str(tmp_path / "store"))
    return session, main, lib


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------

def test_noop_reverdict_is_memoized(tmp_path):
    session, _, _ = _two_unit_session(tmp_path)
    first = session.verdict()
    again = session.verdict()
    assert again.render(verbose=True) == first.render(verbose=True)
    assert again.stats.functions_reanalyzed == 0
    assert again.stats.dirty_cone_size == 0
    assert again.stats.segment_fallbacks == 0
    assert session.full_relowers == 1  # only the cold verdict
    assert session.memo_verdicts == 1  # answered from the last report


def test_comment_only_edit_relowers_and_reanalyzes_nothing(tmp_path):
    src = tmp_path / "prog"
    paths = generate_core_files(
        filler_units=2, fillers_per_unit=2,
        data_error_regions=1, monitored_regions=1,
    ).write_to(str(src))
    session = IncrementalSession(
        paths, config=_config(), store_root=str(tmp_path / "store"))
    session.verdict()
    with open(paths[1], "a") as f:
        f.write("/* tweak */\n")
    report = session.verdict()
    # the digest moved, so the verdict is real — but the AST did not,
    # so the surgical swap re-lowers zero defs and everything replays
    assert session.memo_verdicts == 0
    assert session.swaps == 1
    assert session.last_swap_defs == ()
    assert report.stats.functions_reanalyzed == 0
    assert report.stats.dirty_cone_size == 0
    assert report.render(verbose=True) == _cold_render(
        paths, tmp_path, "comment")


def test_body_edit_reanalyzes_the_caller_closure(tmp_path):
    session, _, lib = _two_unit_session(tmp_path)
    session.verdict()
    _edit(lib, "a * 2.0", "a * 2.5")
    report = session.verdict()
    # leaf's edit moves the closure fingerprint of leaf and its
    # transitive callers (helper, main); `other` replays from segments
    assert report.stats.functions_reanalyzed == 3
    assert report.stats.dirty_cone_size == 3
    assert set(session.store.last_cone) == {"leaf", "helper", "main"}
    assert report.render(verbose=True) == _cold_render(
        session.paths, tmp_path, "body")


def test_filler_edit_uses_the_surgical_swap(tmp_path):
    src = tmp_path / "prog"
    paths = generate_core_files(
        filler_units=2, fillers_per_unit=3,
        data_error_regions=1, monitored_regions=1,
    ).write_to(str(src))
    session = IncrementalSession(
        paths, config=_config(), store_root=str(tmp_path / "store"))
    session.verdict()
    with open(paths[1]) as f:
        text = f.read()
    assert text.count("* 0.99") == 3
    with open(paths[1], "w") as f:
        f.write(text.replace("* 0.99", "* 0.98", 1))  # first filler only
    report = session.verdict()
    assert session.swaps == 1
    assert session.full_relowers == 1  # the swap avoided a re-lower
    assert len(session.last_swap_defs) == 1  # siblings not re-lowered
    assert report.stats.functions_reanalyzed == 1
    assert report.stats.dirty_cone_size == 1
    assert report.render(verbose=True) == _cold_render(
        paths, tmp_path, "swap")


def test_filler_edit_that_fails_to_lower_reports_the_error(tmp_path):
    # the failed swap falls back to a full re-lower, which must lower
    # the edited unit (and fail like a cold run), not its last state
    paths = generate_core_files(filler_units=2, fillers_per_unit=2) \
        .write_to(str(tmp_path / "prog"))
    session = IncrementalSession(
        paths, config=_config(), store_root=str(tmp_path / "store"))
    session.verdict()
    _edit(paths[1], "    return acc", "    return undeclared_q + acc")
    with pytest.raises(LoweringError, match="undeclared_q"):
        session.verdict()
    with pytest.raises(LoweringError, match="undeclared_q"):
        _cold_render(paths, tmp_path, "broken")


def test_signature_change_falls_back_to_full_relower(tmp_path):
    session, main, lib = _two_unit_session(tmp_path)
    session.verdict()
    _edit(lib, "double leaf(double a) { return a * 2.0; }",
          "double leaf(double a, double b) { return a * 2.0 + b; }")
    _edit(main, "double leaf(double a);", "double leaf(double a, double b);")
    _edit(main, "leaf(a) + 1.0", "leaf(a, 0.5) + 1.0")
    report = session.verdict()
    assert session.swaps == 0
    assert session.full_relowers == 2
    assert "leaf" in session.store.last_cone
    assert report.render(verbose=True) == _cold_render(
        session.paths, tmp_path, "sig")


def test_annotation_add(tmp_path):
    session, main, _ = _two_unit_session(tmp_path)
    baseline = session.verdict()
    _edit(main, "/***SafeFlow Annotation assert(safe(y)); /***/",
          "/***SafeFlow Annotation assert(safe(y)); /***/\n"
          "    /***SafeFlow Annotation assert(safe(z)); /***/")
    report = session.verdict()
    assert report.render(verbose=True) != baseline.render(verbose=True)
    assert report.stats.functions_reanalyzed >= 1
    assert "main" in session.store.last_cone
    assert report.render(verbose=True) == _cold_render(
        session.paths, tmp_path, "ann-add")


def test_annotation_remove(tmp_path):
    session, main, _ = _two_unit_session(tmp_path)
    session.verdict()
    _edit(main, "    /***SafeFlow Annotation assert(safe(y)); /***/\n", "")
    report = session.verdict()
    assert "main" in session.store.last_cone
    assert report.render(verbose=True) == _cold_render(
        session.paths, tmp_path, "ann-del")


def test_annotation_change(tmp_path):
    session, main, _ = _two_unit_session(tmp_path)
    session.verdict()
    _edit(main, "assert(safe(y))", "assert(safe(z))")
    report = session.verdict()
    assert "main" in session.store.last_cone
    assert report.render(verbose=True) == _cold_render(
        session.paths, tmp_path, "ann-chg")


def test_file_delete(tmp_path):
    src = tmp_path / "prog"
    paths = generate_core_files(
        filler_units=2, fillers_per_unit=1,
        data_error_regions=1, monitored_regions=1,
    ).write_to(str(src))
    session = IncrementalSession(
        paths, config=_config(), store_root=str(tmp_path / "store"))
    session.verdict()
    os.unlink(paths[2])
    session.set_paths(paths[:2])
    report = session.verdict()
    # the deleted fillers' segments must not survive in the store
    assert report.stats.segment_evictions >= 1
    assert report.render(verbose=True) == _cold_render(
        paths[:2], tmp_path, "del")


def test_new_file(tmp_path):
    session, main, lib = _two_unit_session(tmp_path)
    session.verdict()
    extra = str(tmp_path / "extra.c")
    _write(extra, "double spare(double x) { return x * 4.0; }\n")
    session.set_paths([main, lib, extra])
    report = session.verdict()
    assert report.stats.functions_reanalyzed >= 1
    assert "spare" in session.store.last_cone
    assert report.render(verbose=True) == _cold_render(
        [main, lib, extra], tmp_path, "new")


def test_degraded_unit_edit_with_keep_going(tmp_path):
    session, main, lib = _two_unit_session(tmp_path, recover_tiers=())
    broken = str(tmp_path / "broken.c")
    _write(broken, "int broken(void) { return 0 %%% 1; }\n")
    session.set_paths([main, lib, broken])
    first = session.verdict()
    assert first.stats.degraded_units == 1
    # an edit that keeps the unit broken still re-verdicts identically
    _write(broken, "int broken(void) { still not C at all }\n")
    report = session.verdict()
    assert report.stats.degraded_units == 1
    assert report.render(verbose=True) == _cold_render(
        [main, lib, broken], tmp_path, "deg", recover_tiers=())
    # fixing the unit brings its functions into the analyzed set
    _write(broken, "double broken(double x) { return x + 1.0; }\n")
    fixed = session.verdict()
    assert fixed.stats.degraded_units == 0
    assert fixed.render(verbose=True) == _cold_render(
        [main, lib, broken], tmp_path, "deg-fixed", recover_tiers=())


# ----------------------------------------------------------------------
# stale store cold start + fallback
# ----------------------------------------------------------------------

def test_failed_verdict_leaves_no_stale_unit_state(tmp_path):
    # one file gains a definition while another breaks: the verdict
    # raises, and once the first is reverted and the second fixed the
    # session must not analyze the reverted definition
    session, main, lib = _two_unit_session(tmp_path)
    session.verdict()
    _edit(main, "double other(double a) { return a - 3.0; }",
          "double other(double a) { return a - 3.0; }\n"
          "double extra_a(double a) { return nc->v + a; }")
    _write(lib, "double leaf(double a) { return a * ; }\n")
    with pytest.raises(ParseError):
        session.verdict()
    _write(main, MAIN_C)
    _write(lib, "double leaf(double a) { return a * 3.0; }\n")
    report = session.verdict()
    assert "extra_a" not in session.program.module.functions
    assert report.render(verbose=True) \
        == _cold_render([main, lib], tmp_path, "fixed")


def test_cold_start_on_corrupt_store_evicts_and_recomputes(tmp_path):
    session, _, _ = _two_unit_session(tmp_path)
    cold = session.verdict()
    log = session.store.path
    with open(log, "r+b") as f:
        f.write(b"\xde\xad\xbe\xef" * 8)  # clobber the header frame

    fresh = IncrementalSession(
        session.paths, config=_config(), store_root=str(tmp_path / "store"))
    report = fresh.verdict()
    assert report.stats.cache_integrity_evictions >= 1
    assert report.stats.functions_reanalyzed >= 1
    assert report.render(verbose=True) == cold.render(verbose=True)


def test_tampered_segment_triggers_validating_fallback(tmp_path):
    session, _, lib = _two_unit_session(tmp_path)
    cold = session.verdict()
    store = session.store
    # a verdict with no changed inputs is answered from memory; touch
    # a comment so the pipeline (and with it segment replay) really
    # runs against the tampered store
    _edit(lib, "return a * 2.0;", "return a * 2.0; /* touched */")
    # poison one record's deferred reads with a taint stolen from a
    # different record's return value — trusted replay must notice at
    # convergence and the driver must rerun phase 3 validating
    tampered = False
    rets = {seg.record.ret for seg in store._segments.values()}
    for key, seg in store._segments.items():
        for name, value in seg.record.reads:
            wrong = next((r for r in rets if r != value), None)
            if wrong is None:
                continue
            store._segments[key] = dataclasses.replace(
                seg, record=dataclasses.replace(
                    seg.record,
                    reads=tuple(
                        (n, wrong if n == name else v)
                        for n, v in seg.record.reads)))
            tampered = True
            break
        if tampered:
            break
    assert tampered, "no record with a read to tamper"
    report = session.verdict()
    assert report.stats.segment_fallbacks == 1
    assert report.render(verbose=True) == cold.render(verbose=True)
    # the failed trusted run poisoned its held merged-input seeds; the
    # validating rerun re-harvested fresh ones, so the session keeps
    # re-verdicting trusted (no repeat fallback)
    _edit(lib, "/* touched */", "/* touched twice */")
    again = session.verdict()
    assert again.stats.segment_fallbacks == 0
    assert again.render(verbose=True) == cold.render(verbose=True)


def test_warm_runs_seed_merged_inputs_and_skip_the_widening_cascade(
        tmp_path):
    src = tmp_path / "prog"
    paths = generate_core_files(
        filler_units=2, fillers_per_unit=2, chain_depth=4, call_fanout=2,
        data_error_regions=1, monitored_regions=1,
    ).write_to(str(src))
    session = IncrementalSession(
        paths, config=_config(), store_root=str(tmp_path / "store"))
    cold = session.verdict()
    cold_sweeps = cold.stats.kernel_counters["outer_iterations"]
    _edit(paths[1], "* 0.99", "* 0.98")  # both fillers of the unit
    report = session.verdict()
    counters = report.stats.kernel_counters
    # the joins started at the previous run's converged values, so no
    # merged-input widening forced extra outer sweeps
    assert counters.get("merged_seeds_applied", 0) > 0
    assert counters["outer_iterations"] <= 2 <= cold_sweeps
    assert report.stats.segment_fallbacks == 0
    assert report.render(verbose=True) == _cold_render(
        paths, tmp_path, "seeded")


# ----------------------------------------------------------------------
# the watch loop
# ----------------------------------------------------------------------

def _fake_loop(tmp_path, src):
    session = IncrementalSession(
        [], config=_config(), store_root=str(tmp_path / "store"))
    now = [0.0]
    def clock():
        return now[0]
    def sleep(seconds):
        now[0] += seconds
    reports = []
    loop = WatchLoop(session, roots=[str(src)], interval=0.1,
                     idle_release=1.0, clock=clock, sleep=sleep,
                     on_report=reports.append)
    return loop, now, reports


def test_watch_loop_reverdicts_on_change_only(tmp_path):
    src = tmp_path / "w"
    paths = generate_core_files(
        filler_units=1, fillers_per_unit=1,
        data_error_regions=1, monitored_regions=1,
    ).write_to(str(src))
    loop, now, reports = _fake_loop(tmp_path, src)

    assert loop.poll_once() is not None  # first poll always verdicts
    assert loop.poll_once() is None      # quiet: no verdict
    assert len(reports) == 1

    _edit(paths[1], "* 0.99", "* 0.98")
    os.utime(paths[1], (1, 1))  # force a visible mtime move
    assert loop.poll_once() is not None
    assert len(reports) == 2
    assert loop.session.swaps == 1


def test_watch_loop_holds_gc_pause_across_bursts(tmp_path):
    src = tmp_path / "w"
    generate_core_files(
        filler_units=1, fillers_per_unit=1,
        data_error_regions=1, monitored_regions=1,
    ).write_to(str(src))
    loop, now, _ = _fake_loop(tmp_path, src)

    loop.poll_once()
    assert loop.gc_pause_held
    now[0] += 0.5                 # still inside the idle window
    loop.poll_once()
    assert loop.gc_pause_held
    now[0] += 1.0                 # past idle_release
    loop.poll_once()
    assert not loop.gc_pause_held


def test_watch_loop_run_counts_verdicts_and_releases(tmp_path):
    src = tmp_path / "w"
    generate_core_files(
        filler_units=1, fillers_per_unit=1,
        data_error_regions=1, monitored_regions=1,
    ).write_to(str(src))
    loop, _, reports = _fake_loop(tmp_path, src)
    assert loop.run(max_verdicts=1) == 1
    assert not loop.gc_pause_held
    assert len(reports) == 1


def test_watch_loop_picks_up_new_files(tmp_path):
    src = tmp_path / "w"
    src.mkdir()
    _write(str(src / "main.c"), MAIN_C)
    _write(str(src / "lib.c"), LIB_C)
    loop, _, reports = _fake_loop(tmp_path, src)
    loop.poll_once()
    _write(str(src / "extra.c"),
           "double spare(double x) { return x * 4.0; }\n")
    report = loop.poll_once()
    assert report is not None
    assert "spare" in loop.session.store.last_cone


# ----------------------------------------------------------------------
# stats surfacing
# ----------------------------------------------------------------------

def test_render_stats_shows_incremental_counters(tmp_path):
    from repro.cli import _render_stats

    session, _, lib = _two_unit_session(tmp_path)
    session.verdict()
    _edit(lib, "a * 2.0", "a * 2.5")
    report = session.verdict()
    text = _render_stats(report)
    assert "functions_reanalyzed" in text
    assert "dirty_cone_size" in text

    # a run without a segment store keeps the stats block unchanged
    from repro import SafeFlow

    plain = SafeFlow(AnalysisConfig(cache_dir=None)).analyze_source(
        LIB_C + MAIN_C.replace("double leaf(double a);", ""),
        filename="plain.c", name="plain")
    assert "functions_reanalyzed" not in _render_stats(plain)
