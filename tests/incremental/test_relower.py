"""The session's per-definition re-lower against a cold lowering.

An edit that keeps a unit's frame re-lowers only the changed
definitions, each into its existing ``Function`` object; every other
edit re-lowers the whole program. Each case checks which path the edit
took and that the warm program equals a cold ``load_files`` of the
edited tree: the same render, and the same ``function_fingerprint``
for every function (the render alone missed a wrongly bound anonymous
struct), globals and struct tags.
"""

import re
import shutil

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import SYSTEM_KEYS, load_system
from repro.errors import LoweringError
from repro.frontend import load_files
from repro.incremental.watcher import IncrementalSession
from repro.perf.fingerprint import function_fingerprint


MAIN_C = r"""
typedef struct shm { double v; int flag; } R;
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
double early(double a) { return a * 4.0; }
double other(double a) { return a - 3.0; }
double later(double a) { return a + 2.0; }

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

int tail_count;
"""

LIB_C = "double leaf(double a) { return a * 2.0; }\n"

#: two anonymous structs in functions nothing calls
ANON_C = r"""
double work(double a)
{
    struct { int a; double b; } s;
    s.b = a;
    return s.b;
}

double spare(double a)
{
    struct { double a; int b; } t;
    t.a = a;
    return t.a;
}
"""


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


def _edit(path, old, new):
    with open(path) as f:
        text = f.read()
    assert old in text, f"{old!r} not found in {path}"
    _write(path, text.replace(old, new, 1))


def _session(tmp_path, **config):
    """A session over main.c, lib.c and anon.c, after its first
    verdict; returns it and the paths by unit name."""
    paths = {}
    for unit, text in (("main", MAIN_C), ("lib", LIB_C), ("anon", ANON_C)):
        paths[unit] = str(tmp_path / f"{unit}.c")
        _write(paths[unit], text)
    session = IncrementalSession(
        list(paths.values()),
        config=AnalysisConfig(summary_mode=True, **config),
        store_root=str(tmp_path / "store"))
    session.verdict()
    return session, paths


def _shape(module):
    return ({name: function_fingerprint(func)
             for name, func in module.functions.items()},
            sorted(module.globals), sorted(module.structs))


def assert_warm_equals_cold(session, report, **config):
    """The session's program and verdict are a cold run's."""
    paths = session.paths
    cold_config = AnalysisConfig(summary_mode=True, **config)
    cold = load_files(paths, include_dirs=cold_config.include_dirs,
                      recover_tiers=cold_config.recover_tiers)
    assert _shape(session.program.module) == _shape(cold.module)
    assert report.render(verbose=True) == SafeFlow(cold_config) \
        .analyze_files(paths, name=session.name).render(verbose=True)


# ----------------------------------------------------------------------
# edits that re-lower only the changed definitions
# ----------------------------------------------------------------------

IN_PLACE = {
    "body": ("main", "return a - 3.0;", "return a - 3.5;", ["other"]),
    "call-defined-before": ("main", "return a - 3.0;",
                            "return early(a) - 3.0;", ["other"]),
    "call-declared-extern": ("main", "return a - 3.0;",
                             "emit(a); return a - 3.0;", ["other"]),
    "annotated": ("main", "x = nc->v;", "x = nc->v + 0.5;", ["main"]),
    "called-from-another-unit": ("lib", "return a * 2.0;",
                                 "return a * 2.5;", ["leaf"]),
    "comment": ("main", "return a - 3.0; }", "return a - 3.0; } // c", []),
}


@pytest.mark.parametrize("case", sorted(IN_PLACE))
def test_edit_relowers_only_the_changed_definitions(tmp_path, case):
    session, paths = _session(tmp_path)
    before = dict(session.program.module.functions)
    unit, old, new, relowered = IN_PLACE[case]
    _edit(paths[unit], old, new)
    report = session.verdict()
    assert (session.swaps, session.full_relowers) == (1, 1)
    assert list(session.last_swap_defs) == relowered
    # every function keeps its object: nothing needed relinking
    assert session.program.module.functions == before
    assert_warm_equals_cold(session, report)


def test_edits_of_two_units_relower_in_place_together(tmp_path):
    session, paths = _session(tmp_path)
    _edit(paths["main"], "return a - 3.0;", "return a - 3.5;")
    _edit(paths["lib"], "return a * 2.0;", "return a * 2.5;")
    report = session.verdict()
    assert (session.swaps, session.full_relowers) == (1, 1)
    assert sorted(session.last_swap_defs) == ["leaf", "other"]
    assert_warm_equals_cold(session, report)


# ----------------------------------------------------------------------
# one case for each rule that sends an edit to the full re-lower
# ----------------------------------------------------------------------

FULL = {
    # the frame: top-level nodes, signatures and start locations
    "signature": ("main", "double other(double a)",
                  "double other(double  a)"),
    "global-added": ("main", "R *nc;", "R *nc; int added;"),
    "typedef-added": ("main", "R *nc;", "R *nc; typedef int myint;"),
    "line-above-a-definition": ("main", "return leaf(a) + 1.0; }",
                                "return leaf(a) + 1.0;\n}"),
    # annotations, location and text
    "annotation": ("main", "assert(safe(y))", "assert(safe(z))"),
    # a changed definition that declares a type or a function
    "anonymous-struct": ("anon", "t.a = a;", "t.a = a + 1.0;"),
    "tagged-struct": ("main", "return a - 3.0;",
                      "struct tag { int q; } s; s.q = 1; return a - s.q;"),
    "enum": ("main", "return a - 3.0;",
             "enum { K = 3 }; return a - K;"),
    "local-prototype": ("main", "return a - 3.0;",
                        "double leaf(double); return leaf(a) - 3.0;"),
    # references a cold lowering resolves against an earlier state
    "forward-call": ("main", "return a - 3.0;", "return later(a) - 3.0;"),
    "implicit-declaration": ("main", "return a - 3.0;",
                             "return fresh_fn(a) - 3.0;"),
    # lowering would add to the module
    "new-struct-tag": ("main", "return a - 3.0;",
                       "struct fresh *p; p = 0; return a - 3.0;"),
}


@pytest.mark.parametrize("case", sorted(FULL))
def test_edit_outside_the_rules_relowers_everything(tmp_path, case):
    session, paths = _session(tmp_path)
    unit, old, new = FULL[case]
    _edit(paths[unit], old, new)
    report = session.verdict()
    assert (session.swaps, session.full_relowers) == (0, 2)
    assert_warm_equals_cold(session, report)


def test_anonymous_struct_of_an_edited_definition_binds_its_own_tag(
        tmp_path):
    # nothing calls into anon.c; lowering `spare` alone numbered its
    # anonymous struct from 1 and bound it to the struct of `work`
    # (same tag), so its fingerprint differed from a cold lowering's
    # while the render matched
    session, paths = _session(tmp_path)
    _edit(paths["anon"], "t.a = a;", "t.a = a * 1.5;")
    report = session.verdict()
    assert session.swaps == 0
    module = session.program.module
    cold = load_files(session.paths).module
    assert function_fingerprint(module.functions["spare"]) \
        == function_fingerprint(cold.functions["spare"])
    assert_warm_equals_cold(session, report)


def test_reference_to_a_later_global_fails_like_a_cold_run(tmp_path):
    session, paths = _session(tmp_path)
    _edit(paths["main"], "return a - 3.0;", "return a - tail_count;")
    with pytest.raises(LoweringError, match="tail_count"):
        session.verdict()
    with pytest.raises(LoweringError, match="tail_count"):
        load_files(session.paths)


def test_degraded_function_relowers_everything(tmp_path):
    # keep-going demotes a definition that cannot be lowered; an edit
    # of it must reproduce the cold demotion
    session, paths = _session(tmp_path, recover_tiers=())
    main = paths["main"]
    _edit(main, "return a - 3.0;", "goto out; out: return a - 3.0;")
    first = session.verdict()
    assert "other" in session.program.degraded_functions
    assert_warm_equals_cold(session, first, recover_tiers=())
    _edit(main, "return a - 3.0;", "return a - 3.5;")
    report = session.verdict()
    assert session.swaps == 0
    assert "other" in session.program.degraded_functions
    assert_warm_equals_cold(session, report, recover_tiers=())


def test_degraded_unit_relowers_everything(tmp_path):
    session, paths = _session(tmp_path, recover_tiers=())
    _write(paths["lib"], LIB_C + "int broken(void) { return 0 %%% 1; }\n")
    first = session.verdict()
    assert first.stats.degraded_units == 1
    _write(paths["lib"], LIB_C)
    report = session.verdict()
    assert report.stats.degraded_units == 0
    assert session.swaps == 0
    assert_warm_equals_cold(session, report, recover_tiers=())


@pytest.mark.parametrize("key", SYSTEM_KEYS)
def test_corpus_body_edits_equal_a_cold_lowering(tmp_path, key):
    # the bundled systems' own code: numeric literals inside braces,
    # each changed in place and then restored
    system = load_system(key)
    shutil.copytree(system.directory / "core", tmp_path / "core")
    paths = sorted(str(tmp_path / "core" / p.name) for p in system.core_files)
    config = dict(include_dirs=(str(tmp_path / "core"),))
    session = IncrementalSession(
        paths, config=AnalysisConfig(summary_mode=True, **config),
        store_root=str(tmp_path / "store"))
    session.verdict()
    for path in paths:
        text = open(path).read()
        depth, spots = 0, []
        for m in re.finditer(r"[{}]|\b\d+\b", text):
            if m.group() in "{}":
                depth += 1 if m.group() == "{" else -1
            elif depth:
                spots.append(m.end())
        for end in spots[::7][:3]:
            digit = "8" if text[end - 1] == "7" else "7"
            _write(path, text[:end - 1] + digit + text[end:])
            assert_warm_equals_cold(session, session.verdict(), **config)
            _write(path, text)
            session.verdict()
    assert session.swaps > 0
