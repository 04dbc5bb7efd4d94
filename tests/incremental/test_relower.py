"""The session's per-definition re-lower against a cold lowering.

An edit that keeps a unit's frame re-lowers only the changed
definitions, each into its existing ``Function`` object; every other
edit re-lowers the whole program. Each case checks which path the edit
took and that the warm program equals a cold ``load_files`` of the
edited tree: the same render, and the same ``function_fingerprint``
for every function (the render alone missed a wrongly bound anonymous
struct), globals and struct tags.

After an in-place re-lower the session updates the phase-1 and phase-2
state of the last verdict instead of computing it afresh; those cases
also check the kept state against a fresh computation on the same
program (:func:`assert_phases_equal_fresh`).
"""

import gc
import random
import re
import shutil
import weakref

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import SYSTEM_KEYS, generate_core_files, load_system
from repro.errors import LoweringError
from repro.frontend import load_files
from repro.incremental.watcher import IncrementalSession
from repro.perf.fingerprint import function_fingerprint
from repro.restrictions.checker import check_restrictions
from repro.shm.propagation import ShmAnalysis
from repro.valueflow.engine import ValueFlowAnalysis


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

double peek(R *r) { return r->v; }
double probe(double a) { return a + 1.0; }
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
    shmdt(nc);
    later(z);
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


def _positions(module):
    """Every instruction of ``module`` → ``function:block.index``."""
    return {inst: f"{func.name}:{bi}.{ii}"
            for func in module.defined_functions()
            for bi, block in enumerate(func.blocks)
            for ii, inst in enumerate(block.instructions)}


def _shm_facts(shm, at):
    """Phase 1's facts by instruction position; an entry keyed by a
    torn-down value reads ``dead``."""
    return {func.name: (
        sorted((at.get(value, "dead"), sorted(regions))
               for value, regions in shm.value_regions[func].items()
               if regions),
        [sorted(regions) for regions in shm.arg_regions[func]],
        sorted(shm.ret_regions[func]),
        sorted((callee.name, index, sorted(regions)) for (callee, index),
               regions in shm.flows.get(func, {}).items()),
    ) for func in shm.module.defined_functions()}


def _call_graph(cg, at):
    def names(functions):
        return sorted(f.name for f in functions)

    functions = list(cg.module.defined_functions())
    return (
        {f.name: (names(cg.callees(f)), names(cg.callers(f)),
                  [(at.get(site.call, "dead"), names(site.targets))
                   for site in cg.sites_in(f)])
         for f in functions},
        sorted((f.name, at.get(call, "dead"))
               for f, call in cg.external_calls),
        sorted(names(component) for component in cg.sccs()),
    )


def assert_phases_equal_fresh(session, report, **config):
    """The phase state the session kept equals one computed afresh on
    its program: shm facts by instruction position, call-graph edges
    and sites, the restriction findings and every closure fingerprint."""
    config = AnalysisConfig(summary_mode=True, **config)
    program, phases = session.program, session.phases
    fresh = ShmAnalysis(program, config).run()
    at = _positions(program.module)
    assert _shm_facts(phases.shm, at) == _shm_facts(fresh, at)
    assert _call_graph(phases.shm.callgraph, at) \
        == _call_graph(fresh.callgraph, at)
    assert report.violations == check_restrictions(program, fresh, config)
    vf = ValueFlowAnalysis(program, fresh, config)
    functions = list(program.module.defined_functions())
    assert {f.name: phases.fingerprints.closure(f) for f in functions} \
        == {f.name: vf._closure_fp(f) for f in functions}


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
    # anonymous aggregates are tagged by layout: an unchanged one binds
    # the struct the first lowering made
    "anonymous-struct": ("anon", "t.a = a;", "t.a = a + 1.0;", ["spare"]),
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
    assert (session.phase_reuses, session.phase_fallbacks) == (1, 0)
    assert_phases_equal_fresh(session, report)
    assert_warm_equals_cold(session, report)


def test_edits_of_two_units_relower_in_place_together(tmp_path):
    session, paths = _session(tmp_path)
    _edit(paths["main"], "return a - 3.0;", "return a - 3.5;")
    _edit(paths["lib"], "return a * 2.0;", "return a * 2.5;")
    report = session.verdict()
    assert (session.swaps, session.full_relowers) == (1, 1)
    assert sorted(session.last_swap_defs) == ["leaf", "other"]
    assert_phases_equal_fresh(session, report)
    assert_warm_equals_cold(session, report)


def test_phases_follow_an_shm_flow_added_then_removed(tmp_path):
    # `probe` starts passing the shared pointer to `peek` (its facts
    # grow), then stops (they shrink): both update the kept state
    session, paths = _session(tmp_path)
    peek = session.program.module.functions["peek"]
    _edit(paths["main"], "return a + 1.0;", "return peek(nc) + a;")
    report = session.verdict()
    assert list(session.last_swap_defs) == ["probe"]
    assert session.phases.shm.arg_regions[peek] == [frozenset({"nc"})]
    assert_phases_equal_fresh(session, report)
    assert_warm_equals_cold(session, report)
    _edit(paths["main"], "return peek(nc) + a;", "return a + 1.0;")
    report = session.verdict()
    assert session.phases.shm.arg_regions[peek] == [frozenset()]
    assert (session.phase_reuses, session.phase_fallbacks) == (2, 0)
    assert_phases_equal_fresh(session, report)
    assert_warm_equals_cold(session, report)


def test_main_is_checked_again_when_the_accessors_move(tmp_path):
    # `later` runs after main's shmdt; once it reads shared memory,
    # main's P1 finding appears although main's own facts stay put
    session, paths = _session(tmp_path)
    _edit(paths["main"], "return a + 2.0;", "return a + nc->v;")
    report = session.verdict()
    assert list(session.last_swap_defs) == ["later"]
    assert [v.function for v in report.violations if v.rule == "P1"] \
        == ["main"]
    assert_phases_equal_fresh(session, report)
    assert_warm_equals_cold(session, report)


PHASE_FALLBACKS = {
    # phase 1 reads the region layout from the init function's body
    "init-function": ("shmget(7,", "shmget(8,"),
    # an indirect call anywhere may resolve elsewhere
    "address-taken": ("return a - 3.0;",
                      "if (early == 0) return a; return a - 3.0;"),
}


@pytest.mark.parametrize("case", sorted(PHASE_FALLBACKS))
def test_in_place_edit_that_computes_the_phases_afresh(tmp_path, case):
    session, paths = _session(tmp_path)
    _edit(paths["main"], *PHASE_FALLBACKS[case])
    report = session.verdict()
    assert (session.swaps, session.full_relowers) == (1, 1)
    assert (session.phase_reuses, session.phase_fallbacks) == (0, 1)
    assert_phases_equal_fresh(session, report)
    assert_warm_equals_cold(session, report)


def test_kept_phases_hold_no_torn_down_body(tmp_path):
    session, paths = _session(tmp_path)
    old = weakref.ref(next(
        session.program.module.functions["other"].instructions()))
    _edit(paths["main"], "return a - 3.0;", "return a - 3.5;")
    enabled = gc.isenabled()
    gc.disable()
    try:
        session.verdict()
        assert old() is None
    finally:
        if enabled:
            gc.enable()
    assert session.phase_reuses == 1


#: a program whose functions pass shared pointers down as arguments
#: and up as return values; the seeded edits below swap bodies
FLOW_HEAD = r"""
typedef struct shm { double v; double arr[4]; } R;
R *nc;
R *fb;
void emit(double v);

void initShm(void)
/***SafeFlow Annotation shminit /***/
{
    void *s;
    s = shmat(shmget(7, 2 * sizeof(R), 0666), 0, 0);
    nc = (R *) s;
    fb = nc + 1;
    /***SafeFlow Annotation
        assume(shmvar(nc, sizeof(R)));
        assume(shmvar(fb, sizeof(R)));
        assume(noncore(nc)) /***/
}
"""
FLOW_FUNCTIONS = 4


def _flow_bodies(kind, i):
    """The bodies ``p{i}(R *r, double a)`` (``kind`` "p") or
    ``q{i}(R *r)`` may take: each can call only earlier functions."""
    if kind == "q":
        return (["return r;", "return nc;", "return fb;", "return 0;"]
                + [f"return q{j}({arg});" for j in range(i)
                   for arg in ("r", "fb")])
    return ([f"return a + {i}.0;", "return r->v + a;", "return nc->v;",
             "if (a > 1.0) return r->arr[2]; return a;"]
            + [call for j in range(i) for call in (
                f"return p{j}(r, a) + 1.0;", f"return p{j}(nc, a);",
                f"return p{j}(fb, a) - a;", f"return q{j}(r)->v;",
                f"return q{j}(nc)->v + a;")])


def _flow_program(bodies):
    parts = [FLOW_HEAD]
    for i in range(FLOW_FUNCTIONS):
        parts.append(f"R *q{i}(R *r) {{ {bodies['q', i]} }}")
        parts.append(f"double p{i}(R *r, double a) {{ {bodies['p', i]} }}")
    calls = " ".join(f"x = x + p{i}(nc, x);" for i in range(FLOW_FUNCTIONS))
    parts.append(
        "int main(void)\n{\n    double x;\n    initShm();\n    x = fb->v;\n"
        f"    {calls}\n"
        "    /***SafeFlow Annotation assert(safe(x)); /***/\n"
        "    emit(x);\n    shmdt(nc);\n    emit(p0(fb, 1.0));\n"
        "    return 0;\n}\n")
    return "\n".join(parts)


def test_phases_equal_fresh_across_seeded_shm_flow_edits(tmp_path):
    # edits that add and remove argument and return flows of shared
    # pointers, one or two bodies at a time
    rng = random.Random(11)
    bodies = {(kind, i): rng.choice(_flow_bodies(kind, i))
              for kind in ("p", "q") for i in range(FLOW_FUNCTIONS)}
    path = str(tmp_path / "flows.c")
    _write(path, _flow_program(bodies))
    session = IncrementalSession(
        [path], config=AnalysisConfig(summary_mode=True),
        store_root=str(tmp_path / "store"))
    session.verdict()
    for _ in range(25):
        for key in rng.sample(sorted(bodies), rng.choice([1, 1, 2])):
            bodies[key] = rng.choice(_flow_bodies(*key))
        _write(path, _flow_program(bodies))
        report = session.verdict()
        assert_phases_equal_fresh(session, report)
        assert_warm_equals_cold(session, report)
    assert session.full_relowers == 1
    assert session.phase_reuses == session.swaps > 15
    assert session.phase_fallbacks == 0


#: the ``perfbench`` ``edit_session`` workload at a tier-1 size: its
#: generator, its deck of seven filler edits, two ``core.c`` edits and a
#: no-op save, and its edit (a filler's constant toggled)
EDIT_DECK = ["filler"] * 7 + ["core"] * 2 + ["noop"]
EDIT_TOKEN = re.compile(r"acc \* 0\.99 \+ (\d+)\.([05]) /")


def test_phases_equal_fresh_across_a_seeded_edit_session(tmp_path):
    generated = generate_core_files(
        filler_functions=12, chain_depth=4, call_fanout=2,
        pipeline_stages=4, monitored_regions=2, filler_units=3,
        fillers_per_unit=5)
    paths = generated.write_to(str(tmp_path / "src"))
    session = IncrementalSession(
        paths, config=AnalysisConfig(summary_mode=True),
        store_root=str(tmp_path / "store"))
    session.verdict()
    rng = random.Random(30)
    kinds = [kind for _ in range(3)
             for kind in rng.sample(EDIT_DECK, len(EDIT_DECK))]
    for kind in kinds:
        path = paths[0] if kind == "core" else rng.choice(paths[1:])
        text = open(path).read()
        if kind != "noop":
            match = rng.choice(list(EDIT_TOKEN.finditer(text)))
            digit = "5" if match.group(2) == "0" else "0"
            text = (text[:match.start(2)] + digit
                    + text[match.end(2):])
        _write(path, text)
        report = session.verdict()
        if kind == "noop":
            continue
        if kind == "filler":
            assert report.stats.dirty_cone_size == 1
        assert_phases_equal_fresh(session, report)
        assert_warm_equals_cold(session, report)
    edits = sum(kind != "noop" for kind in kinds)
    assert (session.swaps, session.full_relowers) == (edits, 1)
    assert (session.phase_reuses, session.phase_fallbacks) == (edits, 0)


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
    "anonymous-struct-layout": ("anon", "struct { double a; int b; } t;",
                                "struct { double a; long b; } t;"),
    "anonymous-struct-dropped": ("anon", "struct { double a; int b; } t;",
                                 "struct { int a; double b; } t;"),
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
    assert (session.phase_reuses, session.phase_fallbacks) == (0, 1)
    assert_phases_equal_fresh(session, report)
    assert_warm_equals_cold(session, report)


def test_anonymous_struct_of_an_edited_definition_binds_its_own_tag(
        tmp_path):
    # `work` and `spare` declare anonymous structs of two layouts; each
    # edit lowers `spare` alone, in place, and must bind its own
    # layout's struct, as a cold lowering does (the render alone does
    # not show a wrongly bound struct, its fingerprint does)
    session, paths = _session(tmp_path)
    for step, (old, new) in enumerate((("t.a = a;", "t.a = a * 1.5;"),
                                       ("t.a = a * 1.5;", "t.a = a;")), 1):
        _edit(paths["anon"], old, new)
        report = session.verdict()
        assert (session.swaps, list(session.last_swap_defs)) \
            == (step, ["spare"])
        module = session.program.module
        cold = load_files(session.paths).module
        assert _shape(module) == _shape(cold)
        assert function_fingerprint(module.functions["spare"]) \
            == function_fingerprint(cold.functions["spare"])
        assert_phases_equal_fresh(session, report)
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
            report = session.verdict()
            assert_phases_equal_fresh(session, report, **config)
            assert_warm_equals_cold(session, report, **config)
            _write(path, text)
            session.verdict()
    assert session.swaps > 0
    assert session.phase_reuses > 0
