"""Unification-based points-to analysis (DSA substitute)."""

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.callgraph import CallGraph
from repro.corpus import SYSTEM_KEYS, generate_core, load_system
from repro.frontend import load_files, load_source
from repro.frontend.recovery import DEFAULT_TIERS
from repro.ir import Alloca, Call, Load, Store
from repro.pointer import Cell, PointsToAnalysis
from tests.conftest import FIGURE2_SOURCE, front

ROOT = Path(__file__).resolve().parent.parent


def analyze(source: str):
    program = front(source)
    pta = PointsToAnalysis(program.module).run()
    return program.module, pta


def find_alloca(func, name):
    for inst in func.instructions():
        if isinstance(inst, Alloca) and inst.name == name:
            return inst
    raise AssertionError(f"no alloca {name}")


class TestCells:
    def test_union_find_reflexive(self):
        c = Cell("a")
        assert c.find() is c

    def test_unify_merges(self):
        a, b = Cell("a"), Cell("b")
        a.unify(b)
        assert a.find() is b.find()

    def test_unify_merges_pointees(self):
        a, b = Cell("a"), Cell("b")
        pa, pb = a.pointee(), b.pointee()
        a.unify(b)
        assert pa.find() is pb.find()

    def test_fields_merge_pairwise(self):
        a, b = Cell("a"), Cell("b")
        fa = a.field("x")
        fb = b.field("x")
        gb = b.field("y")
        a.unify(b)
        assert fa.find() is fb.find()
        assert a.field("y").find() is gb.find()

    def test_field_distinctness(self):
        a = Cell("a")
        assert a.field("x").find() is not a.field("y").find()

    def test_reachable_iterates_closure(self):
        a = Cell("a")
        a.field("x")
        a.pointee()
        assert len(list(a.reachable())) >= 3


class TestPointsTo:
    def test_distinct_locals_distinct_cells(self):
        module, pta = analyze("""
            void use(int *p);
            void f(void) { int a; int b; use(&a); use(&b); }
        """)
        f = module.get_function("f")
        ca = pta.target_of(find_alloca(f, "a"))
        cb = pta.target_of(find_alloca(f, "b"))
        # both flowed into use()'s parameter: conservatively unified
        assert ca is not None and cb is not None

    def test_struct_fields_separate(self):
        module, pta = analyze("""
            typedef struct { double x; double y; } P;
            void store(P *p) { p->x = 1.0; p->y = 2.0; }
        """)
        f = module.get_function("store")
        stores = [i for i in f.instructions() if isinstance(i, Store)]
        cells = [pta.target_of(s.pointer) for s in stores]
        assert cells[0] is not cells[1]

    def test_out_param_unifies_caller_cell(self):
        module, pta = analyze("""
            void fill(double *out) { *out = 1.0; }
            double f(void) { double v; fill(&v); return v; }
        """)
        f = module.get_function("f")
        fill = module.get_function("fill")
        caller_cell = pta.target_of(find_alloca(f, "v"))
        callee_cell = pta.target_of(fill.arguments[0])
        assert caller_cell is callee_cell

    def test_return_pointer_unified(self):
        module, pta = analyze("""
            int shared;
            int *get(void) { return &shared; }
            int f(void) { int *p; p = get(); return *p; }
        """)
        f = module.get_function("f")
        loads = [i for i in f.instructions() if isinstance(i, Load)
                 and i.type.is_integer]
        gv = module.globals["shared"]
        assert pta.target_of(loads[-1].pointer) is pta.target_of(gv)

    def test_malloc_gets_fresh_cell(self):
        module, pta = analyze("""
            void f(void) {
                double *a;
                double *b;
                a = (double *) malloc(8);
                b = (double *) malloc(8);
                *a = 1.0;
                *b = 2.0;
            }
        """)
        f = module.get_function("f")
        stores = [i for i in f.instructions() if isinstance(i, Store)
                  and i.value.type.is_float]
        cells = {id(pta.target_of(s.pointer)) for s in stores}
        assert len(cells) == 2

    def test_phi_merges_targets(self):
        module, pta = analyze("""
            int a;
            int b;
            int f(int c) {
                int *p;
                if (c) p = &a; else p = &b;
                return *p;
            }
        """)
        f = module.get_function("f")
        loads = [i for i in f.instructions() if isinstance(i, Load)
                 and i.type.is_integer]
        target = pta.target_of(loads[-1].pointer)
        # both globals unified into the phi target (Steensgaard)
        assert pta.target_of(module.globals["a"]) is target

    def test_array_elements_collapse(self):
        module, pta = analyze("""
            double f(double *v, int i, int j) { return v[i] + v[j]; }
        """)
        f = module.get_function("f")
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        assert pta.target_of(loads[0].pointer) is pta.target_of(loads[1].pointer)

    def test_global_pointer_deref(self):
        module, pta = analyze("""
            double *chan;
            double f(void) { return *chan; }
        """)
        f = module.get_function("f")
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        # loads: chan itself, then *chan — different cells
        cells = [pta.target_of(load.pointer) for load in loads]
        assert cells[0] is not cells[1]

    def test_cast_preserves_cell(self):
        module, pta = analyze("""
            typedef struct { int v; } R;
            int f(void *raw) {
                R *r;
                r = (R *) raw;
                return r->v;
            }
        """)
        f = module.get_function("f")
        raw_cell = pta.target_of(f.arguments[0])
        assert raw_cell is not None


# ----------------------------------------------------------------------
# one pass is complete
# ----------------------------------------------------------------------

def _rungs():
    """The ``bench_kernels`` rungs, which ``cold_verify`` analyses."""
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for config in module.CONFIGS:
        params = {k: v for k, v in config.items() if k != "name"}
        yield f"rung-{config['name']}", load_source(
            generate_core(**params).source,
            filename=f"rung-{config['name']}.c")


def _examples():
    """The C sources of ``examples/``: the wild units, through the
    recovery ladder, and the programs the example scripts spell out."""
    for path in sorted((ROOT / "examples" / "wild").glob("*.c")):
        yield f"wild-{path.stem}", load_files(
            [str(path)], recover_tiers=DEFAULT_TIERS)
    for path in sorted((ROOT / "examples").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                    and "main(" in node.value.value):
                name = f"{path.stem}-{node.targets[0].id}"
                yield name, load_source(node.value.value,
                                        filename=f"{name}.c")


def _programs(group):
    if group == "figure2":
        yield "figure2", load_source(FIGURE2_SOURCE, filename="figure2.c")
    elif group == "corpus":
        for key in SYSTEM_KEYS:
            system = load_system(key)
            yield key, load_files(
                [str(p) for p in system.core_files],
                include_dirs=[str(system.directory / "core")])
    elif group == "rungs":
        yield from _rungs()
    else:
        yield from _examples()


@pytest.mark.parametrize("group", ["figure2", "corpus", "rungs", "examples"])
def test_second_pass_adds_no_union(group):
    # every constraint is an equality the union-find keeps, so
    # PointsToAnalysis.run makes one pass; a second must find nothing
    seen = 0
    for name, program in _programs(group):
        module = program.module
        pta = PointsToAnalysis(module, CallGraph(module)).run()
        unions = pta._unions
        for func in module.defined_functions():
            pta._transfer_function(func)
        assert pta._unions == unions, name
        seen += 1
    assert seen
