"""The lowerer's on-the-fly SSA against the mem2reg oracle.

Each input is lowered twice: once straight into SSA, and once with
every local in memory (``run_ssa=False``) and then promoted by the
Cytron mem2reg pass in :mod:`oracles.mem2reg`. Every function must
come out with the same blocks, the same non-phi instructions and the
same live phis. Value names are ignored (the two number their phis
differently); the oracle's dead phis — placed on the iterated
dominance frontier but never read — are dropped first.
"""

import os
import subprocess
import sys

import pytest

from oracles.mem2reg import promote_to_ssa
from repro.corpus import SYSTEM_KEYS, generate_core, load_system
from repro.frontend.lower import lower_units
from repro.frontend.parser import parse_preprocessed
from repro.frontend.preprocessor import Preprocessor
from repro.ir import (Argument, BasicBlock, Call, Constant, Function,
                      GlobalVariable, Instruction, Phi, UndefValue)
from tests.conftest import FIGURE2_SOURCE, SRC

_SKIPPED_ATTRS = {"operands", "parent", "location", "name", "type",
                  "incoming", "callee"}


def _source_units(text, filename):
    return [parse_preprocessed(Preprocessor().process_text(text, filename),
                               name=filename)]


def _lowered(units, run_ssa):
    module, _ = lower_units(units, run_ssa=run_ssa)
    if not run_ssa:
        for func in module.defined_functions():
            promote_to_ssa(func)
    return module


def _live_phis(func):
    """Phis a non-phi instruction reads, directly or through phis."""
    live, work = set(), []
    for inst in func.instructions():
        if isinstance(inst, Phi):
            continue
        used = list(inst.operands)
        if isinstance(inst, Call):
            used.append(inst.callee)
        work.extend(v for v in used if isinstance(v, Phi))
    while work:
        phi = work.pop()
        if phi not in live:
            live.add(phi)
            work.extend(v for v in phi.incoming.values()
                        if isinstance(v, Phi))
    return live


def _canonical(func):
    """Per block: its live phis and its non-phi instructions, in order,
    with every value named by position rather than by SSA name."""
    position = {}
    for block in func.blocks:
        index = 0
        for inst in block.instructions:
            if not isinstance(inst, Phi):
                position[inst] = (block.name, index)
                index += 1

    def ref(value):
        if isinstance(value, Phi):
            return ("phi", value.parent.name, value.name.rsplit(".", 1)[0])
        if isinstance(value, Instruction):
            return ("inst",) + position[value]
        if isinstance(value, Constant):
            return ("const", repr(value.type), repr(value.value))
        if isinstance(value, UndefValue):
            return ("undef", value.name, repr(value.type))
        if isinstance(value, (Argument, GlobalVariable, Function)):
            return (type(value).__name__, value.name)
        if isinstance(value, BasicBlock):
            return ("block", value.name)
        return ("other", repr(value))

    live = _live_phis(func)
    shape = []
    for block in func.blocks:
        # in block order: both place a block's phis in reverse
        # declaration order
        phis = [(ref(phi), repr(phi.type), str(phi.location),
                 tuple(sorted((pred.name, ref(value))
                              for pred, value in phi.incoming.items())))
                for phi in block.phis() if phi in live]
        insts = []
        for inst in block.non_phi_instructions():
            extra = tuple(
                (key, ref(val) if isinstance(val, (BasicBlock, Instruction))
                 else repr(val))
                for key, val in sorted(vars(inst).items())
                if key not in _SKIPPED_ATTRS)
            callee = getattr(inst, "callee", None)
            insts.append((type(inst).__name__, inst.name, repr(inst.type),
                          str(inst.location),
                          tuple(ref(op) for op in inst.operands),
                          ref(callee) if callee is not None else None,
                          extra))
        shape.append((block.name, phis, insts))
    return shape


def _assert_same_ssa(units):
    direct = _lowered(units, run_ssa=True)
    oracle = _lowered(units, run_ssa=False)
    assert list(direct.functions) == list(oracle.functions)
    for name, func in direct.functions.items():
        assert _canonical(func) == _canonical(oracle.functions[name]), name
        # nothing of the construction is left in the IR: every
        # instruction read is one of the function's own
        insts = set(func.instructions())
        for inst in insts:
            for value in inst.operands + [getattr(inst, "callee", None)]:
                assert value in insts or isinstance(value, (
                    Constant, UndefValue, Argument, GlobalVariable,
                    Function, str, type(None))), (name, value)


@pytest.mark.parametrize("key", SYSTEM_KEYS)
def test_corpus_system(key):
    system = load_system(key)
    paths = [str(p) for p in system.core_files]
    include = tuple(sorted({os.path.dirname(p) for p in paths}))
    _assert_same_ssa([
        parse_preprocessed(Preprocessor(include_dirs=list(include))
                           .process_file(path), name=path)
        for path in paths])


def test_running_example():
    _assert_same_ssa(_source_units(FIGURE2_SOURCE, "figure2.c"))


@pytest.mark.parametrize("options", [
    dict(filler_functions=6, chain_depth=3, call_fanout=2,
         pipeline_stages=3),
    dict(filler_functions=10, chain_depth=4, call_fanout=1,
         pipeline_stages=5, data_error_regions=2, control_fp_regions=2),
], ids=["core-a", "core-b"])
def test_generated_core(options):
    program = generate_core(**options)
    _assert_same_ssa(_source_units(program.source, "core.c"))


#: constructs whose SSA is easy to get subtly wrong
_EDGE_CASES = {
    "uninitialized": """
        int f(int a) {
            int x, y;
            if (a) x = y;
            while (a > 0) { y = x; a = a - 1; }
            return x + y;
        }""",
    "self-copy-in-loop": """
        int f(int n) {
            int x = 0, y;
            while (n) { x = x; if (n > 2) y = x; else y = x; n--; }
            return y;
        }""",
    "uninitialized-copied-in-loop": """
        int f(int n) {
            int x, y;
            while (n) { if (n > 2) y = x; else y = x; n--; }
            return y;
        }""",
    "constants-and-compares": """
        int f(int a) {
            int k = 5, b = a < 3, c;
            c = -k;
            if (b) c = !b;
            return (int) k + c + (b ? k : -k);
        }""",
    "function-pointer": """
        int g(int v) { return v + 1; }
        int f(int a) {
            int (*fp)(int) = g;
            int (*hp)(int);
            hp = &g;
            if (fp) a = fp(a);
            return hp(a) + (*fp)(2);
        }""",
    "address-taken-and-shadowed": """
        void use(int *p);
        int f(int a) {
            int x = a;
            { int x = 2; use(&x); a = a + x; }
            { int x = 3; a = a + x; }
            use((int *) &a);
            return x + a;
        }""",
    "cast-lvalue-escapes": """
        int f(int a) {
            long w = 1;
            int v = a;
            long *p = &(long) v;
            a += *p;
            return a + (int) w + v;
        }""",
    "loops-break-continue": """
        int f(int n) {
            int i, s = 0, last = -1;
            for (i = 0; i < n; i++) {
                if (i == 3) continue;
                if (s > 100) break;
                s += i;
                last = i;
            }
            do { s--; if (s < 0) break; } while (s > 10);
            while (1) { if (n-- < 0) break; last = n; }
            return s + last + i;
        }""",
    "dead-code": """
        int f(int a) {
            int x = 1;
            while (a) {
                if (a > 5) { return x; x = 7; } else { break; a = 2; }
                x = 9;
            }
            return x;
            x = 3;
        }""",
    "switch-fallthrough": """
        int f(int a) {
            int r = 0, t;
            switch (a) {
            case 1: r = 1;
            case 2: t = r + 2; r = t; break;
            case 3: return r;
            default: r = -1;
            }
            return r;
        }""",
    "short-circuit-and-select": """
        int f(int a, int b) {
            int r = a && b;
            int s = (a || r) ? a : b;
            while (a && b--) s += r || a;
            return s;
        }""",
    "local-anonymous-struct": """
        int f(int a) {
            struct { int v; } box;
            int k = a;
            box.v = k;
            int *p = &k;
            return box.v + *p;
        }""",
}


@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_edge_case(name):
    _assert_same_ssa(_source_units(_EDGE_CASES[name], name + ".c"))


_VERDICT_SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from repro import SafeFlow
from repro.corpus import generate_core
from repro.frontend import load_source
from repro.ir import module_to_text

source = sys.stdin.read() if sys.argv[2] == "-" else generate_core(
    filler_functions=6, chain_depth=3, call_fanout=2,
    pipeline_stages=3).source
report = SafeFlow().analyze_source(source, "unit.c")
data = report.to_json()
for key in ("phase_timings", "kernel_counters", "hotspots"):
    data["stats"].pop(key, None)
print(report.render(verbose=True))
print(json.dumps(data, sort_keys=True))
print(module_to_text(load_source(source, filename="unit.c").module))
"""


@pytest.mark.parametrize("source", ["figure2", "generated"])
def test_phi_order_does_not_depend_on_hash_order(source):
    """The same reports and IR under two string-hash seeds: phis are
    made, placed and numbered in an order no set or hash decides."""
    outputs = []
    for seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-c", _VERDICT_SCRIPT, str(SRC),
             "-" if source == "figure2" else "gen"],
            input=FIGURE2_SOURCE, capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed), timeout=300,
            check=True)
        outputs.append(run.stdout)
    assert "phi" in outputs[0]
    assert outputs[0] == outputs[1]
