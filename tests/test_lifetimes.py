"""Object lifetimes of a verdict.

A verdict's transient state — parser, lexer and tokens, the parse
tree, the lowerer, the value-flow engine and its kernel — must die by
reference counting as soon as its phase ends; only the IR graph is
cyclic. A report must not pin the IR, and a :class:`Program` (what the
IR cache and the program memo store) keeps no parser artefacts. The
deep-CFG tests pin the explicit-stack dominance and SSA walks that
replaced recursion.
"""

import gc
import io
import os
import pickle
import pickletools
import types
import weakref

import pytest
from pycparser import c_ast
from pycparser.c_lexer import CLexer
from pycparser.c_parser import CParser

from repro import AnalysisConfig, SafeFlow
from repro.frontend import load_source
from repro.perf.integrity import unseal
from repro.perf.ircache import IRCache
from repro.valueflow.engine import ValueFlowAnalysis
from repro.valueflow.kernel import KernelState
from tests.conftest import FIGURE2_SOURCE

#: qualified-name prefixes of the closures that used to recurse
_RECURSIVE_CLOSURES = ("promote_to_ssa.", "DominatorTree._reverse_postorder.")


def _transient(obj) -> bool:
    if isinstance(obj, (CParser, CLexer, c_ast.Node, ValueFlowAnalysis,
                        KernelState)):
        return True
    return (isinstance(obj, types.FunctionType)
            and obj.__qualname__.startswith(_RECURSIVE_CLOSURES))


def _cyclic_garbage_of(run):
    """Everything a garbage collection would have to reclaim after
    ``run()`` ran with the collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("options", [
    {}, {"kernel": "object"}, {"summary_mode": True},
], ids=["compiled", "object", "summary-store"])
def test_cold_verdict_leaves_no_transient_cycles(options, tmp_path):
    if options.get("summary_mode"):
        options = dict(options, cache_dir=str(tmp_path))
    analyzer = SafeFlow(AnalysisConfig(**options))
    garbage = _cyclic_garbage_of(
        lambda: analyzer.analyze_source(FIGURE2_SOURCE, "figure2.c"))
    leaked = sorted({getattr(o, "__qualname__", type(o).__qualname__)
                     for o in garbage if _transient(o)})
    assert leaked == []


def test_live_report_does_not_keep_the_module_alive():
    program = load_source(FIGURE2_SOURCE, filename="figure2.c")
    module = weakref.ref(program.module)
    report = SafeFlow().analyze_program(program)
    del program
    gc.collect()
    assert module() is None
    # the eagerly counted stat outlives the IR
    assert report.stats.to_json()["instructions"] > 0


def _global_modules(blob: bytes):
    """Module names a pickle mentions: the operand of GLOBAL, and the
    strings STACK_GLOBAL takes from the stack."""
    return {arg.split(" ")[0]
            for _, arg, _ in pickletools.genops(io.BytesIO(blob))
            if isinstance(arg, str) and arg.startswith(("pycparser", "repro."))}


def test_ir_cache_entries_carry_no_parser_or_lowerer(tmp_path):
    cache = IRCache(str(tmp_path))
    load_source(FIGURE2_SOURCE, filename="figure2.c", cache=cache)
    (name,) = [n for n in os.listdir(cache.directory) if n.endswith(".pkl")]
    with open(os.path.join(cache.directory, name), "rb") as f:
        payload = unseal(f.read())
    entry = pickle.loads(payload)
    modules = _global_modules(payload) | _global_modules(entry.program_blob)
    assert "repro.frontend.driver" in modules  # the walk sees globals
    assert not [m for m in modules if m.startswith("pycparser")]
    assert "repro.frontend.lower" not in modules


def test_program_sizeof_survives_the_ir_cache(tmp_path):
    cache = IRCache(str(tmp_path))
    load_source(FIGURE2_SOURCE, filename="figure2.c", cache=cache)
    program = load_source(FIGURE2_SOURCE, filename="figure2.c", cache=cache)
    assert cache.hits == 1
    assert program.sizeof("SHMData") == 24
    assert program.sizeof("struct __anon1") == 24
    assert program.sizeof("unsigned long") == 4
    assert [u.name for u in program.units] == ["figure2.c"]


def _branch_chain(n: int) -> str:
    chain = "\n".join(f"    if (x > {i}) y = y + {i};" for i in range(n))
    return f"""
typedef struct {{ int pid; int level; }} Shared;
Shared *nc;

void initShm(void)
/***SafeFlow Annotation shminit /***/
{{
    nc = (Shared *) shmat(shmget(7, sizeof(Shared), 0666), 0, 0);
    /***SafeFlow Annotation
       assume(shmvar(nc, sizeof(Shared)));
       assume(noncore(nc)); /***/
}}

int main(void)
{{
    int x;
    int y = 0;
    initShm();
    x = nc->level;
{chain}
    kill(y, 9);
    return 0;
}}
"""


def test_deep_branch_chain_gets_a_verdict():
    # a dominator tree 2,000 blocks deep: recursive walks overflowed
    # the interpreter stack at about 500
    shallow = SafeFlow().analyze_source(_branch_chain(200), "chain.c")
    deep = SafeFlow().analyze_source(_branch_chain(2000), "chain.c")
    assert deep.counts() == shallow.counts()
    assert shallow.counts()["warnings"] == 1
    assert shallow.counts()["false_positives"] == 1
