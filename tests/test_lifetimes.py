"""Object lifetimes of a verdict.

A verdict's transient state — parser, lexer and tokens, the parse
tree, the lowerer, the value-flow engine and its kernel — must die by
reference counting as soon as its phase ends; only the IR graph is
cyclic. A report must not pin the IR, and a :class:`Program` (what the
IR cache stores) keeps no parser artefacts. A cached request releases
the program it built or unpickled before it returns, and IR kept past
a gc guard — an incremental session's live program — is released by
its owner when it drops it, so it too dies by refcount. The deep-CFG tests pin the explicit-stack dominance walk and
the SSA construction's worklists, which replaced recursion.
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
from repro.corpus import generate_core_files
from repro.frontend import load_source
from repro.incremental.segments import SegmentStore
from repro.incremental.watcher import IncrementalSession
from repro.ir import BasicBlock, Function, Instruction
from repro.perf.integrity import unseal
from repro.perf.ircache import IRCache
from repro.valueflow.engine import ValueFlowAnalysis
from repro.valueflow.kernel import KernelState
from tests.conftest import FIGURE2_SOURCE

import oracles

#: qualified-name prefixes of the closures that used to recurse
_RECURSIVE_CLOSURES = ("DominatorTree._reverse_postorder.",)


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


@pytest.mark.parametrize("options, kernel", [
    ({}, "compiled"), ({}, "object"), ({"summary_mode": True}, "compiled"),
], ids=["compiled", "object", "summary-store"])
def test_cold_verdict_leaves_no_transient_cycles(options, kernel, tmp_path):
    analyzer = SafeFlow(AnalysisConfig(**options))

    def verdict():
        if not options.get("summary_mode"):
            return analyzer.analyze_source(FIGURE2_SOURCE, "figure2.c")
        # the recording cell map and graph of a segment-store run
        return analyzer.analyze_program(
            load_source(FIGURE2_SOURCE, filename="figure2.c"),
            summary_store=SegmentStore(str(tmp_path)))

    with oracles.installed(kernel=kernel):
        garbage = _cyclic_garbage_of(verdict)
    leaked = sorted({getattr(o, "__qualname__", type(o).__qualname__)
                     for o in garbage if _transient(o)})
    assert leaked == []


def _ir_garbage(garbage):
    return [o for o in garbage
            if isinstance(o, (Function, BasicBlock, Instruction))]


def test_cold_verdict_without_a_memo_frees_its_ir():
    analyzer = SafeFlow()
    assert analyzer._ir_cache() is None
    garbage = _cyclic_garbage_of(
        lambda: analyzer.analyze_source(FIGURE2_SOURCE, "figure2.c"))
    assert _ir_garbage(garbage) == []


def test_analyze_program_leaves_the_callers_program_alone():
    program = load_source(FIGURE2_SOURCE, filename="figure2.c")
    SafeFlow().analyze_program(program)
    assert program.module.get_function("main").blocks


def _analyzed_program():
    """A warm-looking program: derived-analysis memos filled in."""
    program = load_source(FIGURE2_SOURCE, filename="figure2.c")
    SafeFlow().analyze_program(program)
    return program


def _live_ir():
    return sum(isinstance(o, (Function, BasicBlock, Instruction))
               for o in gc.get_objects())


@pytest.mark.parametrize("lookup", ["built", "unpickled", "replayed"])
def test_cached_request_leaves_no_ir_alive(lookup, tmp_path):
    # the request that builds or unpickles a program releases it, and
    # a replay never unpickles one
    analyzer = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path)))
    if lookup != "built":
        analyzer.analyze_source(FIGURE2_SOURCE, "figure2.c")
    if lookup == "unpickled":
        for name in os.listdir(tmp_path / "ir"):
            if name.endswith(".verdict"):
                os.remove(tmp_path / "ir" / name)
    gc.collect()
    before = _live_ir()
    reports = []
    garbage = _cyclic_garbage_of(lambda: reports.append(
        analyzer.analyze_source(FIGURE2_SOURCE, "figure2.c")))
    (report,) = reports
    assert report.stats.verdict_replayed == (lookup == "replayed")
    assert report.stats.frontend_cache_hits == (lookup != "built")
    assert _ir_garbage(garbage) == []
    assert _live_ir() == before


def _generated_session(tmp_path):
    paths = generate_core_files(
        filler_units=2, fillers_per_unit=3,
        data_error_regions=1, monitored_regions=1,
    ).write_to(str(tmp_path / "prog"))
    session = IncrementalSession(
        paths, config=AnalysisConfig(summary_mode=True),
        store_root=str(tmp_path / "store"))
    session.verdict()
    return session, paths


def _toggle_first_filler(path):
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text.replace("* 0.99", "* 0.98", 1))


def test_session_swap_frees_the_popped_functions(tmp_path):
    session, paths = _generated_session(tmp_path)
    _toggle_first_filler(paths[1])
    garbage = _cyclic_garbage_of(session.verdict)
    assert session.swaps == 1 and len(session.last_swap_defs) == 1
    assert _ir_garbage(garbage) == []


def test_session_core_edit_frees_the_replaced_body(tmp_path):
    session, paths = _generated_session(tmp_path)
    _toggle_first_filler(paths[0])  # main: annotated, in core.c
    garbage = _cyclic_garbage_of(session.verdict)
    assert session.swaps == 1 and session.full_relowers == 1
    assert len(session.last_swap_defs) == 1
    assert _ir_garbage(garbage) == []


def test_session_relower_frees_the_replaced_program(tmp_path):
    session, paths = _generated_session(tmp_path)
    with open(paths[0]) as f:
        text = f.read()
    signature = "double monitor0(Region *r, double fb)"
    assert signature in text
    with open(paths[0], "w") as f:  # a signature change
        f.write(text.replace(signature, signature.replace(" fb", "  fb")))
    garbage = _cyclic_garbage_of(session.verdict)
    assert session.swaps == 0 and session.full_relowers == 2
    assert _ir_garbage(garbage) == []


def test_released_function_raises_on_use():
    program = _analyzed_program()
    module = program.module
    func = module.get_function("main")
    block = func.entry
    inst = block.instructions[0]
    module.release()
    with pytest.raises(AttributeError):
        list(func.instructions())
    with pytest.raises(AttributeError):
        block.successors()
    with pytest.raises(AttributeError):
        inst.render()
    with pytest.raises(AttributeError):
        list(module.defined_functions())


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
    assert cache.store("k", load_source(FIGURE2_SOURCE, filename="figure2.c"))
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
    assert cache.store("k", load_source(FIGURE2_SOURCE, filename="figure2.c"))
    program = cache.fetch("k")
    assert cache.hits == 1
    assert program.sizeof("SHMData") == 24
    (anon,) = [struct for struct in program.module.structs.values()
               if struct.tag.startswith("__anon")]
    assert program.sizeof(f"struct {anon.tag}") == 24
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
