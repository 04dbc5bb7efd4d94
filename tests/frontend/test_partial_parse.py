"""Parse only what changed: the prelude-once parse and an edited unit
spliced against its previous parse, each held to a full-text parse of
the same input.

- the builtin prelude is parsed once per process and a stand-in takes
  its place in every unit's text; a full-text parse (what a
  ``parser_factory`` parser still does) must give the same AST digests,
  coordinates included, and the same ``ParseError`` message and
  location;
- an incremental session re-parses only the definitions an edit
  touched or moved; every verdict of a seeded edit sequence must render exactly
  as a cold ``analyze_files`` of the tree, and every function of the
  session's program must fingerprint as a cold ``load_files``' does;
- the regex-jumping definition splitter must return exactly what the
  character-by-character scan it replaced returns.
"""

from __future__ import annotations

import glob
import importlib.util
import os
import random
import re
from pathlib import Path

import pycparser
import pytest
from pycparser import c_ast

from oracles import function_spans as oracle
from repro import AnalysisConfig, SafeFlow
from repro.corpus import generate_core, generate_core_files
from repro.errors import ParseError
from repro.frontend.parser import (
    ParsedUnit,
    function_spans,
    match_pair,
    parse_preprocessed,
)
from repro.frontend import load_files, recovery
from repro.frontend.preprocessor import Preprocessor
from repro.frontend.recovery import cleanup_source, normalize_gnu
from repro.incremental.watcher import IncrementalSession, _ast_digest
from repro.perf.fingerprint import function_fingerprint

from conftest import FIGURE2_SOURCE

ROOT = Path(__file__).resolve().parents[2]
CORPUS = sorted(glob.glob(str(ROOT / "src/repro/corpus/systems/*/core/*.c")))
WILD = sorted(glob.glob(str(ROOT / "examples/wild/*.c")))


def _bench_kernel_configs():
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


def _preprocess(text: str, name: str, include_dirs=()):
    pp = Preprocessor(include_dirs=list(include_dirs))
    return pp.process_text(text, filename=name)


def _preprocess_wild(text: str, name: str):
    """A wild unit as the recovery ladder's cleanup tier sees it: GNU
    dialect normalized, unknown directives blanked, system headers
    resolved against the bundled stubs, compat typedefs as an extra
    prelude."""
    text = cleanup_source(normalize_gnu(text)[0])[0]
    source, extra_prelude, _ = recovery._preprocess(
        text, name, (os.path.dirname(name),), None,
        fake_headers=True, missing_ok=True)
    return source, extra_prelude


def _digests(unit: ParsedUnit):
    return [_ast_digest(ext) for ext in unit.ast.ext]


def _outcome(source, name, **kwargs):
    """Digests of a successful parse, or the error's text and location."""
    try:
        unit = parse_preprocessed(source, name, **kwargs)
    except ParseError as exc:
        return ("error", exc.message, exc.location)
    return ("ok", _digests(unit))


def _full_text(source, name, **kwargs):
    """A full-text parse: the prelude text itself, no stand-in."""
    return _outcome(source, name, parser_factory=pycparser.CParser,
                    **kwargs)


# ----------------------------------------------------------------------
# prelude-once parse vs full-text parse
# ----------------------------------------------------------------------

def _inputs():
    """``(name, text, include_dirs)`` of the inputs that preprocess
    strictly."""
    for path in CORPUS:
        with open(path) as f:
            yield path, f.read(), (os.path.dirname(path),)
    for spec in _bench_kernel_configs():
        params = {k: v for k, v in spec.items() if k != "name"}
        yield f"rung-{spec['name']}.c", generate_core(**params).source, ()
    yield "figure2.c", FIGURE2_SOURCE, ()


@pytest.mark.parametrize("name,text,include_dirs", list(_inputs()),
                         ids=lambda v: os.path.basename(v)
                         if isinstance(v, str) and v.endswith(".c") else "")
def test_prelude_once_matches_full_text_parse(name, text, include_dirs):
    source = _preprocess(text, name, include_dirs)
    assert _outcome(source, name) == _full_text(source, name)


@pytest.mark.parametrize("path", WILD, ids=os.path.basename)
def test_prelude_once_matches_full_text_parse_on_wild_units(path):
    with open(path) as f:
        source, extra_prelude = _preprocess_wild(f.read(), path)
    assert _outcome(source, path, extra_prelude=extra_prelude) \
        == _full_text(source, path, extra_prelude=extra_prelude)


FAILING = {
    # a unit typedef clashing with a name the prelude declares as a
    # function: the stand-in must leave the same name in scope
    "typedef_clash.c": "typedef int read;\nint f(void) { return 0; }\n",
    # a unit re-declaring a prelude typedef as an object
    "object_clash.c": "int size_t;\n",
    "missing_semi.c": "int f(void)\n{\n    return 1\n}\n",
    "bad_expr.c": "int g(int x) {\n  return x + ;\n}\n",
    "unbalanced.c": "int h(void) {\n  if (1) {\n    return 2;\n}\n",
    "stray_token.c": "int a;\n@\nint b;\n",
    "gnu_attr.c": "int __attribute__((packed)) x;\n",
    "first_line.c": "}\n",
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_parse_errors_are_identical(name):
    source = _preprocess(FAILING[name], name)
    got = _outcome(source, name)
    assert got[0] == "error"
    assert got == _full_text(source, name)


def test_prelude_names_keep_their_kind():
    # a prelude typedef used as a type and a prelude function called
    # parse the same way behind the stand-in
    text = ("size_t n(FILE *f) { pid_t p = getpid(); "
            "return strlen(\"x\") + p; }\n")
    source = _preprocess(text, "kinds.c")
    assert _outcome(source, "kinds.c") == _full_text(source, "kinds.c")


def test_extra_prelude_lines_and_errors_agree():
    # the recovery ladder's compat typedefs sit between the prelude's
    # stand-in and the unit
    extra = "typedef unsigned char u8_t;\ntypedef int s32_t;\n"
    for text in ("u8_t f(s32_t x) { return x; }\n",
                 "s32_t g(void)\n{\n  return ; +\n}\n"):
        source = _preprocess(text, "x.c")
        assert _outcome(source, "x.c", extra_prelude=extra) \
            == _full_text(source, "x.c", extra_prelude=extra)


def test_prelude_nodes_are_shared_and_map_to_builtin():
    a = parse_preprocessed(_preprocess("int a;\n", "a.c"), "a.c")
    b = parse_preprocessed(_preprocess("int b;\n", "b.c"), "b.c")
    assert a.ast.ext[0] is b.ast.ext[0]
    assert a.origin(a.ast.ext[0].coord).filename == "<builtin>"
    assert a.origin(a.ast.ext[-1].coord).line == 1


# ----------------------------------------------------------------------
# an edit of one unit parsed against its previous parse
# ----------------------------------------------------------------------

UNIT = """typedef struct { int v; } S;
static int helper(int x) {
    return x + 1;
}
int table[3] = { 1, 2, 3 };
int f(S *s) { return helper(s->v); } int g(void) { return 2; }
int k(int y)
{
    if (y > 0) {
        return y * 3;
    }
    return helper(y);
}
"""


def _reparsed(old_text: str, new_text: str, name: str = "u.c"):
    previous = parse_preprocessed(_preprocess(old_text, name), name)
    source = _preprocess(new_text, name)
    unit = parse_preprocessed(source, name, previous=previous)
    assert _digests(unit) == _full_text(source, name)[1]
    return {ext.decl.name for ext in unit.ast.ext
            if isinstance(ext, c_ast.FuncDef)
            and any(ext is old for old in previous.ast.ext)}


def test_same_line_body_edit_reuses_every_other_definition():
    new = UNIT.replace("return y * 3;", "return y * 4;")
    assert _reparsed(UNIT, new) == {"helper", "f", "g"}


def test_edit_before_a_definition_on_its_line_keeps_columns():
    # f's body grows on the line g sits on: g starts at another column,
    # so it is parsed again with f; helper and k stand where they stood
    new = UNIT.replace("return helper(s->v);", "return helper(s->v) + 10;")
    assert _reparsed(UNIT, new) == {"helper", "k"}


def test_edit_that_adds_lines_takes_the_full_parse():
    new = UNIT.replace("    return x + 1;\n", "    x = x * 2;\n    return x + 1;\n")
    assert _reparsed(UNIT, new) == set()


def test_signature_change_parses_that_definition_again():
    new = UNIT.replace("int k(int y)", "int k(long y)")
    assert _reparsed(UNIT, new) == {"helper", "f", "g"}


def test_body_edit_that_changes_its_length_reuses_the_rest():
    new = UNIT.replace("return x + 1;", "return (x + 1) * 100;")
    assert _reparsed(UNIT, new) == {"f", "g", "k"}


def test_comment_only_edit_parses_only_the_line_it_touched():
    # the stripped comment leaves a trailing blank in k's body
    new = UNIT.replace("    if (y > 0) {\n", "    if (y > 0) { // positive\n")
    assert _reparsed(UNIT, new) == {"helper", "f", "g"}
    new = UNIT.replace("int table[3]", "/* table */ int table[3]")
    assert _reparsed(UNIT, new) == {"helper", "f", "g", "k"}


def test_moved_definition_with_an_equal_skeleton_takes_the_full_parse():
    # both skeletons read "int f(void) ;  int f(void) ; ": the body
    # moved from the first declaration to the second
    assert _reparsed("int f(void) {} int f(void) ; \n",
                     "int f(void) ;  int f(void) {}\n") == set()


def test_broken_body_reports_the_full_parse_error():
    previous = parse_preprocessed(_preprocess(UNIT, "u.c"), "u.c")
    source = _preprocess(UNIT.replace("return y * 3;", "return y * ;"),
                         "u.c")
    with pytest.raises(ParseError) as got:
        parse_preprocessed(source, "u.c", previous=previous)
    assert ("error", got.value.message, got.value.location) \
        == _full_text(source, "u.c")


# ----------------------------------------------------------------------
# seeded session edit sequences vs cold analysis
# ----------------------------------------------------------------------

_FILLER_CONST = re.compile(r"acc \* 0\.99 \+ (\d+)\.([05]) /")


def _edit(rng: random.Random, text: str, kind: str) -> str:
    tokens = [m for m in _FILLER_CONST.finditer(text)]
    if kind == "body":  # same line, same length
        m = rng.choice(tokens)
        flipped = "5" if m.group(2) == "0" else "0"
        return text[:m.start(2)] + flipped + text[m.end(2):]
    if kind == "lines":  # a statement more inside a body
        m = rng.choice(tokens)
        line_end = text.index("\n", m.end())
        return (text[:line_end + 1] + "        acc = acc + 0.25;\n"
                + text[line_end + 1:])
    if kind == "signature":
        names = re.findall(r"^double (filler\d+)\(double x\)$", text, re.M)
        name = rng.choice(names)
        return text.replace(f"double {name}(double x)\n",
                            f"double {name}(double  x)\n", 1)
    if kind == "typedef":
        return f"typedef double real_t{rng.randrange(1000)};\n" + text
    if kind == "comment":
        m = rng.choice(tokens)
        line_end = text.index("\n", m.end())
        return text[:line_end] + " // tuned" + text[line_end:]
    raise ValueError(kind)


KINDS = ["body", "body", "body", "lines", "signature", "typedef",
         "comment"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_session_edit_sequence_matches_cold_analysis(tmp_path, seed):
    generated = generate_core_files(
        filler_functions=4, chain_depth=3, call_fanout=2,
        pipeline_stages=4, monitored_regions=1, filler_units=2,
        fillers_per_unit=4)
    paths = generated.write_to(str(tmp_path / "src"))
    session = IncrementalSession(paths, config=AnalysisConfig(
        cache_dir=str(tmp_path / "cache"), summary_mode=True))
    cold = SafeFlow(AnalysisConfig(summary_mode=True))
    session.verdict()
    rng = random.Random(seed)
    texts = {p: open(p).read() for p in paths}
    for step in range(12):
        path = rng.choice(paths)
        kind = rng.choice(KINDS)
        texts[path] = _edit(rng, texts[path], kind)
        with open(path, "w") as f:
            f.write(texts[path])
        got = session.verdict().render(verbose=True)
        want = cold.analyze_files(paths, name=session.name) \
            .render(verbose=True)
        assert got == want, f"step {step}: {kind} edit of {path}"
        assert _fingerprints(session.program) \
            == _fingerprints(load_files(paths)), f"step {step}"


def _fingerprints(program):
    return {name: function_fingerprint(func)
            for name, func in program.module.functions.items()}


#: same-line edits of ``core.c`` bodies, each swapping one digit (the
#: regex's group) for its pair: the annotated monitor, a fan-out helper
#: that ``user.c`` calls too, the annotated ``main``, and a pipeline
#: stage that writes a shm global
_CORE_EDITS = {
    "monitor": (re.compile(r"v > 10\.([05]) \|\|"), "05"),
    "fan": (re.compile(r"return x \* 0\.5 \+ \d\.([27])5;"), "27"),
    "main": (re.compile(r"output \* 1\.0([12]);"), "12"),
    "stage": (re.compile(r"v \* 0\.5 \+ \d\.([05]);"), "05"),
}

USER_C = """\
double fan0(double x);
double fan1(double x);

double use_fans(double x)
{
    return fan0(x) + fan1(x);
}
"""


def _edit_core(rng: random.Random, text: str, kind: str) -> str:
    if kind == "filler":
        return _edit(rng, text, "body")
    pattern, pair = _CORE_EDITS[kind]
    m = rng.choice(list(pattern.finditer(text)))
    flipped = pair[1] if m.group(1) == pair[0] else pair[0]
    return text[:m.start(1)] + flipped + text[m.end(1):]


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_session_core_edit_sequence_relowers_in_place(tmp_path, seed):
    # core.c holds the annotations and the shm globals; each body edit
    # re-lowers only its definition, and the program stays a cold one
    generated = generate_core_files(
        filler_functions=4, chain_depth=3, call_fanout=2,
        pipeline_stages=4, monitored_regions=1, filler_units=2,
        fillers_per_unit=4)
    paths = generated.write_to(str(tmp_path / "src"))
    user = str(tmp_path / "src" / "user.c")
    with open(user, "w") as f:
        f.write(USER_C)
    paths.append(user)
    session = IncrementalSession(paths, config=AnalysisConfig(
        cache_dir=str(tmp_path / "cache"), summary_mode=True))
    cold = SafeFlow(AnalysisConfig(summary_mode=True))
    session.verdict()
    rng = random.Random(seed)
    core = paths[0]
    text = open(core).read()
    for step in range(10):
        kind = rng.choice(["filler", *_CORE_EDITS])
        text = _edit_core(rng, text, kind)
        with open(core, "w") as f:
            f.write(text)
        swaps = session.swaps
        got = session.verdict().render(verbose=True)
        assert session.swaps == swaps + 1, f"step {step}: {kind}"
        assert len(session.last_swap_defs) == 1, f"step {step}: {kind}"
        assert got == cold.analyze_files(paths, name=session.name) \
            .render(verbose=True), f"step {step}: {kind}"
        assert _fingerprints(session.program) \
            == _fingerprints(load_files(paths)), f"step {step}: {kind}"
    assert session.full_relowers == 1


def test_session_body_edit_parses_only_the_changed_body(tmp_path):
    generated = generate_core_files(
        filler_functions=2, chain_depth=2, call_fanout=2,
        pipeline_stages=2, monitored_regions=1, filler_units=1,
        fillers_per_unit=4)
    paths = generated.write_to(str(tmp_path / "src"))
    session = IncrementalSession(paths, config=AnalysisConfig())
    session.verdict()
    filler = paths[1]
    before = {ext.decl.name: ext for ext in
              session._units[filler].unit.ast.ext
              if isinstance(ext, c_ast.FuncDef)}
    text = open(filler).read()
    with open(filler, "w") as f:
        f.write(_edit(random.Random(0), text, "body"))
    session.verdict()
    after = session._units[filler].unit.ast.ext
    kept = [ext.decl.name for ext in after
            if isinstance(ext, c_ast.FuncDef)
            and before.get(ext.decl.name) is ext]
    assert len(kept) == len(before) - 1
    assert session.last_swap_defs and session.last_swap_defs[0] not in kept


# ----------------------------------------------------------------------
# the splitter vs the character-by-character scan
# ----------------------------------------------------------------------

_PIECES = ["{", "}", "(", ")", "\"", "'", "\\", "/", "*", "//", "/*", "*/",
           "\n", " ", "\t", ";", ",", "=", "int", "f", "_g1", "x", "0",
           "é", "main", "if", "return", "\"a{\"", "'}'"]


def _fuzz_text(rng: random.Random) -> str:
    return "".join(rng.choice(_PIECES) for _ in range(rng.randrange(0, 80)))


def test_function_spans_match_the_scan_on_a_fuzz_corpus():
    rng = random.Random(1906)
    texts = [_fuzz_text(rng) for _ in range(3000)]
    texts += [UNIT, FIGURE2_SOURCE] + [open(p).read() for p in CORPUS]
    for text in texts:
        assert function_spans(text) == oracle.function_spans(text), text


def test_match_pair_matches_the_scan_on_a_fuzz_corpus():
    rng = random.Random(1907)
    for _ in range(3000):
        text = _fuzz_text(rng)
        for open_ch, close_ch in (("(", ")"), ("{", "}")):
            for i, ch in enumerate(text):
                if ch == open_ch:
                    assert match_pair(text, i, open_ch, close_ch) \
                        == oracle.match_pair(text, i, open_ch, close_ch), \
                        (text, i)
