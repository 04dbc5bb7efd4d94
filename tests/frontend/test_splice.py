"""The session's definition splice against a full parse.

An edited unit parsed against its previous parse takes every definition
that still stands where it stood (same text, line and column) from the
previous tree and parses only the rest. The result must be the tree a
full parse gives: the same nodes, attributes and coordinates (file,
line, column). A definition whose text parses differently where it now
stands must be parsed again.
"""

from __future__ import annotations

import dataclasses
import glob
import importlib.util
import os
import random
from pathlib import Path

import pytest
from pycparser import c_ast

from repro.corpus import generate_core
from repro.errors import ParseError
from repro.frontend import recovery
from repro.frontend.parser import _definitions, parse_preprocessed
from repro.frontend.preprocessor import Preprocessor
from repro.frontend.recovery import cleanup_source, normalize_gnu

from conftest import FIGURE2_SOURCE

ROOT = Path(__file__).resolve().parents[2]
CORPUS = sorted(glob.glob(str(ROOT / "src/repro/corpus/systems/*/core/*.c")))
WILD = sorted(glob.glob(str(ROOT / "examples/wild/*.c")))


def _dump(node):
    """Preorder dump of a tree: class, attribute values and the full
    coordinate of every node."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        coord = n.coord
        out.append((type(n).__name__,
                    tuple(repr(getattr(n, a)) for a in n.attr_names),
                    None if coord is None
                    else (coord.file, coord.line, coord.column)))
        stack.extend(reversed([child for _, child in n.children()]))
    return out


def _parse(source, name, previous=None):
    """``("ok", dump, unit)`` or ``("error", message, location)``."""
    try:
        unit = parse_preprocessed(source, name, previous=previous)
    except ParseError as exc:
        return "error", exc.message, exc.location
    return "ok", _dump(unit.ast), unit


def _reused(unit, previous) -> int:
    """How many of ``unit``'s definitions are ``previous``'s nodes."""
    old = {id(ext) for ext in previous.ast.ext
           if isinstance(ext, c_ast.FuncDef)}
    return sum(id(ext) in old for ext in unit.ast.ext)


def _preprocess(text, name, include_dirs=()):
    return Preprocessor(include_dirs=list(include_dirs)).process_text(
        text, filename=name)


def _rungs():
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for config in module.CONFIGS:
        params = {k: v for k, v in config.items() if k != "name"}
        yield f"rung-{config['name']}.c", generate_core(**params).source


def _units(group):
    """``(name, source)`` of the preprocessed units of one group."""
    if group == "corpus":
        for path in CORPUS:
            with open(path) as f:
                yield path, _preprocess(f.read(), path,
                                        (os.path.dirname(path),))
        yield "figure2.c", _preprocess(FIGURE2_SOURCE, "figure2.c")
    elif group == "rungs":
        for name, text in _rungs():
            yield name, _preprocess(text, name)
    elif group == "controllers":
        rng = random.Random(22)
        for i in range(8):
            text = generate_core(
                data_error_regions=rng.randint(1, 2),
                control_fp_regions=rng.randint(0, 2),
                benign_read_regions=rng.randint(1, 2),
                monitored_regions=1 + i % 2, filler_functions=4 + i,
                chain_depth=1 + i % 3, call_fanout=i % 3,
                pipeline_stages=i % 4).source
            yield f"ctl{i}.c", _preprocess(text, f"ctl{i}.c")
    else:  # the wild units as the ladder's cleanup tier reads them
        for path in WILD:
            with open(path) as f:
                text = cleanup_source(normalize_gnu(f.read())[0])[0]
            source, extra, _ = recovery._preprocess(
                text, path, (os.path.dirname(path),), None,
                fake_headers=True, missing_ok=True)
            if not extra and _parse(source, path)[0] == "ok":
                yield path, source


#: edits at a definition's opening brace: a statement more on its line
#: (later definitions on that line move right), or a line more (every
#: later definition moves down)
EDITS = {"statement": " ;", "line": "\n"}


@pytest.mark.parametrize("group", ["corpus", "rungs", "controllers", "wild"])
def test_spliced_units_equal_a_full_parse(group):
    rng = random.Random(group)
    units = list(_units(group))
    assert len(units) >= 4
    reused = 0
    for name, source in units:
        previous = _parse(source, name)[2]
        old_keys = {key for _, _, key in _definitions(source.text)}
        spans = [span for span, _, _ in _definitions(source.text)]
        for span in rng.sample(spans, min(3, len(spans))):
            for edit in EDITS.values():
                brace = span[2] + 1
                text = source.text[:brace] + edit + source.text[brace:]
                new = dataclasses.replace(source, text=text)
                want = _parse(new, name)
                got = _parse(new, name, previous)
                assert got[:2] == want[:2], (name, edit, span[0])
                # no splice fell back to a full parse: every definition
                # that stands where it stood was taken from before
                stood = sum(key in old_keys
                            for _, _, key in _definitions(text))
                assert _reused(got[2], previous) == stood, (name, span[0])
                reused += stood
    assert reused > 0


BODY = "int f(void) {\n    T * x;\n    return 0;\n}\n"

MUST_MISS = {
    # ``T * x;`` declares x where T is a typedef, multiplies elsewhere
    "variable": ("typedef int T;\n" + BODY, "int T; int x;\n" + BODY),
    "typedef": ("int T; int x;\n" + BODY, "typedef int T;\n" + BODY),
    # a typedef declared after the definition does not reach it
    "typedef after": ("typedef int T;\n" + BODY,
                      "int x;\n" + BODY + "typedef int T;\n"),
}


@pytest.mark.parametrize("case", sorted(MUST_MISS))
def test_a_definition_that_parses_differently_is_parsed_again(case):
    first, second = MUST_MISS[case]
    previous = _parse(_preprocess(first, "a.c"), "a.c")[2]
    source = _preprocess(second, "a.c")
    # f stands where it stood, with the same text ...
    assert [key for _, _, key in _definitions(second)] \
        == [key for _, _, key in _definitions(first)]
    got = _parse(source, "a.c", previous)
    # ... but T means something else there
    assert got[:2] == _parse(source, "a.c")[:2]
    assert _reused(got[2], previous) == 0


def test_a_definition_moved_to_another_column_is_parsed_again():
    previous = _parse(_preprocess(BODY, "a.c"), "a.c")[2]
    source = _preprocess("int y; " + BODY, "a.c")
    got = _parse(source, "a.c", previous)
    assert got[:2] == _parse(source, "a.c")[:2]
    assert _reused(got[2], previous) == 0


def test_a_renamed_unit_is_parsed_again():
    # a spliced node keeps its coordinates, file included
    text = "int g(int y) {\n    return y + 1;\n}\n"
    previous = _parse(_preprocess(text, "a.c"), "a.c")[2]
    source = _preprocess(text, "b.c")
    got = _parse(source, "b.c", previous)
    assert got[:2] == _parse(source, "b.c")[:2]
    assert _reused(got[2], previous) == 0
