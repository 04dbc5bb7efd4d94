"""Mini C preprocessor with SafeFlow-annotation extraction.

pycparser consumes *preprocessed* C, and the paper's annotations live
inside C comments, so this module does double duty:

1. A small but real preprocessor: line splicing, comment stripping,
   ``#include`` (local files inlined, system headers satisfied by the
   builtin prelude in :mod:`repro.frontend.parser`), object- and
   function-like ``#define``, ``#undef``, and the conditional family
   (``#if/#ifdef/#ifndef/#elif/#else/#endif``).

2. The paper's annotation pre-processing pass (§3.3 ¶1): comments of
   the form ``/***SafeFlow Annotation ... /***/`` are parsed with
   :mod:`repro.annotations.lang`. ``assert(safe(x))`` items are
   rewritten in place to calls of the dummy function
   ``__safeflow_assert_safe(x)`` so they become precise program points
   in the IR; function-level items (``assume(...)``, ``shminit``) are
   collected into a side table keyed by source position and attached to
   their enclosing function after parsing.

The output carries a line map (output line → original file/line) so
every diagnostic points at the user's source, not the expansion.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..annotations.lang import AnnotationItem, AssertSafe, parse_annotation
from ..degrade import KIND_ANNOTATION, DegradedUnit
from ..errors import AnnotationError, PreprocessorError
from ..ir.instructions import ASSERT_SAFE_MARKER
from ..ir.source import SourceLocation

ANNOTATION_TAG = "SafeFlow Annotation"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINED_RE = re.compile(r"\bdefined\s*(?:\(\s*(\w+)\s*\)|(\w+))")
_COMMENT_OR_QUOTE = re.compile(r"[\"']|/[/*]")


def read_source(path: str) -> Tuple[str, str]:
    """``(text, digest)`` of a source file: the text as ``open(path)``
    decodes it, and the sha256 of the bytes that text came from."""
    with open(path, "rb") as f:
        raw = f.read()
    return io.TextIOWrapper(io.BytesIO(raw)).read(), \
        hashlib.sha256(raw).hexdigest()


#: what :func:`note_read` records for a file seen with two contents
TORN = "torn"


def note_read(digests: Dict[str, Optional[str]], path: str,
              digest: Optional[str]) -> None:
    """Record that ``path`` was read as ``digest`` (``None``: looked up
    and absent); a file seen with two contents is recorded as
    :data:`TORN`."""
    if digests.setdefault(path, digest) != digest:
        digests[path] = TORN


@dataclass
class ExtractedAnnotation:
    """One SafeFlow annotation comment found in the source."""

    location: SourceLocation
    items: List[AnnotationItem]
    raw_text: str


@dataclass
class Macro:
    name: str
    body: str
    params: Optional[List[str]] = None  # None → object-like

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


@dataclass
class PreprocessedSource:
    """Preprocessed text plus provenance for every output line."""

    text: str
    #: output line i (0-based) came from ``line_map[i]``
    line_map: List[SourceLocation] = field(default_factory=list)
    annotations: List[ExtractedAnnotation] = field(default_factory=list)
    files: List[str] = field(default_factory=list)
    #: path → sha256 of the bytes read, for every real file read, and
    #: ``None`` for every include candidate found absent (:func:`note_read`)
    digests: Dict[str, Optional[str]] = field(default_factory=dict)
    #: annotation blocks that failed to parse, kept instead of raised
    #: when the preprocessor runs in recover mode
    degraded: List[DegradedUnit] = field(default_factory=list)
    #: every ``#include <name>`` seen in an active conditional branch,
    #: in order — the recovery ladder's prelude tier resolves these
    #: against :data:`repro.frontend.fakelibc.FAKE_HEADERS`
    system_includes: List[str] = field(default_factory=list)
    #: system headers that *were* satisfied by a bundled fake stub
    #: (prelude tier active and a stub existed)
    fake_included: List[str] = field(default_factory=list)
    #: local ``#include "..."`` targets that could not be found but
    #: were skipped instead of raised (``ignore_missing_includes``)
    skipped_includes: List[str] = field(default_factory=list)

    def origin(self, output_line: int) -> SourceLocation:
        """Original location for a 1-based output line number."""
        idx = output_line - 1
        if 0 <= idx < len(self.line_map):
            return self.line_map[idx]
        return SourceLocation("<preprocessed>", output_line)


class Preprocessor:
    """Stateful preprocessor; one instance per translation-unit set."""

    def __init__(
        self,
        include_dirs: Sequence[str] = (),
        predefined: Optional[Dict[str, str]] = None,
        max_include_depth: int = 32,
        recover: bool = False,
        fake_headers: bool = False,
        ignore_missing_includes: bool = False,
        reads: Optional[Dict[str, Optional[str]]] = None,
    ):
        self.include_dirs = list(include_dirs)
        self.macros: Dict[str, Macro] = {}
        for name, body in (predefined or {}).items():
            self.macros[name] = Macro(name, body)
        self.max_include_depth = max_include_depth
        #: collect malformed annotations as DegradedUnits instead of
        #: raising (degraded-mode analysis)
        self.recover = recover
        #: resolve ``#include <name>`` against the bundled declaration
        #: stubs of :mod:`repro.frontend.fakelibc` instead of skipping
        #: it (recovery ladder, prelude tier)
        self.fake_headers = fake_headers
        #: skip (and record) local includes that cannot be found
        #: instead of raising (recovery ladder, prelude tier onward)
        self.ignore_missing_includes = ignore_missing_includes
        #: every include read or looked for (:func:`note_read`), also
        #: when the run fails part-way: the ``digests`` of the output
        self.reads: Dict[str, Optional[str]] = {} if reads is None else reads
        #: stack of files currently being processed, outermost first —
        #: used to diagnose circular #include chains
        self._active: List[str] = []
        #: fake stubs already injected in this unit (stub identity, so
        #: aliases like <sys/ipc.h>/<sys/shm.h> inject only once)
        self._fake_done: set = set()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def process_file(self, path: str) -> PreprocessedSource:
        try:
            with open(path, "r") as f:
                text = f.read()
        except OSError as exc:
            raise PreprocessorError(f"cannot read {path}: {exc}")
        return self.process_text(text, filename=path)

    def process_text(self, text: str, filename: str = "<text>") -> PreprocessedSource:
        out = PreprocessedSource(text="", digests=self.reads)
        lines: List[str] = []
        self._process(text, filename, 0, lines, out)
        out.text = "\n".join(lines) + ("\n" if lines else "")
        return out

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def _process(
        self,
        text: str,
        filename: str,
        depth: int,
        out_lines: List[str],
        out: PreprocessedSource,
    ) -> None:
        if depth > self.max_include_depth:
            chain = " -> ".join(self._active + [filename])
            raise PreprocessorError(
                f"#include nesting exceeds the maximum depth of "
                f"{self.max_include_depth}: {chain}"
            )
        if filename not in out.files:
            out.files.append(filename)
        self._active.append(filename)
        try:
            self._process_active(text, filename, depth, out_lines, out)
        finally:
            self._active.pop()

    def _process_active(
        self,
        text: str,
        filename: str,
        depth: int,
        out_lines: List[str],
        out: PreprocessedSource,
    ) -> None:
        spliced, splice_map = _splice_lines(text)
        stripped = self._strip_comments(spliced, splice_map, filename, out)
        # conditional stack: each entry is (taking, taken_any, seen_else)
        cond_stack: List[List[bool]] = []

        for line, orig_line in stripped:
            stripped_line = line.lstrip()
            if stripped_line.startswith("#"):
                self._directive(
                    stripped_line[1:].strip(),
                    filename,
                    orig_line,
                    depth,
                    cond_stack,
                    out_lines,
                    out,
                )
                continue
            if cond_stack and not all(frame[0] for frame in cond_stack):
                continue
            expanded = self._expand_line(line, filename, orig_line)
            out_lines.append(expanded)
            out.line_map.append(SourceLocation(filename, orig_line))

        if cond_stack:
            raise PreprocessorError(
                f"unterminated conditional in {filename}",
                SourceLocation(filename, len(text.splitlines())),
            )

    # ------------------------------------------------------------------
    # comments & annotations
    # ------------------------------------------------------------------

    def _strip_comments(
        self,
        text: str,
        splice_map: List[int],
        filename: str,
        out: PreprocessedSource,
    ) -> List[Tuple[str, int]]:
        """Remove comments, extracting SafeFlow annotations.

        Returns (line, original_line_number) pairs. A block comment
        becomes its replacement and its newlines, so lines keep numbers.
        """
        pieces: List[str] = []
        i = 0
        line_no = 1  # spliced line number of ``counted``
        counted = 0
        while True:
            match = _COMMENT_OR_QUOTE.search(text, i)
            if match is None:
                pieces.append(text[i:])
                break
            start = match.start()
            pieces.append(text[i:start])
            token = match.group()
            if token == "//":
                end = text.find("\n", start)
                i = len(text) if end < 0 else end
            elif token == "/*":
                line_no += text.count("\n", counted, start)
                counted = start
                line = _orig(splice_map, line_no)
                end = text.find("*/", start + 2)
                if end < 0:
                    raise PreprocessorError(
                        "unterminated comment", SourceLocation(filename, line)
                    )
                body = text[start + 2 : end]
                pieces.append(self._handle_comment(body, filename, line, out))
                pieces.append("\n" * body.count("\n"))
                i = end + 2
            else:
                i = _skip_string(text, start)
                pieces.append(text[start:i])
        lines = "".join(pieces).split("\n")
        if not lines[-1]:
            lines.pop()
        return [(line, _orig(splice_map, idx + 1)) for idx, line in enumerate(lines)]

    def _handle_comment(
        self, body: str, filename: str, line: int, out: PreprocessedSource
    ) -> str:
        """Process one block-comment body; returns its replacement text."""
        content = body.lstrip("*").strip()
        if not content.startswith(ANNOTATION_TAG):
            return " "
        ann_text = content[len(ANNOTATION_TAG):]
        # the paper's closing delimiter /***/ leaves a trailing '/**'-ish tail
        ann_text = ann_text.rstrip().rstrip("/*").strip()
        location = SourceLocation(filename, line)
        try:
            items = parse_annotation(ann_text, location)
        except AnnotationError as exc:
            if not self.recover:
                raise
            out.degraded.append(DegradedUnit(
                kind=KIND_ANNOTATION,
                name=ann_text[:60] or "<empty annotation>",
                cause=exc.message,
                location=location,
            ))
            return " "
        out.annotations.append(
            ExtractedAnnotation(location=location, items=items, raw_text=ann_text)
        )
        # rewrite assert(safe(x)) items into dummy marker calls in place
        calls = [
            f"{ASSERT_SAFE_MARKER}({item.variable});"
            for item in items
            if isinstance(item, AssertSafe)
        ]
        return " " + " ".join(calls) + (" " if calls else "")

    # ------------------------------------------------------------------
    # directives
    # ------------------------------------------------------------------

    def _directive(
        self,
        body: str,
        filename: str,
        line: int,
        depth: int,
        cond_stack: List[List[bool]],
        out_lines: List[str],
        out: PreprocessedSource,
    ) -> None:
        loc = SourceLocation(filename, line)
        parts = body.split(None, 1)
        if not parts:
            return
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        active = not cond_stack or all(frame[0] for frame in cond_stack)

        if name == "ifdef":
            taking = active and rest.split()[0] in self.macros if rest else False
            cond_stack.append([taking, taking, False])
        elif name == "ifndef":
            defined = rest.split()[0] in self.macros if rest else True
            taking = active and not defined
            cond_stack.append([taking, taking, False])
        elif name == "if":
            taking = active and bool(self._eval_condition(rest, loc))
            cond_stack.append([taking, taking, False])
        elif name == "elif":
            if not cond_stack:
                raise PreprocessorError("#elif without #if", loc)
            frame = cond_stack[-1]
            if frame[2]:
                raise PreprocessorError("#elif after #else", loc)
            outer_active = len(cond_stack) == 1 or all(
                f[0] for f in cond_stack[:-1]
            )
            if frame[1] or not outer_active:
                frame[0] = False
            else:
                frame[0] = bool(self._eval_condition(rest, loc))
                frame[1] = frame[0]
        elif name == "else":
            if not cond_stack:
                raise PreprocessorError("#else without #if", loc)
            frame = cond_stack[-1]
            if frame[2]:
                raise PreprocessorError("duplicate #else", loc)
            outer_active = len(cond_stack) == 1 or all(
                f[0] for f in cond_stack[:-1]
            )
            frame[0] = outer_active and not frame[1]
            frame[2] = True
        elif name == "endif":
            if not cond_stack:
                raise PreprocessorError("#endif without #if", loc)
            cond_stack.pop()
        elif not active:
            return
        elif name == "define":
            self._define(rest, loc)
        elif name == "undef":
            self.macros.pop(rest.split()[0], None) if rest else None
        elif name == "include":
            self._include(rest, filename, loc, depth, out_lines, out)
        elif name in ("pragma", "line"):
            return
        elif name == "error":
            raise PreprocessorError(f"#error {rest}", loc)
        else:
            raise PreprocessorError(f"unsupported directive #{name}", loc)

    def _define(self, rest: str, loc: SourceLocation) -> None:
        m = _IDENT_RE.match(rest)
        if m is None:
            raise PreprocessorError(f"malformed #define {rest!r}", loc)
        name = m.group()
        after = rest[m.end():]
        if after.startswith("("):
            close = after.find(")")
            if close < 0:
                raise PreprocessorError(f"malformed macro parameters in {name}", loc)
            raw = after[1:close].strip()
            params = [p.strip() for p in raw.split(",")] if raw else []
            body = after[close + 1:].strip()
            self.macros[name] = Macro(name, body, params)
        else:
            self.macros[name] = Macro(name, after.strip())

    def _include(
        self,
        rest: str,
        filename: str,
        loc: SourceLocation,
        depth: int,
        out_lines: List[str],
        out: PreprocessedSource,
    ) -> None:
        rest = rest.strip()
        if rest.startswith("<"):
            name = rest[1:].split(">", 1)[0].strip()
            if name:
                out.system_includes.append(name)
            if self.fake_headers and name:
                from .fakelibc import fake_header

                stub = fake_header(name)
                if stub is not None:
                    out.fake_included.append(name)
                    if id(stub) not in self._fake_done:
                        self._fake_done.add(id(stub))
                        self._process(
                            stub, f"<fake:{name}>", depth + 1,
                            out_lines, out,
                        )
                    return
            return  # system headers: builtin prelude supplies declarations
        m = re.match(r'"([^"]+)"', rest)
        if m is None:
            raise PreprocessorError(f"malformed #include {rest!r}", loc)
        target = m.group(1)
        search = [os.path.dirname(os.path.abspath(filename))] + self.include_dirs
        active = {os.path.abspath(p) for p in self._active}
        for directory in search:
            candidate = os.path.join(directory, target)
            if os.path.exists(candidate):
                if os.path.abspath(candidate) in active:
                    chain = " -> ".join(self._active + [candidate])
                    raise PreprocessorError(
                        f"circular #include of {target!r}: {chain}", loc
                    )
                text, digest = read_source(candidate)
                note_read(out.digests, candidate, digest)
                self._process(text, candidate, depth + 1, out_lines, out)
                return
            # a file created here later would shadow the one found
            note_read(out.digests, candidate, None)
        if self.ignore_missing_includes:
            out.skipped_includes.append(target)
            return
        raise PreprocessorError(f"include file not found: {target}", loc)

    # ------------------------------------------------------------------
    # macro expansion & conditional evaluation
    # ------------------------------------------------------------------

    def _expand_line(self, line: str, filename: str, lineno: int,
                     depth: int = 0) -> str:
        """Single-pass, string-aware macro expansion of one line."""
        if depth > 16 or not self.macros:
            return line
        out: List[str] = []
        i = 0
        n = len(line)
        changed = False
        while i < n:
            ch = line[i]
            if ch in "\"'":
                j = _skip_string(line, i)
                out.append(line[i:j])
                i = j
                continue
            if ch.isalpha() or ch == "_":
                m = _IDENT_RE.match(line, i)
                word = m.group()
                i = m.end()
                macro = self.macros.get(word)
                if macro is None:
                    out.append(word)
                    continue
                if macro.is_function_like:
                    k = i
                    while k < n and line[k] in " \t":
                        k += 1
                    if k >= n or line[k] != "(":
                        out.append(word)
                        continue
                    args, consumed = _parse_macro_args(
                        line[k:], filename, lineno
                    )
                    i = k + consumed
                    out.append(_substitute(macro, args, filename, lineno))
                else:
                    out.append(macro.body)
                changed = True
                continue
            if ch.isdigit():
                # consume the whole numeric token so macro names inside
                # literals (0xFF, 1e10) are never expanded
                j = i
                while j < n and (line[j].isalnum() or line[j] in "._"):
                    j += 1
                out.append(line[i:j])
                i = j
                continue
            out.append(ch)
            i += 1
        joined = "".join(out)
        if changed:
            return self._expand_line(joined, filename, lineno, depth + 1)
        return joined

    def _eval_condition(self, expr: str, loc: SourceLocation) -> int:
        def repl_defined(m: re.Match) -> str:
            name = m.group(1) or m.group(2)
            return "1" if name in self.macros else "0"

        expr = _DEFINED_RE.sub(repl_defined, expr)
        expr = self._expand_line(expr, loc.filename, loc.line)
        # drop integer suffixes, then zero out unknown identifiers
        expr = re.sub(r"\b(\d+)[uUlL]+\b", r"\1", expr)
        expr = _IDENT_RE.sub("0", expr)
        expr = expr.replace("&&", " and ").replace("||", " or ")
        expr = re.sub(r"!(?!=)", " not ", expr)
        if not re.fullmatch(r"[\d\s()+\-*/%<>=&|^~a-z,]*", expr):
            raise PreprocessorError(f"cannot evaluate #if expression {expr!r}", loc)
        try:
            return int(bool(eval(expr, {"__builtins__": {}}, {})))  # noqa: S307
        except Exception as exc:
            raise PreprocessorError(
                f"cannot evaluate #if expression: {exc}", loc
            )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _splice_lines(text: str) -> Tuple[str, List[int]]:
    """Join backslash-continued lines; map spliced line → original line."""
    out_lines: List[str] = []
    mapping: List[int] = []
    pending = ""
    pending_start = None
    for idx, raw in enumerate(text.split("\n"), start=1):
        if raw.endswith("\\"):
            if pending_start is None:
                pending_start = idx
            pending += raw[:-1]
            continue
        if pending:
            out_lines.append(pending + raw)
            mapping.append(pending_start or idx)
            pending = ""
            pending_start = None
        else:
            out_lines.append(raw)
            mapping.append(idx)
    if pending:
        out_lines.append(pending)
        mapping.append(pending_start or len(mapping) + 1)
    return "\n".join(out_lines), mapping


def _orig(splice_map: List[int], spliced_line: int) -> int:
    idx = spliced_line - 1
    if 0 <= idx < len(splice_map):
        return splice_map[idx]
    return spliced_line


def _skip_string(text: str, start: int) -> int:
    """Index just past the string/char literal starting at ``start``."""
    quote = text[start]
    i = start + 1
    while i < len(text):
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == quote:
            return i + 1
        i += 1
    return len(text)


def _parse_macro_args(
    text: str, filename: str, lineno: int
) -> Tuple[List[str], int]:
    """Parse '(a, b, ...)' at the start of text; returns (args, consumed).

    String/char literals are opaque: commas and parentheses inside them
    do not separate arguments.
    """
    if not text.startswith("("):
        raise PreprocessorError(
            "internal: macro argument list expected",
            SourceLocation(filename, lineno),
        )
    depth = 0
    args: List[str] = []
    current: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "\"'":
            j = _skip_string(text, i)
            current.append(text[i:j])
            i = j
            continue
        if ch == "(":
            depth += 1
            if depth == 1:
                i += 1
                continue
        elif ch == ")":
            depth -= 1
            if depth == 0:
                args.append("".join(current).strip())
                if args == [""]:
                    args = []
                return args, i + 1
        elif ch == "," and depth == 1:
            args.append("".join(current).strip())
            current = []
            i += 1
            continue
        if depth >= 1:
            current.append(ch)
        i += 1
    raise PreprocessorError(
        "unterminated macro argument list (multi-line macro calls are not "
        "supported)",
        SourceLocation(filename, lineno),
    )


def _substitute(
    macro: Macro, args: List[str], filename: str, lineno: int
) -> str:
    params = macro.params or []
    if len(args) != len(params):
        raise PreprocessorError(
            f"macro {macro.name} expects {len(params)} arguments, got "
            f"{len(args)}",
            SourceLocation(filename, lineno),
        )
    body = macro.body
    mapping = dict(zip(params, args))

    def repl(m: re.Match) -> str:
        return mapping.get(m.group(), m.group())

    return _IDENT_RE.sub(repl, body)
