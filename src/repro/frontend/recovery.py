"""Frontend recovery ladder: tiered parse/preprocess salvage.

Real embedded control C rarely parses under the strict mini-
preprocessor + pycparser pipeline: it carries GNU attributes, inline
asm, ``#include <stdint.h>``, vendor pragmas.  Keep-going analysis
with zero tiers (``--keep-going``) can only record such a unit as
*lost* — every unresolved external then smears top taint program-wide.
The enabled tiers (``AnalysisConfig.recover_tiers``, ``--recover``)
turn "unit lost" into "unit salvaged with audited provenance" via an
ordered ladder, each tier attempted only after the previous one fails:

1. ``strict``  — today's path, byte-identical, no rewrites;
2. ``gnu``     — token-level normalization of GNU dialect
   (``__attribute__((...))``, ``__extension__``, ``typeof``, inline
   asm, statement expressions).  When the optional ``wild`` extra
   (pycparserext) is installed, its ``GnuCParser`` also replaces the
   strict parser from this tier on, tolerating residual GNU syntax;
3. ``prelude`` — ``#include <...>`` of common libc/embedded headers
   resolves against the bundled declaration stubs of
   :mod:`repro.frontend.fakelibc`; missing local includes are skipped
   and recorded; compat typedefs the unit uses but never defines are
   injected as extra prelude lines;
4. ``cleanup`` — heuristic source cleanup (PCD-SVD-style): unknown
   directives and ``#error``/``#warning`` lines blanked, CR/CRLF
   normalized, non-ASCII bytes spaced out;
5. ``salvage`` — per-function salvage: the definition enclosing the
   parse error is dropped to a declaration (recorded as a degraded
   function), bounded retries.

Fail-closed discipline (the whole point):

- every rewrite is **line-count preserving**, so the preprocessor line
  map stays valid and diagnostics remain line-accurate;
- a salvaged unit gets one ``KIND_RECOVERED`` record carrying the tier
  name and the exact edits, and *every function the unit defines* is
  degraded — the value-flow engine treats calls into them as
  unmonitored non-core flow, so relative to strict mode a verdict can
  only go ``pass → degraded``, never ``degraded → pass``;
- the enabled-tier set, the tier format version and the active GNU
  parser strategy fold into ``config_fingerprint`` and the IR-cache
  keys, so caches and incremental segments never replay across
  recovery-config changes;
- a tier that *crashes* (including injected
  :func:`repro.resilience.faults.on_recovery_tier` chaos faults)
  counts as that tier failing, never as a driver error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..degrade import KIND_FUNCTION, KIND_RECOVERED, KIND_UNIT, DegradedUnit
from ..errors import ParseError, PreprocessorError
from ..ir.source import SourceLocation
from ..resilience.faults import on_recovery_tier
from .fakelibc import COMPAT_TYPEDEFS
from .parser import (
    BUILTIN_PRELUDE,
    PRELUDE_LINES,
    ParsedUnit,
    PlyParseError,
    error_line,
    function_spans,
    match_pair,
    parse_preprocessed,
    parse_text,
)
from .preprocessor import (
    PreprocessedSource,
    Preprocessor,
    _skip_string,
    note_read,
    read_source,
)

__all__ = [
    "RECOVERY_FORMAT_VERSION",
    "TIER_STRICT",
    "TIER_GNU",
    "TIER_PRELUDE",
    "TIER_CLEANUP",
    "TIER_SALVAGE",
    "TIER_ORDER",
    "DEFAULT_TIERS",
    "RecoveredUnit",
    "frontend_unit",
    "frontend_file",
    "normalize_tiers",
    "recovery_fingerprint",
    "gnu_parser_class",
    "normalize_gnu",
    "cleanup_source",
]

#: bump whenever a tier's rewrite rules change observably — folded into
#: config_fingerprint and the IR-cache keys so recovered programs built
#: under one rule set are never replayed under another
RECOVERY_FORMAT_VERSION = 1

TIER_STRICT = "strict"
TIER_GNU = "gnu"
TIER_PRELUDE = "prelude"
TIER_CLEANUP = "cleanup"
TIER_SALVAGE = "salvage"

#: ladder order; ``strict`` is always attempted first and is never part
#: of a tier spec
TIER_ORDER = (TIER_GNU, TIER_PRELUDE, TIER_CLEANUP, TIER_SALVAGE)

#: what ``--recover`` (no argument) enables
DEFAULT_TIERS = TIER_ORDER

#: per-unit cap on salvage rounds (each round drops one definition)
MAX_SALVAGE_ROUNDS = 25

#: cap on the edits recorded in one unit's provenance record
MAX_RECORDED_EDITS = 8

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ----------------------------------------------------------------------
# tier spec handling
# ----------------------------------------------------------------------

def normalize_tiers(spec) -> Tuple[str, ...]:
    """Canonical tier tuple from a spec (iterable or comma string).

    ``"all"`` (or ``True``) means every tier; unknown names raise
    ``ValueError``. The result is in ladder order regardless of the
    input order, so two configs enabling the same set fingerprint
    identically.
    """
    if not spec:
        return ()
    if spec is True or spec == "all":
        return DEFAULT_TIERS
    if isinstance(spec, str):
        names = [s.strip() for s in spec.split(",") if s.strip()]
    else:
        names = [str(s).strip() for s in spec if str(s).strip()]
    chosen = set()
    for name in names:
        if name == "all":
            chosen.update(TIER_ORDER)
            continue
        if name not in TIER_ORDER:
            raise ValueError(
                f"unknown recovery tier {name!r} "
                f"(expected one of: {', '.join(TIER_ORDER)}, all)"
            )
        chosen.add(name)
    return tuple(t for t in TIER_ORDER if t in chosen)


_GNU_PARSER_CLASS = None
_GNU_PARSER_PROBED = False


def gnu_parser_class():
    """pycparserext's ``GnuCParser`` when the ``wild`` extra is
    installed, else ``None`` (the token-level rewriter carries the GNU
    tier alone)."""
    global _GNU_PARSER_CLASS, _GNU_PARSER_PROBED
    if not _GNU_PARSER_PROBED:
        _GNU_PARSER_PROBED = True
        try:  # pragma: no cover - exercised only with the wild extra
            from pycparserext.ext_c_parser import GnuCParser

            _GNU_PARSER_CLASS = GnuCParser
        except Exception:
            _GNU_PARSER_CLASS = None
    return _GNU_PARSER_CLASS


def gnu_strategy() -> str:
    """Active GNU-tier parser strategy (part of every recovery key)."""
    return "ext" if gnu_parser_class() is not None else "tokenstrip"


def recovery_fingerprint(tiers: Sequence[str]) -> str:
    """Cache-key component for an enabled-tier set.

    Folds the tier format version and the GNU parser strategy in:
    flipping any of the three gives caches and incremental segments a
    fresh namespace.
    """
    order = tuple(t for t in TIER_ORDER if t in tuple(tiers))
    if not order:
        return ""
    return (f"v{RECOVERY_FORMAT_VERSION}:"
            + ",".join(order) + f":gnu={gnu_strategy()}")


# ----------------------------------------------------------------------
# tier 2: GNU dialect normalization (token level, line preserving)
# ----------------------------------------------------------------------

_GNU_DROP = {"__extension__", "__restrict__", "__restrict", "_Noreturn"}
_GNU_REWRITE = {
    "__inline__": "inline",
    "__inline": "inline",
    "__signed__": "signed",
    "__const__": "const",
    "__volatile__": "volatile",
}
_GNU_ATTR = {"__attribute__", "__attribute", "__declspec"}
_GNU_ASM = {"asm", "__asm__", "__asm"}
_GNU_TYPEOF = {"typeof", "__typeof__", "__typeof"}
_GNU_ASM_QUALS = {"volatile", "__volatile__", "goto", "inline"}


def _skip_layout(text: str, i: int) -> int:
    """Index of the next non-whitespace character at or after ``i``."""
    n = len(text)
    while i < n and text[i] in " \t\n":
        i += 1
    return i


def _split_top_comma(s: str) -> Tuple[str, Optional[str]]:
    """Split at the first bracket-level-0 comma (strings opaque)."""
    depth = 0
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch in "\"'":
            i = _skip_string(s, i)
            continue
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            return s[:i], s[i + 1:]
        i += 1
    return s, None


def normalize_gnu(text: str) -> Tuple[str, List[Tuple[int, str]]]:
    """Strip/rewrite GNU-dialect constructs, preserving line counts.

    Returns ``(new_text, edits)`` where each edit is
    ``(1-based source line, description)``.  String/char literals and
    comments (hence SafeFlow annotations) are never touched.
    """
    out: List[str] = []
    edits: List[Tuple[int, str]] = []
    i = 0
    n = len(text)
    line = 1

    def emit_span(span: str, replacement: str, desc: str) -> None:
        nonlocal line
        newlines = span.count("\n")
        out.append(replacement + "\n" * newlines)
        edits.append((line, desc))
        line += newlines

    while i < n:
        ch = text[i]
        if ch == "\n":
            out.append(ch)
            line += 1
            i += 1
            continue
        if ch in "\"'":
            j = _skip_string(text, i)
            out.append(text[i:j])
            line += text.count("\n", i, j)
            i = j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(text[i:j])
            i = j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(text[i:j])
            line += text.count("\n", i, j)
            i = j
            continue
        if ch == "(":
            # GNU statement expression: ({ stmts; value; })
            k = _skip_layout(text, i + 1)
            if k < n and text[k] == "{":
                close = match_pair(text, k, "{", "}")
                if close is not None:
                    m2 = _skip_layout(text, close + 1)
                    if m2 < n and text[m2] == ")":
                        emit_span(text[i:m2 + 1], "(0)",
                                  "statement expression rewritten to (0)")
                        i = m2 + 1
                        continue
            out.append(ch)
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(text, i)
            word = m.group()
            end = m.end()
            if word in _GNU_DROP:
                emit_span(word, "", f"stripped {word}")
                i = end
                continue
            if word in _GNU_REWRITE:
                emit_span(word, _GNU_REWRITE[word],
                          f"{word} rewritten to {_GNU_REWRITE[word]}")
                i = end
                continue
            if word in _GNU_ATTR:
                k = _skip_layout(text, end)
                if k < n and text[k] == "(":
                    close = match_pair(text, k, "(", ")")
                    if close is not None:
                        emit_span(text[i:close + 1], "",
                                  f"stripped {word}((...))")
                        i = close + 1
                        continue
                emit_span(word, "", f"stripped {word}")
                i = end
                continue
            if word in _GNU_TYPEOF:
                k = _skip_layout(text, end)
                if k < n and text[k] == "(":
                    close = match_pair(text, k, "(", ")")
                    if close is not None:
                        emit_span(text[i:close + 1], "int",
                                  f"{word}(...) rewritten to int")
                        i = close + 1
                        continue
                out.append(word)
                i = end
                continue
            if word in _GNU_ASM:
                k = _skip_layout(text, end)
                while k < n:
                    q = _IDENT_RE.match(text, k)
                    if q is not None and q.group() in _GNU_ASM_QUALS:
                        k = _skip_layout(text, q.end())
                        continue
                    break
                if k < n and text[k] == "(":
                    close = match_pair(text, k, "(", ")")
                    if close is not None:
                        emit_span(text[i:close + 1], "",
                                  "stripped inline asm")
                        i = close + 1
                        continue
                if k < n and text[k] == "{":
                    close = match_pair(text, k, "{", "}")
                    if close is not None:
                        emit_span(text[i:close + 1], ";",
                                  "stripped asm block")
                        i = close + 1
                        continue
                out.append(word)
                i = end
                continue
            if word == "__builtin_expect":
                k = _skip_layout(text, end)
                if k < n and text[k] == "(":
                    close = match_pair(text, k, "(", ")")
                    if close is not None:
                        inner = text[k + 1:close]
                        first, second = _split_top_comma(inner)
                        if second is not None:
                            span = text[i:close + 1]
                            repl = "(" + first.strip() + ")"
                            pad = span.count("\n") - repl.count("\n")
                            out.append(repl + "\n" * max(0, pad))
                            edits.append((
                                line,
                                "__builtin_expect(e, c) rewritten to (e)",
                            ))
                            line += span.count("\n")
                            i = close + 1
                            continue
                out.append(word)
                i = end
                continue
            if word in ("__builtin_unreachable", "__builtin_trap"):
                k = _skip_layout(text, end)
                if k < n and text[k] == "(":
                    close = match_pair(text, k, "(", ")")
                    if close is not None:
                        emit_span(text[i:close + 1], "0",
                                  f"{word}() rewritten to 0")
                        i = close + 1
                        continue
                out.append(word)
                i = end
                continue
            out.append(word)
            i = end
            continue
        out.append(ch)
        i += 1
    return "".join(out), edits


# ----------------------------------------------------------------------
# tier 4: heuristic source cleanup (PCD-SVD-style)
# ----------------------------------------------------------------------

#: directives the mini preprocessor understands and that must survive
_KEEP_DIRECTIVES = frozenset({
    "include", "define", "undef", "if", "ifdef", "ifndef",
    "elif", "else", "endif", "pragma", "line",
})

_DIRECTIVE_RE = re.compile(r"\s*#\s*([A-Za-z_][A-Za-z0-9_]*)")


def _comment_state(line: str, in_comment: bool) -> bool:
    """Whether a block comment is still open after ``line``."""
    i = 0
    n = len(line)
    while i < n:
        if in_comment:
            j = line.find("*/", i)
            if j < 0:
                return True
            in_comment = False
            i = j + 2
            continue
        ch = line[i]
        if ch in "\"'":
            i = _skip_string(line, i)
            continue
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            return False
        if ch == "/" and i + 1 < n and line[i + 1] == "*":
            in_comment = True
            i += 2
            continue
        i += 1
    return in_comment


def cleanup_source(text: str) -> Tuple[str, List[Tuple[int, str]]]:
    """Last-resort regex cleanup, line-count preserving.

    Blanks directives the mini preprocessor cannot process (and
    ``#error``/``#warning``, which it can only fail on), normalizes
    CR/CRLF line endings, and spaces out non-ASCII bytes.  Lines inside
    block comments are never touched, so annotations survive intact.
    """
    edits: List[Tuple[int, str]] = []
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        edits.append((0, "normalized CR/CRLF line endings"))
    lines = text.split("\n")
    out_lines: List[str] = []
    in_comment = False
    nonascii_lines = 0
    for idx, ln in enumerate(lines, start=1):
        if not in_comment:
            m = _DIRECTIVE_RE.match(ln)
            if m is not None and m.group(1) not in _KEEP_DIRECTIVES:
                edits.append((idx, f"blanked directive #{m.group(1)}"))
                out_lines.append("")
                continue
        new = "".join(ch if ord(ch) < 128 else " " for ch in ln)
        if new != ln:
            nonascii_lines += 1
        out_lines.append(new)
        in_comment = _comment_state(new, in_comment)
    if nonascii_lines:
        edits.append((0, f"spaced out non-ASCII bytes on "
                         f"{nonascii_lines} line(s)"))
    return "\n".join(out_lines), edits


# ----------------------------------------------------------------------
# the ladder driver
# ----------------------------------------------------------------------

@dataclass
class RecoveredUnit:
    """Per-unit outcome of the recovery ladder.

    ``unit`` is ``None`` when every tier failed (the unit is lost,
    exactly as under ``--keep-going`` with no tiers).  ``tier`` names
    the winning tier (``"strict"`` for a clean parse with the ladder
    enabled, ``None`` with the ladder disabled or when the unit is
    lost).
    ``attempts``/``successes`` count per-tier outcomes and are only
    populated while the ladder is enabled.
    """

    unit: Optional[ParsedUnit]
    annotations: List = field(default_factory=list)
    degraded: List[DegradedUnit] = field(default_factory=list)
    tier: Optional[str] = None
    attempts: Dict[str, int] = field(default_factory=dict)
    successes: Dict[str, int] = field(default_factory=dict)
    #: every file any attempt read or looked for (``path → digest``,
    #: :func:`~repro.frontend.preprocessor.note_read`), a lost unit's
    #: too: its verdict depends on them like a parsed unit's
    reads: Dict[str, Optional[str]] = field(default_factory=dict)


def _unit_lost(path: str, exc: BaseException) -> DegradedUnit:
    if isinstance(exc, RecursionError):
        cause = "recursion limit exceeded while front-ending the unit"
        location = SourceLocation(path, 0)
    else:
        cause = getattr(exc, "message", None) or str(exc)
        location = getattr(exc, "location", None) or SourceLocation(path, 0)
    return DegradedUnit(
        kind=KIND_UNIT, name=path, cause=cause, location=location,
    )


def _fmt_edits(entries: List[Tuple[int, str]]) -> List[str]:
    out = []
    for line, desc in entries:
        out.append(f"{desc} at line {line}" if line else desc)
    return out


def _cap_edits(edits: List[str]) -> Tuple[str, ...]:
    if len(edits) <= MAX_RECORDED_EDITS:
        return tuple(edits)
    extra = len(edits) - MAX_RECORDED_EDITS
    return tuple(edits[:MAX_RECORDED_EDITS] + [f"... {extra} more edits"])


def _compat_prelude(pp_text: str) -> List[Tuple[str, str]]:
    """Compat typedefs for names the unit uses but never defines.

    Names already declared by the builtin prelude are excluded; the
    textual ``typedef`` scan is heuristic, which is acceptable because
    the unit is analyzed fail-closed regardless.
    """
    chosen: List[Tuple[str, str]] = []
    for name in sorted(COMPAT_TYPEDEFS):
        if re.search(rf"\btypedef\b[^;\n]*\b{name}\b", BUILTIN_PRELUDE):
            continue
        if not re.search(rf"\b{name}\b", pp_text):
            continue
        if re.search(rf"\btypedef\b[^;\n]*\b{name}\b\s*;", pp_text):
            continue
        chosen.append((name, COMPAT_TYPEDEFS[name]))
    return chosen


def _preprocess(text, filename, include_dirs, defines, *,
                fake_headers, missing_ok, reads=None):
    """One preprocessor run plus the prelude-tier provenance notes."""
    pp = Preprocessor(
        include_dirs=list(include_dirs),
        predefined=dict(defines or {}),
        recover=True,
        fake_headers=fake_headers,
        ignore_missing_includes=missing_ok,
        reads=reads,
    )
    source = pp.process_text(text, filename=filename)
    notes: List[str] = []
    extra_prelude = ""
    if fake_headers:
        for name in dict.fromkeys(source.fake_included):
            notes.append(
                f"resolved #include <{name}> against bundled declarations")
        for name in dict.fromkeys(source.skipped_includes):
            notes.append(f'skipped missing #include "{name}"')
        compat = _compat_prelude(source.text)
        if compat:
            extra_prelude = "\n".join(decl for _, decl in compat) + "\n"
            names = ", ".join(name for name, _ in compat)
            notes.append(f"injected compat typedefs: {names}")
    return source, extra_prelude, notes


def _salvage(text, filename, include_dirs, defines, *,
             fake_headers, missing_ok, parser_factory, reads):
    """Tier 5: drop offending definitions to declarations, retry."""
    source, extra_prelude, notes = _preprocess(
        text, filename, include_dirs, defines,
        fake_headers=fake_headers, missing_ok=missing_ok, reads=reads,
    )
    extra_lines = extra_prelude.count("\n")
    work = source.text
    records: List[DegradedUnit] = []
    for _ in range(MAX_SALVAGE_ROUNDS):
        try:
            ast = parse_text(work, filename, extra_prelude, parser_factory)
        except PlyParseError as exc:
            out_line = (error_line(exc) or -1) - PRELUDE_LINES - extra_lines
            if out_line <= 0:
                raise ParseError(
                    f"salvage tier: parse error outside the unit text: "
                    f"{exc}", SourceLocation(filename, 0))
            err_idx_line = out_line  # 1-based line into ``work``
            span = None
            for name, name_idx, brace_idx, close_idx in function_spans(work):
                start_line = work.count("\n", 0, name_idx) + 1
                end_line = work.count("\n", 0, close_idx) + 1
                if start_line <= err_idx_line <= end_line:
                    span = (name, name_idx, brace_idx, close_idx,
                            start_line)
                    break
            if span is None:
                raise ParseError(
                    f"salvage tier: parse error at output line "
                    f"{out_line} is not inside a function definition: "
                    f"{exc}",
                    source.origin(out_line))
            name, name_idx, brace_idx, close_idx, start_line = span
            body = work[brace_idx:close_idx + 1]
            work = (work[:brace_idx] + ";" + "\n" * body.count("\n")
                    + work[close_idx + 1:])
            loc = source.origin(start_line)
            records.append(DegradedUnit(
                kind=KIND_FUNCTION,
                name=name,
                cause=("definition dropped to a declaration by the "
                       "salvage tier (parse failure inside it)"),
                location=loc,
                function=name,
                tier=TIER_SALVAGE,
            ))
            notes = notes + [f"dropped definition of {name}() "
                             f"to a declaration"]
            continue
        except RecursionError:
            raise ParseError(
                "salvage tier: parser recursion limit exceeded",
                SourceLocation(filename, 0))
        source.text = work
        unit = ParsedUnit(ast, source, filename,
                          extra_prelude_lines=extra_lines)
        return unit, source, records, notes
    raise ParseError(
        f"salvage tier: more than {MAX_SALVAGE_ROUNDS} definitions "
        f"would need dropping", SourceLocation(filename, 0))


def _attempt(text, filename, include_dirs, defines, *,
             fake_headers, missing_ok, parser_factory, reads):
    """Preprocess + parse one accumulated ladder state."""
    source, extra_prelude, notes = _preprocess(
        text, filename, include_dirs, defines,
        fake_headers=fake_headers, missing_ok=missing_ok, reads=reads,
    )
    unit = parse_preprocessed(
        source, name=filename, extra_prelude=extra_prelude,
        parser_factory=parser_factory,
    )
    return unit, source, [], notes


def frontend_unit(
    text: str,
    filename: str,
    include_dirs: Sequence[str] = (),
    defines: Optional[Dict[str, str]] = None,
    recover_tiers: Optional[Sequence[str]] = None,
    previous: Optional[ParsedUnit] = None,
) -> RecoveredUnit:
    """Front-end one translation unit through the recovery ladder.

    ``recover_tiers`` is ``AnalysisConfig.recover_tiers``: with
    ``None`` (strict) preprocess and parse errors propagate; with
    ``()`` (keep-going, no ladder) a failing unit is a lost-unit
    record; with tiers it falls through them first. ``previous`` is
    the unit's last strict parse, which the strict tier splices from
    (:func:`~repro.frontend.parser.parse_preprocessed`); the other
    tiers parse in full.
    """
    recover = recover_tiers is not None
    order = [t for t in TIER_ORDER if t in tuple(recover_tiers or ())]
    attempts: Dict[str, int] = {}
    successes: Dict[str, int] = {}
    counting = bool(order)
    reads: Dict[str, Optional[str]] = {}

    if counting:
        attempts[TIER_STRICT] = 1
    strict_exc: Optional[BaseException] = None
    try:
        on_recovery_tier(TIER_STRICT)
        pp = Preprocessor(
            include_dirs=list(include_dirs),
            predefined=dict(defines or {}),
            recover=recover,
            reads=reads,
        )
        source = pp.process_text(text, filename=filename)
        unit = parse_preprocessed(source, name=filename, previous=previous)
    except (PreprocessorError, ParseError, RecursionError) as exc:
        if not recover:
            raise
        strict_exc = exc
    except Exception as exc:
        if not order:  # no ladder: exactly the historical behavior
            raise
        strict_exc = exc
    if strict_exc is None:
        if counting:
            successes[TIER_STRICT] = 1
        return RecoveredUnit(
            unit=unit, annotations=source.annotations,
            degraded=list(source.degraded),
            tier=TIER_STRICT if counting else None,
            attempts=attempts, successes=successes, reads=reads,
        )

    strict_cause = getattr(strict_exc, "message", None) or str(strict_exc)
    strict_loc = (getattr(strict_exc, "location", None)
                  or SourceLocation(filename, 0))

    state_text = text
    cum_edits: List[str] = []
    fake_headers = False
    missing_ok = False
    parser_factory = None
    for tier in order:
        attempts[tier] = 1
        try:
            on_recovery_tier(tier)
            if tier == TIER_GNU:
                new_text, edits = normalize_gnu(state_text)
                factory = gnu_parser_class()
                if not edits and factory is None:
                    raise ParseError(
                        "gnu tier: no GNU constructs to normalize",
                        SourceLocation(filename, 0))
                state_text = new_text
                cum_edits.extend(_fmt_edits(edits))
                parser_factory = factory
                unit, source, extra_records, notes = _attempt(
                    state_text, filename, include_dirs, defines,
                    fake_headers=fake_headers, missing_ok=missing_ok,
                    parser_factory=parser_factory, reads=reads,
                )
                if parser_factory is not None:
                    notes = notes + ["parsed with pycparserext GnuCParser"]
            elif tier == TIER_PRELUDE:
                fake_headers = True
                missing_ok = True
                unit, source, extra_records, notes = _attempt(
                    state_text, filename, include_dirs, defines,
                    fake_headers=fake_headers, missing_ok=missing_ok,
                    parser_factory=parser_factory, reads=reads,
                )
            elif tier == TIER_CLEANUP:
                new_text, edits = cleanup_source(state_text)
                if not edits:
                    raise ParseError(
                        "cleanup tier: nothing to clean up",
                        SourceLocation(filename, 0))
                state_text = new_text
                cum_edits.extend(_fmt_edits(edits))
                unit, source, extra_records, notes = _attempt(
                    state_text, filename, include_dirs, defines,
                    fake_headers=fake_headers, missing_ok=missing_ok,
                    parser_factory=parser_factory, reads=reads,
                )
            else:  # TIER_SALVAGE
                unit, source, extra_records, notes = _salvage(
                    state_text, filename, include_dirs, defines,
                    fake_headers=fake_headers, missing_ok=missing_ok,
                    parser_factory=parser_factory, reads=reads,
                )
        except Exception:
            # any failure — parse error, preprocessor error, or an
            # injected/real crash — counts as this tier failing and the
            # ladder falls through to the next tier
            continue
        successes[tier] = 1
        records = list(source.degraded) + list(extra_records)
        records.append(DegradedUnit(
            kind=KIND_RECOVERED,
            name=filename,
            cause=(f"unit salvaged by the recovery ladder "
                   f"(strict front end failed: {strict_cause})"),
            location=strict_loc,
            tier=tier,
            edits=_cap_edits(cum_edits + notes),
        ))
        return RecoveredUnit(
            unit=unit, annotations=source.annotations, degraded=records,
            tier=tier, attempts=attempts, successes=successes, reads=reads,
        )

    return RecoveredUnit(
        unit=None, annotations=[], degraded=[_unit_lost(filename, strict_exc)],
        tier=None, attempts=attempts, successes=successes, reads=reads,
    )


def frontend_file(
    path: str,
    include_dirs: Sequence[str] = (),
    defines: Optional[Dict[str, str]] = None,
    recover_tiers: Optional[Sequence[str]] = None,
    previous: Optional[ParsedUnit] = None,
) -> RecoveredUnit:
    """Read one source file and :func:`frontend_unit` its text.

    The unit's ``source.digests`` records the file as it was read
    (its includes are recorded by the preprocessor that read them).
    A file that cannot be read or decoded raises
    :class:`~repro.errors.PreprocessorError` in strict mode and is a
    lost unit under keep-going, like a unit that does not parse.
    """
    try:
        text, digest = read_source(path)
    except (OSError, UnicodeDecodeError) as exc:
        failure = PreprocessorError(f"cannot read {path}: {exc}")
        if recover_tiers is None:
            raise failure
        return RecoveredUnit(unit=None, degraded=[_unit_lost(path, failure)])
    result = frontend_unit(text, path, include_dirs, defines, recover_tiers,
                           previous)
    note_read(result.reads, path, digest)
    return result
