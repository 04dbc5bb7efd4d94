"""Reference top-level definition splitter: one character at a time.

The front end's splitter (:func:`repro.frontend.parser.function_spans`)
and brace/paren matcher (:func:`repro.frontend.parser.match_pair`)
jump between interesting characters with a regex; these are the
character-by-character scans they replaced, kept as the oracle their
fuzz test holds them to.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.frontend.preprocessor import _skip_string


def match_pair(text: str, i: int, open_ch: str, close_ch: str
               ) -> Optional[int]:
    """Index of the ``close_ch`` matching ``text[i] == open_ch``,
    skipping string/char literals and comments; ``None`` if unbalanced.
    """
    depth = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "\"'":
            i = _skip_string(text, i)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            i = n if j < 0 else j + 2
            continue
        if ch == open_ch:
            depth += 1
        elif ch == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None


def _skip_layout(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i] in " \t\n":
        i += 1
    return i


def function_spans(work: str) -> List[Tuple[str, int, int, int]]:
    """``(name, name_index, brace_index, close_index)`` per top-level
    function definition (brace-depth based, string-aware)."""
    spans: List[Tuple[str, int, int, int]] = []
    i = 0
    n = len(work)
    depth = 0
    while i < n:
        ch = work[i]
        if ch in "\"'":
            i = _skip_string(work, i)
            continue
        if ch == "{":
            depth += 1
            i += 1
            continue
        if ch == "}":
            depth = max(0, depth - 1)
            i += 1
            continue
        if ch == "(" and depth == 0:
            close = match_pair(work, i, "(", ")")
            if close is None:
                return spans
            j = i - 1
            while j >= 0 and work[j] in " \t\n":
                j -= 1
            end_id = j
            while j >= 0 and (work[j].isalnum() or work[j] == "_"):
                j -= 1
            name = work[j + 1:end_id + 1]
            k = _skip_layout(work, close + 1)
            if name and name[0].isidentifier() and k < n and work[k] == "{":
                body_close = match_pair(work, k, "{", "}")
                if body_close is None:
                    return spans
                spans.append((name, j + 1, k, body_close))
                i = body_close + 1
                continue
            i = close + 1
            continue
        i += 1
    return spans
