"""pycparser wrapper: builtin prelude, parsing, coordinate translation.

System headers are *not* textually included (the mini preprocessor
skips ``#include <...>``); instead a builtin prelude declares the
library functions embedded control code uses — notably the System V
shared-memory calls the paper's initialization analysis recognizes
(``shmget``/``shmat``/``shmdt``), ``kill`` (whose pid argument is
critical data, §3.1), and the socket calls of the §3.4.3 extension.
"""

from __future__ import annotations

import functools
import re
from typing import List, Optional, Tuple

import pycparser
from pycparser import c_ast
try:  # pycparser < 3 keeps ParseError in plyparser; >= 3 in c_parser
    from pycparser.plyparser import ParseError as PlyParseError
except ImportError:  # pragma: no cover - depends on installed version
    from pycparser.c_parser import ParseError as PlyParseError

from ..errors import ParseError
from ..ir.source import SourceLocation
from .preprocessor import PreprocessedSource, _skip_string

BUILTIN_PRELUDE = """
typedef unsigned int size_t;
typedef int ssize_t;
typedef int pid_t;
typedef int key_t;
typedef long time_t;
typedef long off_t;
typedef unsigned int mode_t;
typedef struct __sf_file FILE;
extern FILE *stdin;
extern FILE *stdout;
extern FILE *stderr;

extern int shmget(key_t key, size_t size, int shmflg);
extern void *shmat(int shmid, const void *shmaddr, int shmflg);
extern int shmdt(const void *shmaddr);
extern int shmctl(int shmid, int cmd, void *buf);

extern int semget(key_t key, int nsems, int semflg);
extern int semop(int semid, void *sops, size_t nsops);
extern int semctl(int semid, int semnum, int cmd, int arg);

extern int kill(pid_t pid, int sig);
extern pid_t getpid(void);
extern pid_t fork(void);
extern void exit(int status);
extern void abort(void);
extern unsigned int sleep(unsigned int seconds);
extern int usleep(unsigned int usec);

extern int printf(const char *format, ...);
extern int fprintf(FILE *stream, const char *format, ...);
extern int sprintf(char *str, const char *format, ...);
extern int snprintf(char *str, size_t size, const char *format, ...);
extern int scanf(const char *format, ...);
extern int fscanf(FILE *stream, const char *format, ...);
extern int sscanf(const char *str, const char *format, ...);
extern FILE *fopen(const char *path, const char *mode);
extern int fclose(FILE *stream);
extern char *fgets(char *s, int size, FILE *stream);
extern int fflush(FILE *stream);
extern int puts(const char *s);
extern int getchar(void);

extern void *malloc(size_t size);
extern void *calloc(size_t nmemb, size_t size);
extern void free(void *ptr);
extern int atoi(const char *nptr);
extern double atof(const char *nptr);
extern long strtol(const char *nptr, char **endptr, int base);
extern void *memcpy(void *dest, const void *src, size_t n);
extern void *memset(void *s, int c, size_t n);
extern int memcmp(const void *s1, const void *s2, size_t n);
extern char *strcpy(char *dest, const char *src);
extern char *strncpy(char *dest, const char *src, size_t n);
extern int strcmp(const char *s1, const char *s2);
extern int strncmp(const char *s1, const char *s2, size_t n);
extern size_t strlen(const char *s);
extern char *strcat(char *dest, const char *src);
extern int abs(int j);
extern int rand(void);
extern void srand(unsigned int seed);

extern double fabs(double x);
extern float fabsf(float x);
extern double sqrt(double x);
extern double sin(double x);
extern double cos(double x);
extern double tan(double x);
extern double atan(double x);
extern double atan2(double y, double x);
extern double exp(double x);
extern double log(double x);
extern double pow(double x, double y);
extern double floor(double x);
extern double ceil(double x);
extern double fmod(double x, double y);

extern int socket(int domain, int type, int protocol);
extern ssize_t recv(int sockfd, void *buf, size_t len, int flags);
extern ssize_t send(int sockfd, const void *buf, size_t len, int flags);
extern int close(int fd);
extern ssize_t read(int fd, void *buf, size_t count);
extern ssize_t write(int fd, const void *buf, size_t count);
extern int open(const char *pathname, int flags, ...);
extern int ioctl(int fd, unsigned long request, ...);

extern time_t time(time_t *t);
extern int gettimeofday(void *tv, void *tz);

extern void __safeflow_assert_safe();
extern void __safeflow_init_check();
"""

PRELUDE_LINES = BUILTIN_PRELUDE.count("\n")

#: library functions declared by the prelude (treated as externals by
#: the call graph; their names never appear as analysis targets).
BUILTIN_FUNCTIONS = frozenset(
    line.split("(")[0].split()[-1].lstrip("*")
    for line in BUILTIN_PRELUDE.splitlines()
    if line.startswith("extern") and "(" in line
)

#: functions that deallocate/detach shared memory (rule P1)
SHM_DEALLOCATORS = frozenset({"shmdt", "shmctl"})

#: functions whose return value is a fresh shared-memory mapping
SHM_ALLOCATORS = frozenset({"shmat"})


class ParsedUnit:
    """A parsed translation unit plus its line-provenance map.

    ``extra_prelude_lines`` counts prelude lines injected *beyond* the
    builtin prelude (the recovery ladder's prelude tier prepends compat
    typedefs); coordinate translation subtracts both, so diagnostics
    stay line-accurate however much the prelude grew.
    """

    def __init__(
        self,
        ast: c_ast.FileAST,
        source: PreprocessedSource,
        name: str = "<unit>",
        extra_prelude_lines: int = 0,
    ):
        self.ast = ast
        self.source = source
        self.name = name
        self.extra_prelude_lines = extra_prelude_lines
        #: :func:`_layout` of ``source.text``, computed when an edit
        #: first re-parses against this unit (see :func:`_reparse`)
        self._layout = None

    def origin(self, coord) -> SourceLocation:
        """Translate a pycparser coord into an original source location."""
        if coord is None:
            return SourceLocation(self.name, 0)
        extra = getattr(self, "extra_prelude_lines", 0)
        line = coord.line - PRELUDE_LINES - extra
        if line <= 0:
            return SourceLocation("<builtin>", coord.line)
        loc = self.source.origin(line)
        return SourceLocation(loc.filename, loc.line, getattr(coord, "column", 0))

    def layout(self):
        """:func:`_layout` of the unit's text, computed once."""
        if self._layout is None:
            self._layout = _layout(self.source.text)
        return self._layout


def parse_preprocessed(
    source: PreprocessedSource,
    name: str = "<unit>",
    extra_prelude: str = "",
    parser_factory=None,
    previous: Optional[ParsedUnit] = None,
) -> ParsedUnit:
    """Parse preprocessed C (with the builtin prelude prepended).

    ``extra_prelude`` is additional declaration text the recovery
    ladder injects between the builtin prelude and the unit; it must be
    newline-terminated. ``parser_factory`` overrides the parser class
    (the GNU recovery tier substitutes pycparserext's ``GnuCParser``
    when the ``wild`` extra is installed). ``previous`` is the same
    unit's last strict parse (the incremental session passes it): when
    only function bodies moved, only those bodies are parsed and the
    rest of the tree is the previous one's (:func:`_reparse`).
    """
    if extra_prelude and not extra_prelude.endswith("\n"):
        extra_prelude += "\n"
    extra_lines = extra_prelude.count("\n")
    if previous is not None and not extra_prelude and parser_factory is None:
        unit = _reparse(source, name, previous)
        if unit is not None:
            return unit
    try:
        ast = parse_text(source.text, name, extra_prelude, parser_factory)
    except PlyParseError as exc:
        message = str(exc)
        location = _location_from_message(
            message, source, name, extra_lines,
            getattr(exc, "token_line", None))
        raise ParseError(f"C parse error: {message}", location)
    except RecursionError:
        raise ParseError(
            "C parse error: expression nesting exceeds the parser's "
            "recursion limit",
            SourceLocation(name, 0),
        )
    except Exception as exc:  # pycparser internals (lexer asserts, ...)
        raise ParseError(
            f"C parse error: parser failure: {exc}",
            SourceLocation(name, 0),
        )
    return ParsedUnit(ast, source, name, extra_prelude_lines=extra_lines)


# ----------------------------------------------------------------------
# the builtin prelude, parsed once per process
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _prelude() -> Tuple[List[c_ast.Node], str, int]:
    """``(nodes, stand_in, stand_in_nodes)`` for the builtin prelude.

    ``nodes`` is the prelude's top level, parsed once per process and
    shared by every unit (nothing downstream mutates an AST; their
    coordinates name the file ``<builtin>``, which
    :meth:`ParsedUnit.origin` reports for prelude lines anyway). The
    parser reads ``stand_in`` in the prelude's place: one ``typedef
    int`` naming every prelude typedef and one ``extern int`` naming
    every other prelude declaration, which leaves pycparser's file
    scope -- the only parser state a declaration leaves behind -- with
    exactly the type and non-type names the prelude text would, then a
    ``#line`` directive that numbers the unit's lines as if the
    prelude text had preceded them. ``stand_in_nodes`` counts the
    top-level nodes the stand-in parses to.
    """
    parser = pycparser.CParser()
    try:
        nodes = parser.parse(BUILTIN_PRELUDE, filename="<builtin>").ext
    finally:
        release_parser(parser)
    types = [n.name for n in nodes if isinstance(n, c_ast.Typedef)]
    names = [n.name for n in nodes if isinstance(n, c_ast.Decl) and n.name]
    stand_in = "".join(
        f"{kind} int {', '.join(group)};\n"
        for kind, group in (("typedef", types), ("extern", names)) if group)
    return (nodes, f"{stand_in}#line {PRELUDE_LINES + 1}\n",
            len(types) + len(names))


def parse_text(text: str, name: str, extra_prelude: str = "",
               parser_factory=None) -> c_ast.FileAST:
    """Parse ``extra_prelude + text`` behind the builtin prelude.

    pycparser's own errors propagate, with ``token_line`` set to the
    line of the token the parser stopped at; lines and columns in the
    tree and in error messages are those of the full text. A
    ``parser_factory`` parser (the GNU tier's) reads the prelude text
    itself; the default parser reads :func:`_prelude`'s stand-in, and
    the cached prelude nodes replace what the stand-in parsed to.
    """
    if parser_factory is None:
        nodes, prelude, stand_in_nodes = _prelude()
        parser = pycparser.CParser()
    else:
        prelude, parser = BUILTIN_PRELUDE, parser_factory()
    try:
        ast = parser.parse(prelude + extra_prelude + text, filename=name)
    except PlyParseError as exc:
        exc.token_line = _token_line(parser)
        raise
    finally:
        release_parser(parser)
    if parser_factory is None:
        ast.ext[:stand_in_nodes] = nodes
    return ast


#: parser attributes that tie a parser, its lexer and its token buffer
#: into reference cycles: the lexer calls back into the parser through
#: bound methods, and pycparser 3's ``_tokens`` keeps every token read
#: (the PLY-based 2.x parsers keep their yacc tables in ``cparser``)
_PARSER_CYCLE_ATTRS = ("clex", "_tokens", "cparser")


def release_parser(parser) -> None:
    """Cut a finished parser's cycles, so the parser, its lexer and
    every token die by refcount instead of waiting for a collection.
    The parser cannot parse again afterwards."""
    state = vars(parser)
    for attr in _PARSER_CYCLE_ATTRS:
        if attr in state:
            state[attr] = None


def _token_line(parser) -> Optional[int]:
    """Line of the token a failed pycparser 3 parse stopped at: the
    next unread token, else the last one read (``None`` for parsers
    without a token stream)."""
    tokens = getattr(parser, "_tokens", None)
    seen = getattr(tokens, "_buffer", [])[:getattr(tokens, "_index", 0) + 1]
    for token in reversed(seen):
        if token is not None:
            return token.lineno
    return None


def _location_from_message(
    message: str, source: PreprocessedSource, name: str,
    extra_prelude_lines: int = 0, token_line: Optional[int] = None,
) -> Optional[SourceLocation]:
    # pycparser errors look like "<file>:LINE:COL: before: tok"; some
    # pycparser 3 errors name only the file, and then the line is the
    # one of the token the parser stopped at
    for part in message.split(":"):
        if part.strip().isdigit():
            token_line = int(part.strip())
            break
    if token_line is None:
        return SourceLocation(name, 0)
    line = token_line - PRELUDE_LINES - extra_prelude_lines
    if line > 0:
        return source.origin(line)
    return SourceLocation("<builtin>", token_line)


# ----------------------------------------------------------------------
# top-level definitions: the splitter and the body-only re-parse
# ----------------------------------------------------------------------

#: what :func:`match_pair` stops at, per bracket pair
_PAIR_STOPS = {pair: re.compile(f"[\"'{re.escape(pair)}]|/[/*]")
               for pair in ("()", "{}")}
#: what :func:`function_spans` stops at, at top level and inside braces
_TOP_STOPS = re.compile(r"[\"'{}(]")
_NESTED_STOPS = re.compile(r"[\"'{}]")
_LAYOUT = re.compile(r"[ \t\n]*")


def match_pair(text: str, i: int, open_ch: str, close_ch: str
               ) -> Optional[int]:
    """Index of the ``close_ch`` matching ``text[i] == open_ch``,
    skipping string/char literals and comments; ``None`` if unbalanced.
    """
    stops = _PAIR_STOPS[open_ch + close_ch]
    depth = 0
    n = len(text)
    while True:
        match = stops.search(text, i)
        if match is None:
            return None
        i = match.start()
        token = match.group()
        if token == open_ch:
            depth += 1
            i += 1
        elif token == close_ch:
            depth -= 1
            if depth == 0:
                return i
            i += 1
        elif token == "//":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif token == "/*":
            j = text.find("*/", i + 2)
            i = n if j < 0 else j + 2
        else:
            i = _skip_string(text, i)


def function_spans(work: str) -> List[Tuple[str, int, int, int]]:
    """Top-level function-definition spans in preprocessed text.

    Returns ``(name, name_index, brace_index, close_index)`` per
    definition. The scan is brace-depth based and string-aware; the
    input has no comments (the preprocessor stripped them). It jumps
    from one brace, parenthesis or quote to the next.
    """
    spans: List[Tuple[str, int, int, int]] = []
    i = 0
    n = len(work)
    depth = 0
    while True:
        match = (_NESTED_STOPS if depth else _TOP_STOPS).search(work, i)
        if match is None:
            return spans
        i = match.start()
        ch = work[i]
        if ch == "{":
            depth += 1
            i += 1
        elif ch == "}":
            depth = max(0, depth - 1)
            i += 1
        elif ch != "(":
            i = _skip_string(work, i)
        else:
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
            k = _LAYOUT.match(work, close + 1).end()
            if name and name[0].isidentifier() and k < n and work[k] == "{":
                body_close = match_pair(work, k, "{", "}")
                if body_close is None:
                    return spans
                spans.append((name, j + 1, k, body_close))
                i = body_close + 1
            else:
                i = close + 1


def _stub_bodies(text: str, spans) -> Tuple[str, Tuple[Tuple[str, int], ...]]:
    """``text`` with each span's body replaced by ``;`` -- the
    definition becomes a prototype -- plus the body's newlines and
    enough spaces that everything after the body keeps its line and
    column. Also returns each stub's ``(name, offset)`` in the result.
    """
    pieces = []
    anchors = []
    size = prev = 0
    for name, _, brace, close in spans:
        newlines = text.count("\n", brace, close)
        last = text.rfind("\n", brace, close) if newlines else brace
        head = text[prev:brace]
        stub = ";" + "\n" * newlines + " " * (close - last)
        pieces += (head, stub)
        size += len(head)
        anchors.append((name, size))
        size += len(stub)
        prev = close + 1
    pieces.append(text[prev:])
    return "".join(pieces), tuple(anchors)


def _layout(text: str):
    """``(spans, skeleton, anchors)``: the unit's definition spans, its
    text with every definition body stubbed, and where in that text
    each stub sits."""
    spans = function_spans(text)
    return (spans,) + _stub_bodies(text, spans)


def _reparse(source: PreprocessedSource, name: str,
             previous: ParsedUnit) -> Optional[ParsedUnit]:
    """Parse only the definition bodies that differ from ``previous``.

    Applies when the new skeleton equals the previous one, stubs at the
    same offsets: every definition then sits at the same line and column,
    and pycparser's file scope -- which no function body changes --
    is the same at each of them. Unchanged bodies are parsed as stubs
    and each stub is replaced by the previous tree's definition at the
    same position; changed bodies are parsed in place. ``None`` --
    parse the whole unit -- when the skeleton moved, when no body is
    unchanged, when the stubbed text fails to parse (the full parse
    reports the error) or when a stub has no previous definition.
    """
    old_spans, old_skeleton, old_anchors = previous.layout()
    text = source.text
    layout = spans, skeleton, anchors = _layout(text)
    if anchors != old_anchors or skeleton != old_skeleton:
        return None
    old_text = previous.source.text
    unchanged = [new for new, old in zip(spans, old_spans)
                 if text[new[2]:new[3]] == old_text[old[2]:old[3]]]
    if not unchanged:
        return None
    try:
        ast = parse_text(_stub_bodies(text, unchanged)[0], name)
    except Exception:
        return None
    old_defs = {(ext.decl.name, ext.coord.line, ext.coord.column): ext
                for ext in previous.ast.ext
                if isinstance(ext, c_ast.FuncDef) and ext.coord is not None}
    spliced = 0
    ext = ast.ext
    for index, node in enumerate(ext):
        if (isinstance(node, c_ast.Decl)
                and isinstance(node.type, c_ast.FuncDecl)
                and node.coord is not None):
            old = old_defs.get((node.name, node.coord.line,
                                node.coord.column))
            if old is not None:
                ext[index] = old
                spliced += 1
    if spliced != len(unchanged):
        return None
    unit = ParsedUnit(ast, source, name)
    unit._layout = layout
    return unit


def parse_files(
    paths: List[str],
    include_dirs: Tuple[str, ...] = (),
    predefined=None,
) -> List[ParsedUnit]:
    """Preprocess and parse several C files as one program."""
    from .preprocessor import Preprocessor

    units = []
    for path in paths:
        pp = Preprocessor(include_dirs=list(include_dirs), predefined=dict(predefined or {}))
        source = pp.process_file(path)
        units.append(parse_preprocessed(source, name=path))
    return units
