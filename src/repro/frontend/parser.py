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
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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
        #: :func:`_graft`'s index of the unit's definitions, kept from
        #: the splice that built the unit or built on first use
        self._defs = None

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

    def definitions(self) -> Dict[tuple, tuple]:
        """:func:`_graft`'s ``{key: (typedefs, FuncDef)}`` of the unit,
        which an edit of it splices from (:func:`_splice`)."""
        if self._defs is None:
            self._defs = _graft(self.ast, _definitions(self.source.text),
                                {})
        return self._defs


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
    when the ``wild`` extra is installed). Without either,
    ``previous`` -- the same unit's last strict parse, from the
    incremental session -- is spliced from (:func:`_splice`): only the
    definitions an edit touched or moved are parsed again.
    """
    if extra_prelude and not extra_prelude.endswith("\n"):
        extra_prelude += "\n"
    extra_lines = extra_prelude.count("\n")
    defs = None
    try:
        if previous is not None and not extra_prelude \
                and parser_factory is None:
            ast, defs = _splice(source.text, name, previous)
        else:
            ast = parse_text(source.text, name, extra_prelude, parser_factory)
    except PlyParseError as exc:
        raise ParseError(f"C parse error: {exc}", _error_location(
            error_line(exc), source, name, extra_lines))
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
    unit = ParsedUnit(ast, source, name, extra_prelude_lines=extra_lines)
    unit._defs = defs
    return unit


# ----------------------------------------------------------------------
# the builtin prelude, parsed once per process
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _prelude() -> Tuple[List[c_ast.Node], str, str, FrozenSet[str]]:
    """``(nodes, stand_in, full_stand_in, names)`` for the builtin
    prelude.

    ``nodes`` is the prelude's top level, parsed once per process and
    shared by every unit (nothing downstream mutates an AST; their
    coordinates name the file ``<builtin>``, which
    :meth:`ParsedUnit.origin` reports for prelude lines anyway). The
    parser reads a stand-in in the prelude's place, then a ``#line``
    directive that numbers the unit's lines as if the prelude text had
    preceded them. ``stand_in`` is one ``typedef int`` naming every
    prelude typedef: only typedef names steer pycparser.
    ``full_stand_in`` adds ``extern int`` naming the other prelude
    declarations (``names``), leaving the file scope as the prelude
    text would, for a unit typedef that clashes with one of them.
    """
    parser = pycparser.CParser()
    try:
        nodes = parser.parse(BUILTIN_PRELUDE, filename="<builtin>").ext
    finally:
        release_parser(parser)
    types = ", ".join(n.name for n in nodes if isinstance(n, c_ast.Typedef))
    names = [n.name for n in nodes if isinstance(n, c_ast.Decl) and n.name]
    stand_in = f"typedef int {types};\n"
    full = f"{stand_in}extern int {', '.join(names)};\n"
    line = f"#line {PRELUDE_LINES + 1}\n"
    return nodes, stand_in + line, full + line, frozenset(names)


def parse_text(text: str, name: str, extra_prelude: str = "",
               parser_factory=None) -> c_ast.FileAST:
    """Parse ``extra_prelude + text`` behind the builtin prelude.

    pycparser's own errors propagate, with ``token_line`` set to the
    line of the token the parser stopped at; lines and columns in the
    tree and in error messages are those of the full text. A
    ``parser_factory`` parser (the GNU tier's) reads the prelude text
    itself; the default parser reads :func:`_prelude`'s stand-in, and
    the cached prelude nodes replace what the stand-in parsed to. A
    parse that fails, or that declares a typedef named like a prelude
    non-typedef, is parsed again behind the full stand-in, which gives
    the error the prelude text would.
    """
    if parser_factory is not None:
        return _parse(parser_factory(), BUILTIN_PRELUDE + extra_prelude
                      + text, name)
    nodes, stand_in, full, names = _prelude()
    try:
        ast = _parse(pycparser.CParser(), stand_in + extra_prelude + text,
                     name)
    except PlyParseError:
        pass
    else:
        # the stand-in parses to one Typedef per prelude typedef
        count = len(nodes) - len(names)
        if not any(type(ext) is c_ast.Typedef and ext.name in names
                   for ext in ast.ext[count:]):
            ast.ext[:count] = nodes
            return ast
    ast = _parse(pycparser.CParser(), full + extra_prelude + text, name)
    ast.ext[:len(nodes)] = nodes
    return ast


def _parse(parser, text: str, name: str) -> c_ast.FileAST:
    try:
        return parser.parse(text, filename=name)
    except PlyParseError as exc:
        exc.token_line = _token_line(parser)
        raise
    finally:
        release_parser(parser)


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


def error_line(exc: BaseException) -> Optional[int]:
    """Absolute (prelude-inclusive) line of a pycparser error: from its
    message ("<file>:LINE:COL: before: tok"), else -- some pycparser 3
    errors name only the file -- the line of the token the parser
    stopped at (``token_line``, :func:`parse_text`)."""
    for part in str(exc).split(":"):
        if part.strip().isdigit():
            return int(part.strip())
    return getattr(exc, "token_line", None)


def _error_location(line: Optional[int], source: PreprocessedSource,
                    name: str, extra_prelude_lines: int) -> SourceLocation:
    if line is None:
        return SourceLocation(name, 0)
    if line - PRELUDE_LINES - extra_prelude_lines > 0:
        return source.origin(line - PRELUDE_LINES - extra_prelude_lines)
    return SourceLocation("<builtin>", line)


# ----------------------------------------------------------------------
# top-level definitions: the splitter and the splice
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


def _stub_bodies(text: str, spans) -> str:
    """``text`` with each span's body replaced by ``;`` -- the
    definition becomes a prototype -- plus the body's newlines and
    enough spaces that everything after the body keeps its line and
    column.
    """
    pieces = []
    prev = 0
    for _, _, brace, close in spans:
        newlines = text.count("\n", brace, close)
        last = text.rfind("\n", brace, close) if newlines else brace
        pieces += (text[prev:brace],
                   ";" + "\n" * newlines + " " * (close - last))
        prev = close + 1
    pieces.append(text[prev:])
    return "".join(pieces)


#: what :func:`_definitions` stops at between two definitions
_DECL_STOPS = re.compile(r"[\"';{}]")

#: ``name`` as a whole identifier (or next to a ``$``, which pycparser
#: takes into identifiers)
_TOKEN = r"(?<![A-Za-z0-9_]){}(?![A-Za-z0-9_])"


def _definitions(text: str) -> List[tuple]:
    """``(span, position, key)`` per :func:`function_spans` span of
    preprocessed ``text``: ``key`` is ``(line, column, text)`` of the
    definition, which starts after the last top-level ``;`` before its
    name (or after the previous definition); ``position`` is the
    absolute ``(line, column)`` of its name, its ``FuncDef``'s coord.
    """
    out = []
    line = 1
    at = prev = 0
    for span in function_spans(text):
        _, name_index, _, close = span
        boundary = i = prev
        depth = 0
        while match := _DECL_STOPS.search(text, i, name_index):
            i, ch = match.end(), match.group()
            if ch in "{}":
                depth += 1 if ch == "{" else -1
            elif ch == ";":
                boundary = i if depth == 0 else boundary
            else:
                i = _skip_string(text, i - 1)
        start = _LAYOUT.match(text, boundary).end()
        line += text.count("\n", at, start)
        at = start
        name_line = line + text.count("\n", start, name_index)
        position = (PRELUDE_LINES + name_line,
                    name_index - text.rfind("\n", 0, name_index))
        column = start - text.rfind("\n", 0, start) - 1
        out.append((span, position, (line, column, text[start:close + 1])))
        prev = close + 1
    return out


def _graft(ast: c_ast.FileAST, defs: List[tuple], found: dict):
    """Put the ``found`` definitions in place of their stubs in ``ast``.

    ``found`` maps an index into ``defs`` (:func:`_definitions` of the
    parsed text) to a hit: ``(typedefs, FuncDef)``. Walks the top level
    in order, tracking the typedef names of pycparser's file scope (a
    name declared otherwise there can never become one), and per
    definition its ``typedefs``: the typedef names its text holds
    where it starts, which with the text decide its tree. A stub takes
    its hit only when those agree and the hit's coordinates are the
    stub's. Returns the ``{(line, column, text): (typedefs, FuncDef)}``
    of every definition, or ``None`` when a hit does not fit.
    """
    found = dict(found)
    positions = {position: i for i, (_, position, _) in enumerate(defs)}
    types: Set[str] = set()
    index: Dict[tuple, tuple] = {}
    ext = ast.ext
    for at, node in enumerate(ext):
        kind = type(node)
        if kind is c_ast.Typedef:
            types.add(node.name)
            continue
        if kind is c_ast.FuncDef:
            name = node.decl.name
        elif kind is c_ast.Decl:
            name = node.name
        else:
            continue
        coord = node.coord
        i = positions.get((coord.line, coord.column)) \
            if coord is not None and name else None
        if i is not None:
            key = defs[i][2]
            text = key[2]
            typedefs = frozenset(
                n for n in types
                if n in text and re.search(_TOKEN.format(re.escape(n)), text))
            hit = found.pop(i, None)
            if hit is not None:
                old_typedefs, funcdef = hit
                old = funcdef.coord
                if kind is c_ast.FuncDef or old_typedefs != typedefs \
                        or funcdef.decl.name != name \
                        or (old.line, old.column, old.file) \
                        != (coord.line, coord.column, coord.file):
                    return None
                ext[at] = node = funcdef
                kind = c_ast.FuncDef
            if kind is c_ast.FuncDef:
                index[key] = (typedefs, node)
    return None if found else index


def _splice(text: str, name: str, previous: ParsedUnit):
    """``(ast, index)`` of ``text`` (see :func:`_graft`), with every
    definition that stands in ``previous`` -- same text, line and
    column -- taken from it.

    The hits' bodies are stubbed, so the parse reads only the
    definitions the edit touched or moved, and :func:`_graft` splices
    the hits in. If the stubbed text fails to parse or a hit does not
    fit, the whole text is parsed, so errors are a full parse's.
    """
    defs = _definitions(text)
    old = previous.definitions()
    found = {i: old[key] for i, (_, _, key) in enumerate(defs) if key in old}
    if found:
        stubbed = _stub_bodies(text, [defs[i][0] for i in sorted(found)])
        try:
            ast = parse_text(stubbed, name)
        except Exception:
            pass  # the full parse reports the error
        else:
            index = _graft(ast, defs, found)
            if index is not None:
                return ast, index
    ast = parse_text(text, name)
    return ast, _graft(ast, defs, {})
