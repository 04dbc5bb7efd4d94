"""pycparser wrapper: builtin prelude, parsing, coordinate translation.

System headers are *not* textually included (the mini preprocessor
skips ``#include <...>``); instead a builtin prelude declares the
library functions embedded control code uses — notably the System V
shared-memory calls the paper's initialization analysis recognizes
(``shmget``/``shmat``/``shmdt``), ``kill`` (whose pid argument is
critical data, §3.1), and the socket calls of the §3.4.3 extension.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pycparser
from pycparser import c_ast
try:  # pycparser < 3 keeps ParseError in plyparser; >= 3 in c_parser
    from pycparser.plyparser import ParseError as PlyParseError
except ImportError:  # pragma: no cover - depends on installed version
    from pycparser.c_parser import ParseError as PlyParseError

from ..errors import ParseError
from ..ir.source import SourceLocation
from .preprocessor import PreprocessedSource

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


def parse_preprocessed(
    source: PreprocessedSource,
    name: str = "<unit>",
    extra_prelude: str = "",
    parser_factory=None,
) -> ParsedUnit:
    """Parse preprocessed C (with the builtin prelude prepended).

    ``extra_prelude`` is additional declaration text the recovery
    ladder injects between the builtin prelude and the unit; it must be
    newline-terminated. ``parser_factory`` overrides the parser class
    (the GNU recovery tier substitutes pycparserext's ``GnuCParser``
    when the ``wild`` extra is installed).
    """
    if extra_prelude and not extra_prelude.endswith("\n"):
        extra_prelude += "\n"
    extra_lines = extra_prelude.count("\n")
    full_text = BUILTIN_PRELUDE + extra_prelude + source.text
    parser = parser_factory() if parser_factory is not None else (
        pycparser.CParser())
    try:
        ast = parser.parse(full_text, filename=name)
    except PlyParseError as exc:
        message = str(exc)
        location = _location_from_message(message, source, name, extra_lines)
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
    finally:
        release_parser(parser)
    return ParsedUnit(ast, source, name, extra_prelude_lines=extra_lines)


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


def _location_from_message(
    message: str, source: PreprocessedSource, name: str,
    extra_prelude_lines: int = 0,
) -> Optional[SourceLocation]:
    # pycparser errors look like "<file>:LINE:COL: before: tok"
    parts = message.split(":")
    for i, part in enumerate(parts):
        if part.strip().isdigit():
            line = int(part.strip()) - PRELUDE_LINES - extra_prelude_lines
            if line > 0:
                return source.origin(line)
            return SourceLocation("<builtin>", int(part.strip()))
    return SourceLocation(name, 0)


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
