"""Where a C parse error points.

pycparser 3 names the line of most errors in its message; a few
("Invalid expression", "At end of input") name only the file, and
then the error points at the line of the token the parser stopped at.
"""

import pytest

from repro import SafeFlow
from repro.errors import ParseError

#: (source, the ParseError message) for errors whose pycparser message
#: carries no line
LINELESS = [
    ("int main(void) {\n  int y;\n  int x = ;\n  return 0;\n}\n",
     "<source>:3: C parse error: <source>: Invalid expression"),
    ("int main(void) {\n  return 0;\n",
     "<source>:2: C parse error: <source>: At end of input"),
    ("int f(int a) {\n  return a +* ;\n}\n",
     "<source>:2: C parse error: <source>: Invalid expression"),
]

#: errors whose message names the line: the messages are unchanged
WITH_A_LINE = [
    ("int main(void) {\n  int y\n  return 0;\n}\n",
     "<source>:3: C parse error: <source>:95:3: before: return"),
    ("int x = @;\n",
     "<source>:1: C parse error: <source>:93:9: Illegal character '@'"),
    ("struct s { int a; \nint main(void) { return 0; }\n",
     "<source>:2: C parse error: <source>:94:16: before: {"),
    ("int main(void) {\n  if (1 {\n  }\n  return 0;\n}\n",
     "<source>:2: C parse error: <source>:94:9: before: {"),
    ("typedef int T;\nint main(void) {\n  T = 3;\n  return 0;\n}\n",
     "<source>:3: C parse error: <source>:95:3: Invalid declaration"),
    ("int main(void) {\n  int a[;\n  return 0;\n}\n",
     "<source>:2: C parse error: <source>:94:9: before: ;"),
    ("void f(void) {\n  for (;;\n}\n",
     "<source>:3: C parse error: <source>:95:1: before: }"),
]


def _error(source):
    with pytest.raises(ParseError) as got:
        SafeFlow().analyze_source(source)
    return got.value


def test_invalid_expression_points_at_its_line():
    error = _error(LINELESS[0][0])
    assert (error.location.filename, error.location.line) == ("<source>", 3)


@pytest.mark.parametrize("source, message", LINELESS + WITH_A_LINE)
def test_parse_error_message(source, message):
    assert str(_error(source)) == message


def test_lineless_error_in_an_include_points_into_the_header(tmp_path):
    (tmp_path / "k.h").write_text("int k(void) {\n  return 1 + ;\n}\n")
    main = tmp_path / "main.c"
    main.write_text('#include "k.h"\nint main(void) { return k(); }\n')
    with pytest.raises(ParseError) as got:
        SafeFlow().analyze_files([str(main)])
    location = got.value.location
    assert (location.filename, location.line) == (str(tmp_path / "k.h"), 2)
