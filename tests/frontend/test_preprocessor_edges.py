"""Preprocessor pathological inputs and robustness properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PreprocessorError
from repro.frontend.preprocessor import Preprocessor


def pp(text: str, **kwargs):
    return Preprocessor(**kwargs).process_text(text, filename="t.c")


class TestMacroEdges:
    def test_self_referential_macro_terminates(self):
        out = pp("#define A A\nint x = A;")
        assert "int x = A;" in out.text  # expansion depth-limited

    def test_mutually_recursive_macros_terminate(self):
        out = pp("#define A B\n#define B A\nint x = A;")
        assert "int x =" in out.text

    def test_nested_parens_in_macro_args(self):
        out = pp("#define ID(x) (x)\nint y = ID((1 + (2 * 3)));")
        assert "((1 + (2 * 3)))" in out.text

    def test_macro_call_with_string_argument(self):
        out = pp('#define LOG(s) printf(s)\nvoid f(void) { LOG("a,b"); }')
        assert 'printf("a,b")' in out.text

    def test_empty_function_like_macro(self):
        out = pp("#define NOP() do_nothing()\nvoid f(void) { NOP(); }")
        assert "do_nothing()" in out.text

    def test_function_like_name_without_call_left_alone(self):
        out = pp("#define SQ(x) ((x)*(x))\nint addr = SQ;")
        assert "int addr = SQ;" in out.text

    def test_macro_inside_macro_argument(self):
        out = pp("#define TWO 2\n#define DBL(x) ((x)+(x))\n"
                 "int y = DBL(TWO);")
        assert "((2)+(2))" in out.text

    def test_unterminated_macro_args_rejected(self):
        with pytest.raises(PreprocessorError):
            pp("#define F(a) a\nint x = F(1;\n")

    def test_define_without_name_rejected(self):
        with pytest.raises(PreprocessorError):
            pp("#define 123 4")


class TestConditionalEdges:
    def test_elif_after_else_rejected(self):
        with pytest.raises(PreprocessorError):
            pp("#ifdef A\n#else\n#elif B\n#endif")

    def test_double_else_rejected(self):
        with pytest.raises(PreprocessorError):
            pp("#ifdef A\n#else\n#else\n#endif")

    def test_if_with_comparison_chain(self):
        out = pp("#define V 3\n#if V >= 2 && V < 10\nint x;\n#endif")
        assert "int x;" in out.text

    def test_unknown_identifier_is_zero(self):
        out = pp("#if WHATEVER\nint x;\n#else\nint y;\n#endif")
        assert "int y;" in out.text

    def test_integer_suffixes_handled(self):
        out = pp("#if 1024UL > 512\nint x;\n#endif")
        assert "int x;" in out.text

    def test_defines_inside_untaken_branch_ignored(self):
        out = pp("#ifdef A\n#define HIDDEN 1\n#endif\nint x = HIDDEN;")
        assert "int x = HIDDEN;" in out.text

    def test_conditional_inside_taken_branch(self):
        out = pp("#define A\n#ifdef A\n#define B\n#ifdef B\nint x;\n"
                 "#endif\n#endif")
        assert "int x;" in out.text


class TestAnnotationEdges:
    def test_annotation_with_crlf_content(self):
        out = pp("/***SafeFlow Annotation\r\n   shminit /***/")
        assert len(out.annotations) == 1

    def test_malformed_annotation_raises(self):
        from repro.errors import AnnotationError
        with pytest.raises(AnnotationError):
            pp("/***SafeFlow Annotation assume(banana(x)) /***/")

    def test_two_annotations_same_line_ok(self):
        out = pp("/***SafeFlow Annotation assert(safe(a)); /***/ "
                 "/***SafeFlow Annotation assert(safe(b)); /***/")
        assert len(out.annotations) == 2
        assert out.text.count("__safeflow_assert_safe") == 2

    def test_annotation_inside_untaken_branch_still_extracted(self):
        # comments are stripped before directives are interpreted, so
        # annotations are positional facts regardless of conditionals —
        # document this behavior
        out = pp("#ifdef NOPE\n/***SafeFlow Annotation shminit /***/\n"
                 "#endif\nint x;")
        assert len(out.annotations) == 1


class TestCommentStripping:
    def test_comment_opener_inside_string_is_text(self):
        out = pp('char *s = "a /* b";\nint x; /* gone */\n')
        assert out.text.splitlines()[:2] == ['char *s = "a /* b";', "int x;  "]

    def test_double_quote_char_literal_does_not_open_a_string(self):
        out = pp("int q = '\"'; /* c */ int r;\n")
        assert out.text.splitlines()[0] == "int q = '\"';   int r;"

    def test_escaped_quotes_stay_inside_their_literal(self):
        out = pp('char *s = "x\\" /* y"; char c = \'\\\'\'; // z\nint w;\n')
        assert out.text.splitlines() == [
            'char *s = "x\\" /* y"; char c = \'\\\'\'; ', "int w;"]

    def test_line_comment_at_end_of_file_without_newline(self):
        out = pp("int a;\nint b; // trailing")
        assert out.text == "int a;\nint b; \n"
        assert [loc.line for loc in out.line_map] == [1, 2]

    def test_unterminated_block_comment_reports_its_opening_line(self):
        with pytest.raises(PreprocessorError) as info:
            pp('int a;\nchar *s = "/*";\n\nint b; /* never\nclosed\n')
        assert "unterminated comment" in info.value.message
        assert info.value.location.line == 4

    def test_multi_line_annotation_keeps_the_line_map(self):
        out = pp("int a;\n/***SafeFlow Annotation\n   assert(safe(a));\n"
                 "   shminit /***/ int b;\nint c;\n")
        lines = out.text.splitlines()
        assert lines[1].strip() == "__safeflow_assert_safe(a);"
        assert lines[2] == "" and lines[3] == " int b;"
        assert [loc.line for loc in out.line_map] == [1, 2, 3, 4, 5]
        assert [a.location.line for a in out.annotations] == [2]


identifier = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)


class TestRobustness:
    @settings(max_examples=40, deadline=None)
    @given(name=identifier, value=st.integers(0, 10**6))
    def test_define_roundtrip(self, name, value):
        # a macro named like the declarator would (correctly) replace it
        # too, so keep the variable name out of the macro namespace
        variable = f"v_{name}_v"
        out = pp(f"#define {name} {value}\nint {variable} = {name};")
        assert f"int {variable} = {value};" in out.text

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="abcdefg (){};=+-*/<>!&|\n\t0123456789",
                   max_size=200))
    def test_never_hangs_or_crashes_unexpectedly(self, text):
        try:
            pp(text)
        except PreprocessorError:
            pass  # structured rejection is fine; crashes are not

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(
        ["int a;", "double b;", "/* c */", "// d", "", "#define X 1",
         "int e = X;"]
    ), max_size=12))
    def test_line_count_of_output_is_bounded(self, lines):
        text = "\n".join(lines)
        out = pp(text)
        assert len(out.text.splitlines()) <= max(1, len(lines))
