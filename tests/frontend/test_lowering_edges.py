"""Additional lowering coverage: nested aggregates, pointer chains,
unsupported constructs, and numeric corner cases."""

import pytest

from repro.errors import LoweringError
from repro.frontend import load_files
from repro.ir import Interpreter, verify_module
from repro.ir.instructions import Alloca
from tests.conftest import front


def interp(source: str) -> Interpreter:
    program = front(source)
    verify_module(program.module)
    return Interpreter(program.module)


class TestAggregates:
    def test_pointer_chain_through_structs(self):
        it = interp("""
            typedef struct { int value; } Leaf;
            typedef struct { Leaf *leaf; } Node;
            int f(Node *n) { return n->leaf->value; }
            int g(void) {
                Leaf leaf;
                Node node;
                leaf.value = 99;
                node.leaf = &leaf;
                return f(&node);
            }
        """)
        assert it.call("g") == 99

    def test_two_dimensional_array(self):
        it = interp("""
            int f(void) {
                int grid[3][4];
                int i;
                int j;
                for (i = 0; i < 3; i++) {
                    for (j = 0; j < 4; j++) {
                        grid[i][j] = i * 10 + j;
                    }
                }
                return grid[2][3];
            }
        """)
        assert it.call("f") == 23

    def test_array_inside_struct(self):
        it = interp("""
            typedef struct { int data[4]; int n; } Buf;
            int f(void) {
                Buf b;
                b.n = 2;
                b.data[0] = 5;
                b.data[1] = 7;
                return b.data[0] + b.data[1] + b.n;
            }
        """)
        assert it.call("f") == 14

    def test_struct_array_global(self):
        it = interp("""
            typedef struct { int x; } P;
            P table[3];
            int f(void) {
                table[0].x = 1;
                table[2].x = 9;
                return table[0].x + table[2].x;
            }
        """)
        assert it.call("f") == 10

    def test_pointer_to_struct_member_assignment(self):
        it = interp("""
            typedef struct { double lo; double hi; } Range;
            void widen(Range *r, double by) {
                r->lo = r->lo - by;
                r->hi = r->hi + by;
            }
            double f(void) {
                Range r;
                r.lo = 1.0;
                r.hi = 2.0;
                widen(&r, 0.5);
                return r.hi - r.lo;
            }
        """)
        assert it.call("f") == pytest.approx(2.0)


class TestNumericCorners:
    def test_char_arithmetic(self):
        it = interp("int f(void) { return 'z' - 'a'; }")
        assert it.call("f") == 25

    def test_unsigned_literal_suffixes(self):
        it = interp("unsigned int f(void) { return 10u + 20U; }")
        assert it.call("f") == 30

    def test_float_literal_suffix(self):
        it = interp("float f(void) { return 1.5f + 2.5f; }")
        assert it.call("f") == pytest.approx(4.0)

    def test_negative_constant_folding(self):
        it = interp("int f(void) { return -5 * -3; }")
        assert it.call("f") == 15

    def test_int_to_double_division(self):
        it = interp("double f(void) { return 7 / 2.0; }")
        assert it.call("f") == pytest.approx(3.5)

    def test_explicit_truncation_cast(self):
        it = interp("int f(double x) { return (int) x; }")
        assert it.call("f", 3.9) == 3

    def test_shift_operators(self):
        it = interp("int f(int a) { return (a << 3) | (a >> 1); }")
        assert it.call("f", 5) == (5 << 3) | (5 >> 1)


class TestUnsupportedConstructs:
    def test_goto_rejected_with_message(self):
        with pytest.raises(LoweringError, match="goto"):
            front("int f(void) { goto end; end: return 0; }")

    def test_unknown_type_name_rejected(self):
        from repro.errors import ParseError
        with pytest.raises((LoweringError, ParseError)):
            front("mystery_t f(void) { return 0; }")

    def test_incomplete_struct_member_access_rejected(self):
        from repro.errors import SafeFlowError
        with pytest.raises(SafeFlowError):
            front("""
                struct opaque;
                int f(struct opaque *p) { return p->x; }
            """)


class TestDeclarations:
    def test_multiple_declarators_per_line(self):
        it = interp("int f(void) { int a = 1, b = 2, c = 3; return a + b + c; }")
        assert it.call("f") == 6

    def test_extern_variable_merges_with_definition(self):
        program = front("""
            extern int shared;
            int shared = 5;
            int f(void) { return shared; }
        """)
        assert program.module.globals["shared"].initializer == 5

    def test_forward_function_use(self):
        it = interp("""
            int later(int x);
            int f(void) { return later(10); }
            int later(int x) { return x * 2; }
        """)
        assert it.call("f") == 20

    def test_typedef_of_pointer(self):
        it = interp("""
            typedef double *DoublePtr;
            double f(void) {
                double v;
                DoublePtr p;
                v = 3.5;
                p = &v;
                return *p;
            }
        """)
        assert it.call("f") == pytest.approx(3.5)

    def test_enum_in_switch(self):
        it = interp("""
            enum Mode { IDLE, RUN, STOP };
            int f(int m) {
                switch (m) {
                case IDLE: return 10;
                case RUN: return 20;
                case STOP: return 30;
                }
                return 0;
            }
        """)
        assert it.call("f", 1) == 20


class TestAnonymousAggregatesAcrossUnits:
    """Anonymous struct tags are numbered module-wide, so a second
    unit's anonymous struct is never bound to the first unit's."""

    def _load(self, tmp_path, main, lib):
        paths = []
        for name, text in (("main.c", main), ("lib.c", lib)):
            path = tmp_path / name
            path.write_text(text)
            paths.append(str(path))
        return load_files(paths)

    def _layouts(self, program):
        return sorted(
            tuple((f.name, repr(f.type)) for f in struct.fields)
            for struct in program.module.structs.values()
            if struct.tag.startswith("__anon"))

    def test_other_field_names_lower(self, tmp_path):
        program = self._load(
            tmp_path,
            "typedef struct { double v; int flag; } R;\n"
            "double use(R *r) { return r->v; }\n",
            "double lib(void) {\n"
            "    struct { int a; double b; } s;\n"
            "    s.a = 1; s.b = 2.0; return s.b;\n"
            "}\n")
        assert self._layouts(program) == [
            (("a", "int"), ("b", "double")),
            (("v", "double"), ("flag", "int")),
        ]

    def test_same_field_names_keep_each_units_types(self, tmp_path):
        program = self._load(
            tmp_path,
            "typedef struct { double a; double b; } R;\n"
            "double use(R *r) { return r->a + r->b; }\n",
            "int lib(void) {\n"
            "    struct { int a; int b; } s;\n"
            "    s.a = 1; s.b = 2; return s.a + s.b;\n"
            "}\n")
        assert self._layouts(program) == [
            (("a", "double"), ("b", "double")),
            (("a", "int"), ("b", "int")),
        ]
        verify_module(program.module)
        assert Interpreter(program.module).call("lib") == 3


class TestAnonymousAggregateIdentity:
    """An anonymous aggregate is tagged by its content: one layout is
    one type, whichever unit spells it."""

    @pytest.mark.parametrize("key,layouts", [
        ("ip", 4), ("generic_simplex", 8), ("double_ip", 7)])
    def test_corpus_has_one_struct_per_layout(self, key, layouts):
        from repro.corpus import load_system

        system = load_system(key)
        program = load_files([str(p) for p in system.core_files])
        anon = [struct for struct in program.module.structs.values()
                if struct.tag.startswith("__anon")]
        assert len(anon) == layouts
        assert len({tuple((f.name, repr(f.type)) for f in struct.fields)
                    for struct in anon}) == layouts

    def test_header_typedef_is_one_object_in_caller_and_callee(
            self, tmp_path):
        (tmp_path / "sample.h").write_text(
            "typedef struct { double v; int n; } Sample;\n"
            "double take(Sample *s);\n")
        (tmp_path / "main.c").write_text(
            '#include "sample.h"\n'
            "double run(void) { Sample x; x.v = 1.0; x.n = 2;"
            " return take(&x); }\n")
        (tmp_path / "lib.c").write_text(
            '#include "sample.h"\n'
            "double take(Sample *s) { return s->v * s->n; }\n")
        program = load_files([str(tmp_path / "main.c"),
                              str(tmp_path / "lib.c")])
        module = program.module
        (slot,) = [inst.allocated_type
                   for block in module.functions["run"].blocks
                   for inst in block.instructions
                   if isinstance(inst, Alloca)]
        param = module.functions["take"].ftype.params[0].pointee
        assert slot is param
        assert Interpreter(module).call("run") == 2.0
