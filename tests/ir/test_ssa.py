"""SSA construction tests on IR lowered from C snippets."""

import pytest

from repro.ir import (
    Alloca,
    Load,
    Phi,
    Store,
    UndefValue,
    module_to_text,
    verify_module,
)
from oracles.mem2reg import promotable_allocas
from tests.conftest import front


def ir_of(source: str):
    program = front(source)
    return program.module


class TestPromotionFromC:
    def test_scalars_promoted_no_loads_remain(self):
        module = ir_of("""
            int f(int a) {
                int x;
                x = a + 1;
                return x * 2;
            }
        """)
        func = module.get_function("f")
        allocas = [i for i in func.instructions() if isinstance(i, Alloca)]
        assert allocas == []

    def test_branch_merge_creates_phi(self):
        module = ir_of("""
            int f(int a) {
                int x;
                if (a > 0) x = 1; else x = 2;
                return x;
            }
        """)
        func = module.get_function("f")
        phis = [i for i in func.instructions() if isinstance(i, Phi)]
        assert len(phis) == 1
        values = sorted(v.value for v in phis[0].incoming.values())
        assert values == [1, 2]

    def test_loop_variable_becomes_phi(self):
        module = ir_of("""
            int f(void) {
                int i;
                int total;
                total = 0;
                for (i = 0; i < 10; i++) total = total + i;
                return total;
            }
        """)
        func = module.get_function("f")
        phis = [i for i in func.instructions() if isinstance(i, Phi)]
        assert len(phis) == 2  # i and total

    def test_no_phi_when_single_assignment(self):
        module = ir_of("""
            int f(int a) {
                int x;
                x = a;
                if (a > 0) sendIt(x);
                return x;
            }
        """)
        func = module.get_function("f")
        phis = [i for i in func.instructions() if isinstance(i, Phi)]
        assert phis == []

    def test_address_taken_variable_not_promoted(self):
        module = ir_of("""
            void fill(double *p);
            double f(void) {
                double x;
                fill(&x);
                return x;
            }
        """)
        func = module.get_function("f")
        allocas = [i for i in func.instructions() if isinstance(i, Alloca)]
        assert len(allocas) == 1
        loads = [i for i in func.instructions() if isinstance(i, Load)]
        assert len(loads) == 1

    def test_aggregate_alloca_not_promoted(self):
        module = ir_of("""
            typedef struct { int a; int b; } Pair;
            int f(void) {
                Pair p;
                p.a = 1;
                return p.a;
            }
        """)
        func = module.get_function("f")
        allocas = [i for i in func.instructions() if isinstance(i, Alloca)]
        assert len(allocas) == 1

    def test_uninitialized_read_becomes_undef(self):
        module = ir_of("""
            int f(int c) {
                int x;
                if (c) x = 1;
                return x;
            }
        """)
        func = module.get_function("f")
        phis = [i for i in func.instructions() if isinstance(i, Phi)]
        assert len(phis) == 1
        assert any(isinstance(v, UndefValue) for v in phis[0].incoming.values())

    def test_nested_branches(self):
        module = ir_of("""
            int f(int a, int b) {
                int x;
                if (a) {
                    if (b) x = 1; else x = 2;
                } else {
                    x = 3;
                }
                return x;
            }
        """)
        func = module.get_function("f")
        phis = [i for i in func.instructions() if isinstance(i, Phi)]
        # one phi for the inner merge, one for the outer merge
        assert len(phis) == 2

    def test_ssa_verifies(self, figure2_program):
        verify_module(figure2_program.module)

    def test_while_loop_condition_uses_phi(self):
        module = ir_of("""
            int f(int n) {
                int i;
                i = 0;
                while (i < n) i = i + 1;
                return i;
            }
        """)
        func = module.get_function("f")
        phis = [i for i in func.instructions() if isinstance(i, Phi)]
        assert len(phis) == 1

    def test_trivial_phi_pruned(self):
        # both arms assign the same constant: the phi must collapse
        module = ir_of("""
            int f(int a) {
                int x;
                x = 5;
                if (a) x = 5;
                return x;
            }
        """)
        func = module.get_function("f")
        phis = [i for i in func.instructions() if isinstance(i, Phi)]
        assert phis == []

    def test_printer_runs_on_ssa(self, figure2_program):
        text = module_to_text(figure2_program.module)
        assert "define main" in text
        assert "phi" in text


class TestPromotableDetection:
    def test_promotable_detection_on_lowered_code(self):
        module = ir_of("""
            void use(int *p);
            int f(void) {
                int kept;
                use(&kept);
                return kept;
            }
        """)
        func = module.get_function("f")
        assert promotable_allocas(func) == []

    def test_unreachable_code_removed(self):
        module = ir_of("""
            int f(void) {
                return 1;
                return 2;
            }
        """)
        func = module.get_function("f")
        rets = [i for i in func.instructions() if i.opname() == "ret"]
        assert len(rets) == 1
