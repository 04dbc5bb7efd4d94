"""Front-end error recovery: degraded units instead of escaping errors.

With keep-going (``AnalysisConfig.recover_tiers=()``) every
per-unit, per-function and per-annotation front-end failure must
become a structured :class:`repro.degrade.DegradedUnit`; strict mode
must keep raising the same errors it always did.
"""

import pytest

from repro.degrade import (
    KIND_ANNOTATION,
    KIND_FUNCTION,
    KIND_UNIT,
    DegradedUnit,
    degraded_region,
)
from repro.errors import AnnotationError, PreprocessorError, SafeFlowError
from repro.frontend import load_files, load_source

GOOD = """
int helper(int x) { return x + 1; }
int main(void) { return helper(1); }
"""

BAD = "int broken( { return 0;\n"


def _kinds(program):
    return sorted(d.kind for d in program.degraded)


class TestUnitRecovery:
    def test_unparsable_unit_is_isolated(self, tmp_path):
        good = tmp_path / "good.c"
        bad = tmp_path / "bad.c"
        good.write_text(GOOD)
        bad.write_text(BAD)
        program = load_files([str(good), str(bad)], recover_tiers=())
        assert _kinds(program) == [KIND_UNIT]
        unit = program.degraded[0]
        assert unit.name == str(bad)
        assert "parse error" in unit.cause
        # the good unit's functions are fully present
        assert program.module.get_function("helper") is not None
        assert not program.module.get_function("main").is_declaration

    def test_strict_mode_still_raises(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text(BAD)
        with pytest.raises(SafeFlowError):
            load_files([str(bad)])

    def test_source_parse_failure_recovers(self):
        program = load_source(BAD, filename="bad.c", recover_tiers=())
        assert _kinds(program) == [KIND_UNIT]
        assert program.degraded[0].location is not None


class TestIncludeDiagnostics:
    def test_self_inclusion_cycle_is_reported(self, tmp_path):
        (tmp_path / "a.h").write_text('#include "b.h"\n')
        (tmp_path / "b.h").write_text('#include "a.h"\n')
        main = tmp_path / "main.c"
        main.write_text('#include "a.h"\nint main(void){return 0;}\n')
        with pytest.raises(PreprocessorError) as exc:
            load_files([str(main)], include_dirs=[str(tmp_path)])
        assert "circular #include" in str(exc.value)
        assert "a.h" in str(exc.value) and "->" in str(exc.value)

    def test_direct_self_include(self, tmp_path):
        selfy = tmp_path / "self.c"
        selfy.write_text('#include "self.c"\n')
        with pytest.raises(PreprocessorError) as exc:
            load_files([str(selfy)], include_dirs=[str(tmp_path)])
        assert "circular #include" in str(exc.value)

    def test_include_depth_cap(self, tmp_path):
        for i in range(40):
            (tmp_path / f"d{i}.h").write_text(f'#include "d{i + 1}.h"\n')
        (tmp_path / "d40.h").write_text("int deep_end;\n")
        main = tmp_path / "main.c"
        main.write_text('#include "d0.h"\nint main(void){return 0;}\n')
        with pytest.raises(PreprocessorError) as exc:
            load_files([str(main)], include_dirs=[str(tmp_path)])
        message = str(exc.value)
        assert "exceeds the maximum depth" in message
        assert "->" in message  # the diagnostic names the chain

    def test_cycle_becomes_degraded_unit_in_recover(self, tmp_path):
        selfy = tmp_path / "self.c"
        selfy.write_text('#include "self.c"\n')
        good = tmp_path / "good.c"
        good.write_text(GOOD)
        program = load_files([str(good), str(selfy)],
                             include_dirs=[str(tmp_path)], recover_tiers=())
        assert _kinds(program) == [KIND_UNIT]
        assert "circular #include" in program.degraded[0].cause


class TestAnnotationRecovery:
    def test_unterminated_annotation_comment(self):
        source = ("int f(void) { return 0; }\n"
                  "/***SafeFlow Annotation assert(safe(x))\n")
        with pytest.raises(PreprocessorError):
            load_source(source, filename="t.c")
        program = load_source(source, filename="t.c", recover_tiers=())
        assert _kinds(program) == [KIND_UNIT]
        assert "unterminated comment" in program.degraded[0].cause

    def test_unparsable_annotation_body(self):
        source = ("int main(void)\n"
                  "/***SafeFlow Annotation assume(core(( /***/\n"
                  "{ return 0; }\n")
        with pytest.raises(AnnotationError):
            load_source(source, filename="t.c")
        program = load_source(source, filename="t.c", recover_tiers=())
        assert _kinds(program) == [KIND_ANNOTATION]
        # the broken annotation never reaches attachment, but the
        # program itself still front-ends
        assert not program.module.get_function("main").is_declaration

    def test_duplicate_annotation_on_one_declaration(self):
        source = """
double h(double x)
/***SafeFlow Annotation
    assume(core(p, 0, 4)); assume(core(p, 0, 4)) /***/
{ return x; }
int main(void) { return 0; }
"""
        program = load_source(source, filename="dup.c", recover_tiers=())
        assert _kinds(program) == [KIND_ANNOTATION]
        unit = program.degraded[0]
        assert "duplicate AssumeCore" in unit.cause
        assert unit.function == "h"
        # one copy of the item is still attached
        items = program.module.function_annotations.get("h", [])
        assert len(items) == 1

    def test_annotation_without_any_function(self):
        source = "/***SafeFlow Annotation shminit /***/\nint x;\n"
        with pytest.raises(AnnotationError):
            load_source(source, filename="nf.c")
        program = load_source(source, filename="nf.c", recover_tiers=())
        assert _kinds(program) == [KIND_ANNOTATION]
        assert "not attached to any function" in program.degraded[0].cause


class TestFunctionRecovery:
    def test_degraded_functions_named(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text(BAD)
        program = load_files([str(bad)], recover_tiers=())
        # a unit failure leaves no functions; the set reflects only
        # function-kind degradations
        assert isinstance(program.degraded_functions, set)

    def test_goto_function_demoted_not_fatal(self):
        # goto is outside the paper's language subset: lowering rejects
        # it; recover mode demotes the function instead of aborting
        source = """
int weird(void) { goto out; out: return 1; }
int main(void) { return 0; }
"""
        with pytest.raises(SafeFlowError):
            load_source(source, filename="g.c")
        program = load_source(source, filename="g.c", recover_tiers=())
        assert KIND_FUNCTION in _kinds(program)
        assert "weird" in program.degraded_functions
        func = program.module.get_function("weird")
        assert func is None or func.is_declaration
        assert not program.module.get_function("main").is_declaration


class TestDegradedUnitModel:
    def test_str_and_json(self):
        unit = DegradedUnit(kind=KIND_UNIT, name="x.c", cause="boom")
        assert "degraded unit 'x.c'" in str(unit)
        payload = unit.to_json()
        assert payload["kind"] == KIND_UNIT
        assert payload["cause"] == "boom"

    def test_degraded_region_prefix(self):
        assert degraded_region("f").startswith("degraded:")
