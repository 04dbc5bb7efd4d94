"""The fast-kernel layer must be invisible in results.

Interned taints, the memoized bounds solver and the sparse outer
fixpoint are all pure performance work: every observable report must be
byte-identical to the reference (dense, uncached) computation. These
tests pin that down directly — algebraic laws for the taint lattice,
fresh-solve cross-checks for the solver cache on randomized systems,
and whole-report comparisons of the sparse engine against the dense
oracle (``tests/oracles``).
"""

import pickle
import random
from fractions import Fraction

import pytest

from repro import SafeFlow
from repro.core.config import AnalysisConfig
from repro.corpus import generate_core
from repro.frontend import load_source
from repro.incremental.segments import SegmentStore
from repro.restrictions.solver import (
    Constraint,
    _can_violate_bounds_fresh,
    can_violate_bounds,
    solver_cache_stats,
)
from repro.valueflow.taint import SAFE, Taint, TaintSource, taint_cache_stats

import oracles


def _src(region, line=1):
    return TaintSource(region=region, function="f", filename="t.c", line=line)


# ----------------------------------------------------------------------
# taint interning
# ----------------------------------------------------------------------

class TestTaintInterning:
    def test_equal_source_sets_are_the_same_object(self):
        a = Taint(frozenset({_src("r1")}), frozenset({_src("r2")}))
        b = Taint(frozenset({_src("r1")}), frozenset({_src("r2")}))
        assert a is b

    def test_safe_is_interned(self):
        assert Taint() is SAFE

    def test_join_identity_and_absorption(self):
        t = Taint(frozenset({_src("r1")}))
        assert t.join(t) is t
        assert t.join(SAFE) is t
        assert SAFE.join(t) is t

    def test_join_commutative_and_idempotent(self):
        a = Taint(frozenset({_src("r1")}), frozenset({_src("r2")}))
        b = Taint(frozenset({_src("r3")}))
        ab = a.join(b)
        assert ab is b.join(a)
        assert ab.join(a) is ab
        assert ab.data == a.data | b.data
        assert ab.control == a.control

    def test_join_associative(self):
        a = Taint(frozenset({_src("r1")}))
        b = Taint(frozenset({_src("r2")}))
        c = Taint(frozenset(), frozenset({_src("r3")}))
        assert a.join(b).join(c) is a.join(b.join(c))

    def test_join_memo_hit_counted(self):
        a = Taint(frozenset({_src("rh1")}))
        b = Taint(frozenset({_src("rh2")}))
        a.join(b)  # prime (miss or hit, depending on history)
        before = taint_cache_stats()["taint_join_hits"]
        a.join(b)
        assert taint_cache_stats()["taint_join_hits"] == before + 1

    def test_pickle_round_trip_preserves_identity(self):
        t = Taint(frozenset({_src("r1")}), frozenset({_src("r2")}))
        clone = pickle.loads(pickle.dumps(t))
        assert clone is t

    def test_pickle_inside_containers_preserves_identity(self):
        # stores pickle whole record structures holding
        # taints; every unpickled taint must re-enter the intern table
        t1 = Taint(frozenset({_src("r1")}))
        t2 = t1.join(Taint(frozenset(), frozenset({_src("r2")})))
        payload = {"cells": [("c1", t1), ("c2", t2)], "ret": t2}
        clone = pickle.loads(pickle.dumps(payload))
        assert clone["cells"][0][1] is t1
        assert clone["cells"][1][1] is t2
        assert clone["ret"] is t2

    def test_as_control_demotes_and_caches(self):
        t = Taint(frozenset({_src("r1")}), frozenset({_src("r2")}))
        demoted = t.as_control()
        assert demoted.data == frozenset()
        assert demoted.control == t.data | t.control
        assert t.as_control() is demoted
        assert SAFE.as_control() is SAFE

    def test_summary_store_round_trip_is_byte_identical(self, tmp_path):
        # body records persisted by one segment store and replayed
        # through a reopened one deserialize to the interned taints
        source = generate_core(chain_depth=3, monitored_regions=2).source
        flow = SafeFlow(AnalysisConfig(summary_mode=True))

        def run():
            return flow.analyze_program(
                load_source(source, filename="g.c"), name="g",
                summary_store=SegmentStore(str(tmp_path)))

        cold = run()
        warm = run()
        assert cold.stats.summary_cache_hits == 0
        assert warm.stats.summary_cache_hits > 0
        assert warm.stats.summary_cache_misses == 0
        assert warm.render(verbose=True) == cold.render(verbose=True)
        assert warm.witness_graphs == cold.witness_graphs


# ----------------------------------------------------------------------
# solver verdict cache
# ----------------------------------------------------------------------

def _random_system(rng):
    """A small random affine bounds query over named variables."""
    variables = [f"v{i}" for i in range(rng.randint(1, 3))]
    index_coeffs = {
        v: Fraction(rng.randint(-3, 3)) for v in variables
    }
    index_const = rng.randint(-4, 4)
    bound = rng.randint(1, 16)
    context = []
    for _ in range(rng.randint(0, 4)):
        coeffs = {v: Fraction(rng.randint(-2, 2)) for v in variables}
        context.append(Constraint.ge_zero(coeffs, rng.randint(-8, 8)))
    return index_coeffs, index_const, bound, context


class TestSolverCache:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cached_verdict_matches_fresh_solve(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            coeffs, const, bound, context = _random_system(rng)
            fresh = _can_violate_bounds_fresh(coeffs, const, bound, context)
            assert can_violate_bounds(coeffs, const, bound, context) == fresh
            # second call must come from the cache and agree
            before = solver_cache_stats()["solver_cache_hits"]
            assert can_violate_bounds(coeffs, const, bound, context) == fresh
            assert solver_cache_stats()["solver_cache_hits"] == before + 1

    def test_renamed_variables_share_a_verdict(self):
        # feasibility is invariant under renaming: distinct variable
        # objects with the same structure must hit the same cache entry
        c1 = {"a": Fraction(1)}
        c2 = {"b": Fraction(1)}
        ctx1 = [Constraint.ge_zero({"a": Fraction(1)}, -2)]
        ctx2 = [Constraint.ge_zero({"b": Fraction(1)}, -2)]
        v1 = can_violate_bounds(c1, 0, 8, ctx1)
        before = solver_cache_stats()["solver_cache_hits"]
        v2 = can_violate_bounds(c2, 0, 8, ctx2)
        assert v1 == v2
        assert solver_cache_stats()["solver_cache_hits"] == before + 1


# ----------------------------------------------------------------------
# sparse fixpoint vs dense reference
# ----------------------------------------------------------------------

_WORKLOADS = [
    dict(),
    dict(chain_depth=6, monitored_regions=2),
    dict(pipeline_stages=8),
    dict(pipeline_stages=10, filler_functions=6, chain_depth=4,
         call_fanout=3),
]


class TestSparseFixpoint:
    @pytest.mark.parametrize("kwargs", _WORKLOADS)
    def test_reports_byte_identical_to_dense(self, kwargs):
        program = generate_core(**kwargs)
        reports = {}
        for fixpoint in oracles.FIXPOINTS:
            with oracles.installed(fixpoint=fixpoint):
                reports[fixpoint] = SafeFlow().analyze_source(
                    program.source, name="g"
                )
        sparse_r, dense_r = reports["sparse"], reports["dense"]
        assert sparse_r.render(verbose=True) == dense_r.render(verbose=True)
        assert sparse_r.witness_graphs == dense_r.witness_graphs
        assert (sparse_r.stats.contexts_analyzed
                == dense_r.stats.contexts_analyzed)

    def test_pipeline_depth_drives_outer_iterations(self):
        program = generate_core(pipeline_stages=8)
        report = SafeFlow().analyze_source(program.source)
        assert report.stats.kernel_counters["outer_iterations"] >= 8

    def test_sparse_reanalyzes_fewer_bodies(self):
        program = generate_core(pipeline_stages=10, filler_functions=8)
        counts = {}
        for fixpoint in oracles.FIXPOINTS:
            with oracles.installed(fixpoint=fixpoint):
                report = SafeFlow().analyze_source(program.source)
            counts[fixpoint] = report.stats.kernel_counters[
                "bodies_analyzed"]
        assert counts["sparse"] < counts["dense"]


# ----------------------------------------------------------------------
# profiling surface
# ----------------------------------------------------------------------

class TestProfiling:
    def test_profile_collects_hotspots_without_changing_report(self):
        program = generate_core(chain_depth=3)
        plain = SafeFlow().analyze_source(program.source, name="g")
        profiled = SafeFlow(AnalysisConfig(profile=True)).analyze_source(
            program.source, name="g"
        )
        assert profiled.render(verbose=True) == plain.render(verbose=True)
        assert profiled.stats.hotspots
        record = next(iter(profiled.stats.hotspots.values()))
        assert {"calls", "seconds", "self_seconds"} <= set(record)
        assert plain.stats.hotspots == {}

    def test_kernel_counters_always_collected(self):
        program = generate_core()
        report = SafeFlow().analyze_source(program.source)
        counters = report.stats.kernel_counters
        assert counters["bodies_analyzed"] > 0
        assert counters["outer_iterations"] >= 1
        assert "taint_join_hits" in counters
        assert "solver_cache_misses" in counters
        payload = report.to_json()
        assert payload["stats"]["kernel_counters"] == counters

    def test_stats_instructions_lazy_but_stable(self):
        program = generate_core(filler_functions=3)
        report = SafeFlow().analyze_source(program.source)
        first = report.stats.instructions
        assert first > 0
        assert report.stats.instructions == first
        # pickling (batch workers ship reports) forces the count
        clone = pickle.loads(pickle.dumps(report.stats))
        assert clone.instructions == first
