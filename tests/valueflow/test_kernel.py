"""The compiled kernel must be invisible in results.

The bitset lattice (:mod:`repro.valueflow.bitdomain`) and the opcode
programs (:mod:`repro.valueflow.kernel`) are pure performance work:
every observable report must be byte-identical to the object-domain
oracle and the dense-fixpoint oracle (``tests/oracles``), however many
taint sources the interner holds.

Covers: randomized algebraic laws of the bitset encoding against the
interned ``Taint`` lattice (on a fresh interner and on one holding
5,000 sources), whole-report differential sweeps over the four (kernel
x fixpoint) combinations (generated programs, the bundled corpus,
degraded inputs, a program with more than 256 taint sources), the kernel
counters and their daemon aggregation, and cache fingerprinting.
"""

import gc
import json
import random

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import generate_core, load_all
from repro.perf.fingerprint import config_fingerprint
from repro.perf.gcpause import gc_paused
from repro.valueflow.bitdomain import PLACEHOLDER_PREFIX, RegionInterner
from repro.valueflow.taint import SAFE, Taint, TaintSource

import oracles


def _source(i: int, placeholder: bool = False) -> TaintSource:
    region = f"{PLACEHOLDER_PREFIX}{i}" if placeholder else f"region{i}"
    return TaintSource(region=region, function="f", filename="t.c", line=i)


def _random_taint(rng: random.Random, pool) -> Taint:
    data = frozenset(rng.sample(pool, rng.randint(0, 4)))
    control = frozenset(rng.sample(pool, rng.randint(0, 4)))
    return Taint(data, control)


# ----------------------------------------------------------------------
# bitset lattice laws (randomized against the object lattice)
# ----------------------------------------------------------------------

class TestBitdomain:
    """The laws on a fresh interner that interns its pool on first use."""

    def domain(self, size: int):
        """An interner plus a pool of ``size`` sources to draw from."""
        return RegionInterner(), [_source(i) for i in range(size)]

    def strip_pair(self):
        """A real source and a placeholder source."""
        return _source(1), _source(2, placeholder=True)

    def test_encode_decode_round_trips_to_the_same_object(self):
        rng = random.Random(11)
        interner, pool = self.domain(8)
        for _ in range(200):
            t = _random_taint(rng, pool)
            enc = interner.encode(t)
            assert interner.decode(enc) is t

    def test_join_is_bitwise_or(self):
        rng = random.Random(12)
        interner, pool = self.domain(8)
        for _ in range(200):
            a = _random_taint(rng, pool)
            b = _random_taint(rng, pool)
            joined = interner.decode(
                interner.encode(a) | interner.encode(b))
            assert joined is a.join(b)

    def test_as_control_mirrors_object_lattice(self):
        rng = random.Random(13)
        interner, pool = self.domain(8)
        for _ in range(200):
            t = _random_taint(rng, pool)
            mirrored = interner.decode(
                interner.as_control(interner.encode(t)))
            assert mirrored is t.as_control()

    def test_distinct_taints_get_distinct_encodings(self):
        rng = random.Random(14)
        interner, pool = self.domain(10)
        seen = {}
        for _ in range(300):
            t = _random_taint(rng, pool)
            enc = interner.encode(t)
            assert seen.setdefault(enc, t) is t

    def test_keep_mask_strips_exactly_the_placeholder_bits(self):
        interner, _ = self.domain(0)
        real, ph = self.strip_pair()
        t = Taint(frozenset({real, ph}), frozenset({ph}))
        stripped = interner.decode(
            interner.encode(t) & interner.keep_mask)
        assert stripped is Taint(frozenset({real}))
        # a placeholder-only taint strips to SAFE
        only = Taint(frozenset({ph}))
        assert interner.decode(
            interner.encode(only) & interner.keep_mask) is SAFE

    def test_safe_is_zero(self):
        interner, _ = self.domain(0)
        assert interner.encode(SAFE) == 0
        assert interner.decode(0) is SAFE


#: sources a wide interner holds before any law is checked
WIDE = 5000


def _is_wide_placeholder(i: int) -> bool:
    return i > 256 and i % 97 == 0


class TestWideBitdomain(TestBitdomain):
    """The same laws on an interner already holding :data:`WIDE`
    sources, placeholders among them (all past index 256), with pools
    drawn from the whole range: encodings thousands of bits wide."""

    def domain(self, size: int):
        interner = RegionInterner()
        sources = [_source(i, _is_wide_placeholder(i)) for i in range(WIDE)]
        for source in sources:
            interner.data_bit(source)
        assert len(interner) == WIDE
        return interner, random.Random(size).sample(sources[257:], size)

    def strip_pair(self):
        assert _is_wide_placeholder(97 * 30)
        return _source(WIDE - 1), _source(97 * 30, placeholder=True)

    def test_every_interned_source_round_trips(self):
        interner = RegionInterner()
        sources = [_source(i) for i in range(WIDE)]
        t = Taint(frozenset(sources), frozenset(sources[::3]))
        enc = interner.encode(t)
        assert len(interner) == WIDE
        assert interner.decode(enc) is t
        assert interner.decode(interner.as_control(enc)) is t.as_control()
        # a source interned later only adds bits above the existing ones
        late = interner.encode(Taint(frozenset({_source(WIDE)})))
        assert late > enc and late & enc == 0
        assert interner.decode(enc) is t


# ----------------------------------------------------------------------
# differential byte-identity: compiled vs object, sparse vs dense
# ----------------------------------------------------------------------

def _signature(report):
    return (
        report.render(verbose=True),
        json.dumps(report.witness_graphs, sort_keys=True, default=str),
        report.stats.contexts_analyzed,
        json.dumps(
            {k: v for k, v in report.to_json().items() if k != "stats"},
            sort_keys=True, default=str,
        ),
    )


def _sweep_configs(**overrides):
    """The same config once per (kernel x fixpoint) engine, each
    yielded while its engine is installed."""
    config = AnalysisConfig(**overrides)
    for kernel, fixpoint in oracles.COMBINATIONS:
        with oracles.installed(kernel, fixpoint):
            yield config


WORKLOADS = [
    dict(data_error_regions=2, control_fp_regions=1,
         benign_read_regions=1, monitored_regions=2,
         filler_functions=12, chain_depth=4, call_fanout=2,
         pipeline_stages=4),
    dict(data_error_regions=1, control_fp_regions=2,
         benign_read_regions=2, monitored_regions=1,
         filler_functions=6, chain_depth=3, loops=False,
         call_fanout=3, pipeline_stages=6),
]


class TestDifferentialParity:
    @pytest.mark.parametrize("params", WORKLOADS)
    def test_generated_workloads(self, params):
        source = generate_core(**params).source
        signatures = {
            _signature(SafeFlow(cfg).analyze_source(source, name="w"))
            for cfg in _sweep_configs()
        }
        assert len(signatures) == 1

    @pytest.mark.parametrize("extra", [
        dict(summary_mode=True),
        dict(context_sensitive=False),
        dict(track_control_dependence=False),
    ])
    def test_generated_workload_config_axes(self, extra):
        source = generate_core(**WORKLOADS[0]).source
        signatures = {
            _signature(SafeFlow(cfg).analyze_source(source, name="w"))
            for cfg in _sweep_configs(**extra)
        }
        assert len(signatures) == 1

    def test_bundled_corpus(self):
        for system in load_all():
            signatures = {
                _signature(system.analyze(cfg))
                for cfg in _sweep_configs()
            }
            assert len(signatures) == 1, system.key

    def test_degraded_inputs(self, tmp_path):
        good = tmp_path / "good.c"
        good.write_text(generate_core(**WORKLOADS[0]).source)
        bad = tmp_path / "bad.c"
        bad.write_text("int broken( { this is not C }\n")
        signatures = set()
        for cfg in _sweep_configs(recover_tiers=()):
            report = SafeFlow(cfg).analyze_files(
                [str(good), str(bad)], name="deg")
            assert report.stats.degraded_units > 0
            signatures.add(_signature(report))
        assert len(signatures) == 1

    def test_past_the_old_width_cap_is_byte_identical(self):
        # 260 unmonitored reads, so more than 256 interned taint
        # sources: encodings wider than 512 bits
        source = generate_core(data_error_regions=140,
                               benign_read_regions=120).source
        reports = [SafeFlow(cfg).analyze_source(source, name="w")
                   for cfg in _sweep_configs()]
        production = reports[0].stats.kernel_counters
        assert production["kernel_interner_bits"] > 256
        assert production["kernel_compiled_bodies"] == production[
            "bodies_analyzed"]
        assert len({_signature(r) for r in reports}) == 1


# ----------------------------------------------------------------------
# kernel counters and their daemon aggregation
# ----------------------------------------------------------------------

class TestKernelCounters:
    def test_compiled_run_exposes_kernel_counters(self):
        source = generate_core(**WORKLOADS[0]).source
        report = SafeFlow().analyze_source(source, name="w")
        counters = report.stats.kernel_counters
        assert counters["kernel_compiled_bodies"] > 0
        assert counters["kernel_compiled_programs"] > 0
        assert counters["kernel_opcode_dispatches"] > 0
        assert counters["kernel_passes"] >= counters[
            "kernel_compiled_bodies"]
        assert counters["kernel_interner_bits"] > 0
        assert counters["kernel_compile_us"] >= 0
        assert counters["kernel_execute_us"] >= 0
        # every body the engine ran, ran compiled
        assert counters["kernel_compiled_bodies"] == counters[
            "bodies_analyzed"]
        # per-opcode histogram entries sum to the dispatch total
        per_op = sum(v for k, v in counters.items()
                     if k.startswith("kernel_op_"))
        assert per_op == counters["kernel_opcode_dispatches"]

    def test_object_run_has_no_kernel_counters(self):
        source = generate_core(**WORKLOADS[0]).source
        with oracles.installed(kernel="object"):
            report = SafeFlow().analyze_source(source, name="w")
        assert "kernel_compiled_bodies" not in report.stats.kernel_counters

    def test_server_metrics_fold_kernel_counters(self):
        from repro.server.metrics import ServerMetrics

        source = generate_core(**WORKLOADS[0]).source
        report = SafeFlow().analyze_source(source, name="w")
        metrics = ServerMetrics()
        stats_json = report.stats.to_json()
        metrics.observe_analysis(stats_json)
        metrics.observe_analysis(stats_json)
        block = metrics.snapshot()["kernel"]
        assert block["kernel_compiled_bodies"] == 2 * (
            report.stats.kernel_counters["kernel_compiled_bodies"])
        assert block["kernel_opcode_dispatches"] == 2 * (
            report.stats.kernel_counters["kernel_opcode_dispatches"])


# ----------------------------------------------------------------------
# cache fingerprints: the opcode format separates summary namespaces
# ----------------------------------------------------------------------

class TestKernelFingerprinting:
    def test_compiled_fingerprint_tracks_opcode_format_version(self):
        from repro.valueflow import opcodes

        fp_before = config_fingerprint(AnalysisConfig())
        original = opcodes.OPCODE_FORMAT_VERSION
        opcodes.OPCODE_FORMAT_VERSION = original + 1
        try:
            fp_after = config_fingerprint(AnalysisConfig())
        finally:
            opcodes.OPCODE_FORMAT_VERSION = original
        assert fp_before != fp_after

    def test_report_preserving_knobs_are_cache_only(self):
        base = config_fingerprint(AnalysisConfig())
        assert config_fingerprint(AnalysisConfig(pause_gc=False)) == base


# ----------------------------------------------------------------------
# gc pause guard
# ----------------------------------------------------------------------

class TestGcPause:
    def test_nested_guards_restore_gc_once(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # outer region still active
        assert gc.isenabled()

    def test_exception_still_restores_gc(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_respects_externally_disabled_gc(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # not ours to re-enable
        finally:
            gc.enable()

    def test_inactive_guard_is_a_no_op(self):
        with gc_paused(active=False):
            assert gc.isenabled()
