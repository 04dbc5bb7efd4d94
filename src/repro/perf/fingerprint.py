"""Stable content fingerprints for the performance layer.

Every cache in :mod:`repro.perf` is keyed by *content*, never by
timestamps: two runs that see the same bytes, the same configuration
and the same analysis-relevant facts must produce the same key, across
processes and machines. Three fingerprint families live here:

- :func:`file_digest` / :func:`text_digest` — raw input hashing for the
  front-end IR cache;
- :func:`code_digest` — the source of the ``repro`` package itself,
  folded into every persisted record's key (the program key,
  :func:`config_fingerprint`, the segment-store header), so a record
  one build of the analysis wrote is never served to another;
- :func:`config_fingerprint` — the analysis-relevant slice of
  :class:`repro.core.config.AnalysisConfig` (cache plumbing fields are
  excluded so toggling the cache never invalidates it);
- :func:`function_fingerprint` / :class:`FlowFingerprints` — structural
  hashes of IR functions, including source locations (diagnostics embed
  line numbers, so a moved function *is* a changed function) and the
  per-function shared-memory facts the value-flow phase consumes.

The function fingerprints deliberately avoid :mod:`repro.ir.printer`:
``function_to_text`` assigns names to unnamed temporaries as a side
effect, and its operand rendering falls back to ``id()``-based names
that differ between processes. Here every instruction is named by its
(block, index) position, which is stable for a fixed program.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import fields as dataclass_fields
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..ir import BasicBlock, Function, Instruction
from ..ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBranch,
    FieldAddr,
    IndexAddr,
    Jump,
    Phi,
    Ret,
)
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue, Value

#: AnalysisConfig fields that only steer the performance layer itself —
#: never part of a semantic cache key. ``profile`` and ``pause_gc``
#: qualify because both are report-preserving: toggling them must not
#: invalidate summaries recorded under the other setting.
CACHE_ONLY_FIELDS = frozenset({"cache_dir", "profile", "pause_gc"})


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def text_digest(text: str) -> str:
    return sha256_hex(text.encode("utf-8", errors="surrogateescape"))


def file_digest(path: str) -> Optional[str]:
    """Content hash of a file; ``None`` when it cannot be read."""
    try:
        with open(path, "rb") as f:
            return sha256_hex(f.read())
    except OSError:
        return None


def combine(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", errors="surrogateescape"))
        h.update(b"\x00")
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """Digest of the ``repro`` package's source (every ``*.py`` file,
    by relative path and content; about 1 MB), once per process. It
    stands where a hand-bumped schema constant stood: any edit to the
    analysis renames every record."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as f:
                    h.update(b"\x00" + f.read() + b"\x00")
    return h.hexdigest()


def config_fingerprint(config) -> str:
    """Deterministic digest of the analysis-relevant config fields."""
    parts = [f"code={code_digest()}"]
    for f in sorted(dataclass_fields(config), key=lambda f: f.name):
        if f.name in CACHE_ONLY_FIELDS:
            continue
        value = getattr(config, f.name)
        if isinstance(value, dict):
            rendered = repr(sorted(value.items()))
        elif isinstance(value, (tuple, list)):
            rendered = repr(tuple(value))
        else:
            rendered = repr(value)
        parts.append(f"{f.name}={rendered}")
    # the compiled kernel's format, by version as well as by source
    from ..valueflow.opcodes import OPCODE_FORMAT_VERSION

    parts.append(f"opcodes=v{OPCODE_FORMAT_VERSION}")
    # the recovery ladder rewrites unit text before parsing: fold the
    # tier format version and GNU parser strategy in (the enabled-tier
    # set itself is an ordinary config field above), so a rewrite-rule
    # rev or installing the wild extra renamespaces every cache
    if config.recover_tiers:
        from ..frontend.recovery import recovery_fingerprint

        fp = recovery_fingerprint(config.recover_tiers)
        parts.append(f"recovery={fp}")
    return combine(parts)


# ----------------------------------------------------------------------
# IR function fingerprints
# ----------------------------------------------------------------------

def _loc_text(location) -> str:
    if location is None:
        return "-"
    return f"{location.filename}:{location.line}:{location.column}"


def function_fingerprint(func: Function) -> str:
    """Structural + positional digest of one function's IR.

    Includes every instruction's class, operands (positionally named),
    class-specific attributes, and source location, so both a semantic
    edit and a pure line-shift change the fingerprint — either would
    change the diagnostics the cached summaries reproduce.

    Memoized on the function (:meth:`Function.cached_analysis`):
    summary replay fingerprints every function once per analyzed
    program, and long-lived processes (``safeflow serve``, batch
    workers, the incremental session) re-fingerprint the same IR. IR
    is not immutable — the incremental session lowers an edited
    definition again into its existing ``Function`` — so the memo
    lives where :meth:`Function.invalidate_analyses` drops it: a stale
    fingerprint would replay a stale segment.
    """
    return func.cached_analysis("fingerprint", _function_fingerprint_uncached)


def _function_fingerprint_uncached(func: Function) -> str:
    if func.is_declaration:
        return combine([f"declare {func.name}", repr(func.ftype)])
    ids: Dict[Value, str] = {}
    block_ids: Dict[BasicBlock, str] = {}
    for bi, block in enumerate(func.blocks):
        block_ids[block] = f"b{bi}"
        for ii, inst in enumerate(block.instructions):
            ids[inst] = f"%{bi}.{ii}"

    def val(v: Value) -> str:
        if isinstance(v, Instruction):
            return ids.get(v, "%ext")
        if isinstance(v, Argument):
            return f"arg{v.index}"
        if isinstance(v, Constant):
            return f"const({v.value!r}:{v.type!r})"
        if isinstance(v, GlobalVariable):
            return f"@{v.name}"
        if isinstance(v, Function):
            return f"fn:{v.name}"
        if isinstance(v, UndefValue):
            return "undef"
        return f"other:{type(v).__name__}"

    lines = [
        f"define {func.name}",
        ",".join(f"{a.name}:{a.type!r}" for a in func.arguments),
        repr(func.return_type),
    ]
    for block in func.blocks:
        lines.append(f"{block_ids[block]}:")
        for inst in block.instructions:
            extra = ""
            if isinstance(inst, BinOp):
                extra = inst.op
            elif isinstance(inst, Cmp):
                extra = inst.op
            elif isinstance(inst, Cast):
                extra = inst.kind
            elif isinstance(inst, FieldAddr):
                extra = inst.field_name
            elif isinstance(inst, Alloca):
                extra = repr(inst.allocated_type)
            elif isinstance(inst, Call):
                extra = inst.callee_name or val(inst.callee)
            elif isinstance(inst, Jump):
                extra = block_ids.get(inst.target, "b?")
            elif isinstance(inst, CondBranch):
                extra = (f"{block_ids.get(inst.true_block, 'b?')}/"
                         f"{block_ids.get(inst.false_block, 'b?')}")
            elif isinstance(inst, Phi):
                extra = ",".join(
                    f"{block_ids.get(b, 'b?')}={val(v)}"
                    for b, v in sorted(
                        inst.incoming.items(),
                        key=lambda kv: block_ids.get(kv[0], "b?"),
                    )
                )
            else:
                op = getattr(inst, "op", None)
                if isinstance(op, str):
                    extra = op
            ops = ",".join(val(op) for op in inst.operands)
            lines.append(
                f"{ids[inst]}={type(inst).__name__}"
                f"[{extra}]({ops}):{inst.type!r}@{_loc_text(inst.location)}"
            )
    return combine(lines)


# ----------------------------------------------------------------------
# per-function flow facts + transitive closure hashes
# ----------------------------------------------------------------------

class FlowFingerprints:
    """Per-function fingerprints covering everything a value-flow
    summary of that function can observe:

    - the function's own IR (with locations);
    - the shared-memory facts phase 1 derived *for that function*
      (``value_regions``, ``arg_regions``, ``monitor_assumes``);
    - the global tables every function sees (region model, resolved
      ``assert(safe(...))`` positions, non-core descriptors, config).

    ``closure(func)`` folds in the fingerprints of every transitively
    callable function, so an edit to a callee invalidates exactly the
    callers that can reach it and nothing else.
    """

    def __init__(self, shm, config, assert_vars: Optional[dict] = None):
        self.shm = shm
        self.module = shm.module
        self._global_fp = self._compute_global(config, assert_vars or {})
        self._flow: Dict[str, str] = {}
        self._closure: Dict[str, str] = {}
        self._reachable_sets: Optional[
            Dict[Function, FrozenSet[Function]]
        ] = None

    # -- pieces --------------------------------------------------------

    def _compute_global(self, config, assert_vars: dict) -> str:
        parts = [config_fingerprint(config)]
        for name in sorted(self.shm.regions):
            region = self.shm.regions[name]
            parts.append(
                f"region:{name}:{region.size}:{region.noncore}:"
                f"{region.init_function}"
            )
        for key in sorted(assert_vars):
            parts.append(f"assert:{key!r}={assert_vars[key]!r}")
        for fname in sorted(self.shm.noncore_descriptors):
            names = sorted(self.shm.noncore_descriptors[fname])
            parts.append(f"descr:{fname}:{names}")
        # fail-closed degradation changes every body's semantics (calls
        # into degraded functions become unmonitored non-core flow, and
        # a lost unit smears every unresolved external), so the degraded
        # set must namespace the summaries: flipping a function's
        # degraded status without changing its IR must not replay
        # records from the other mode
        program = getattr(self.shm, "program", None)
        if program is not None:
            degraded = sorted(
                getattr(program, "degraded_functions", ()) or ())
            unit_lost = any(
                d.kind == "unit"
                for d in getattr(program, "degraded", ()) or ())
            if degraded or unit_lost:
                parts.append(f"degraded:{degraded}:{unit_lost}")
        return combine(parts)

    def _flow_fp(self, func: Function) -> str:
        cached = self._flow.get(func.name)
        if cached is not None:
            return cached
        parts = [self._global_fp, function_fingerprint(func)]
        positions: Dict[Value, str] = {}
        for bi, block in enumerate(func.blocks):
            for ii, inst in enumerate(block.instructions):
                positions[inst] = f"{bi}.{ii}"
        vr = self.shm.value_regions.get(func, {})
        entries = sorted(
            (positions.get(value, "?"), sorted(regions))
            for value, regions in vr.items()
            if regions
        )
        parts.append(f"vr:{entries!r}")
        ar = self.shm.arg_regions.get(func, [])
        parts.append(f"ar:{[sorted(r) for r in ar]!r}")
        assumes = self.shm.monitor_assumes.get(func.name, [])
        parts.append(
            "as:" + repr(sorted(
                (a.pointer, a.offset, a.size, a.is_parameter,
                 a.parameter_index)
                for a in assumes
            ))
        )
        fp = combine(parts)
        self._flow[func.name] = fp
        return fp

    # -- public --------------------------------------------------------

    def _reachable(self, func: Function) -> FrozenSet[Function]:
        """Everything transitively callable from ``func`` (inclusive).

        Computed for all functions at once, bottom-up over the call
        graph's SCC condensation: one pass unions callee-component sets
        instead of re-traversing the graph per function, and every
        member of an SCC shares one frozenset. Yields exactly the same
        sets as per-function ``reachable_from`` — the closure
        fingerprints are unchanged.
        """
        if self._reachable_sets is None:
            cg = self.shm.callgraph
            sets: Dict[Function, FrozenSet[Function]] = {}
            for component in cg.sccs():  # callees before callers
                members = set(component)
                acc = set(members)
                for member in component:
                    for callee in cg.callees(member):
                        if callee not in members:
                            acc |= sets[callee]
                shared = frozenset(acc)
                for member in component:
                    sets[member] = shared
            self._reachable_sets = sets
        cached = self._reachable_sets.get(func)
        if cached is not None:
            return cached
        # not a call-graph node (e.g. a function outside the module)
        return frozenset(self.shm.callgraph.reachable_from([func]))

    def closure(self, func: Function) -> str:
        """Fingerprint of ``func`` plus everything it can call."""
        cached = self._closure.get(func.name)
        if cached is not None:
            return cached
        reachable = self._reachable(func)
        parts = [f"root:{self._flow_fp(func)}"]
        for other in sorted(reachable, key=lambda f: f.name):
            if other is func or other.is_declaration:
                continue
            parts.append(f"{other.name}:{self._flow_fp(other)}")
        fp = combine(parts)
        self._closure[func.name] = fp
        return fp
