"""Every persisted record names the code that wrote it.

The program key, the config fingerprint (and with it the verdict
record's name and the session's segment-store directory) and the
segment-store header fold in :func:`repro.perf.fingerprint.code_digest`,
the digest of the ``repro`` package's source. A monkeypatch does not
change the files on disk, so each case runs a *copy of the package
with one source file edited* in a subprocess, against records the
original wrote: the copy must miss them and give its own cold verdict.
The edits are a diagnostic's wording, the lowering and the value-flow
body transfer.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import generate_core_files

SRC = Path(__file__).resolve().parents[2] / "src"

#: a diagnostic the edited copy words differently, so a record the
#: original wrote would show in the copy's render
MESSAGE = "unmonitored access to non-core shared variable"
EDITED = "unmonitored read of non-core shared variable"

#: a lowering that names an if statement's join block differently, so
#: a stored program shows in the witness labels
LOWERING = ("frontend/lower.py", 'new_block("if.end")',
            'new_block("if.join")')
#: a body transfer whose joins take their first operand's taint only,
#: so a data dependency through an arithmetic op's second operand is
#: lost
TRANSFER = ("valueflow/kernel.py", "for op in inst.operands:",
            "for op in inst.operands[:1]:")

VERDICT = """
import json, sys
from repro import AnalysisConfig, SafeFlow
report = SafeFlow(AnalysisConfig(cache_dir=sys.argv[1])) \\
    .analyze_files(sys.argv[2:])
print(json.dumps({"replayed": report.stats.verdict_replayed,
                  "hits": report.stats.frontend_cache_hits,
                  "render": report.render(verbose=True)}))
"""

SESSION = """
import json, sys
from repro import AnalysisConfig
from repro.incremental.watcher import IncrementalSession
report = IncrementalSession(
    sys.argv[2:], config=AnalysisConfig(summary_mode=True),
    store_root=sys.argv[1]).verdict()
print(json.dumps({"evictions": report.stats.cache_integrity_evictions,
                  "reanalyzed": report.stats.functions_reanalyzed,
                  "render": report.render(verbose=True)}))
"""


def _edited_copy(tmp_path, path="valueflow/engine.py", old=MESSAGE,
                 new=EDITED) -> str:
    root = tmp_path / "edited"
    shutil.copytree(SRC / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = root / "repro" / path
    text = source.read_text()
    assert old in text
    source.write_text(text.replace(old, new))
    return str(root)


def _run(src, script, store, paths):
    out = subprocess.run(
        [sys.executable, "-c", script, str(store), *paths],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=300, check=True)
    return json.loads(out.stdout)


def _program(tmp_path):
    return generate_core_files(filler_units=1, fillers_per_unit=2) \
        .write_to(str(tmp_path / "prog"))


def test_verdict_record_of_another_build_is_not_served(tmp_path):
    paths = _program(tmp_path)
    cache = tmp_path / "cache"
    first = _run(SRC, VERDICT, cache, paths)
    assert not first["replayed"] and MESSAGE in first["render"]
    assert _run(SRC, VERDICT, cache, paths)["replayed"]

    edited = _edited_copy(tmp_path)
    got = _run(edited, VERDICT, cache, paths)
    assert not got["replayed"] and got["hits"] == 0
    cold = _run(edited, VERDICT, tmp_path / "fresh", paths)
    assert EDITED in cold["render"]
    assert got["render"] == cold["render"]


def test_segment_store_of_another_build_is_not_served(tmp_path):
    paths = _program(tmp_path)
    store = tmp_path / "store"
    first = _run(SRC, SESSION, store, paths)
    assert first["reanalyzed"] > 0 and first["evictions"] == 0
    assert _run(SRC, SESSION, store, paths)["reanalyzed"] == 0

    edited = _edited_copy(tmp_path)
    got = _run(edited, SESSION, store, paths)
    assert got["evictions"] == 1
    assert got["reanalyzed"] == first["reanalyzed"]
    cold = _run(edited, SESSION, tmp_path / "fresh", paths)
    assert EDITED in cold["render"]
    assert got["render"] == cold["render"]


@pytest.mark.parametrize("patch", [LOWERING, TRANSFER],
                         ids=["lowering", "body-transfer"])
def test_a_patched_analysis_misses_both_stores(tmp_path, patch):
    paths = _program(tmp_path)
    cache, store = tmp_path / "cache", tmp_path / "store"
    verdict = _run(SRC, VERDICT, cache, paths)
    session = _run(SRC, SESSION, store, paths)

    edited = _edited_copy(tmp_path, *patch)
    cold = _run(edited, VERDICT, tmp_path / "fresh", paths)
    assert cold["render"] != verdict["render"]
    got = _run(edited, VERDICT, cache, paths)
    assert not got["replayed"] and got["hits"] == 0
    assert got["render"] == cold["render"]

    cold = _run(edited, SESSION, tmp_path / "fresh-store", paths)
    assert cold["render"] != session["render"]
    got = _run(edited, SESSION, store, paths)
    assert got["evictions"] == 1
    assert got["reanalyzed"] == session["reanalyzed"]
    assert got["render"] == cold["render"]
