"""Every persisted record names the code that wrote it.

The program key, the config fingerprint (and with it the verdict
record's name and the session's segment-store directory) and the
segment-store header fold in :func:`repro.perf.fingerprint.code_digest`,
the digest of the ``repro`` package's source. A monkeypatch does not
change the files on disk, so each case runs a *copy of the package
with one source file edited* in a subprocess, against records the
original wrote: the copy must miss them and give its own cold verdict.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.corpus import generate_core_files

SRC = Path(__file__).resolve().parents[2] / "src"

#: a diagnostic the edited copy words differently, so a record the
#: original wrote would show in the copy's render
MESSAGE = "unmonitored access to non-core shared variable"
EDITED = "unmonitored read of non-core shared variable"

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


def _edited_copy(tmp_path) -> str:
    root = tmp_path / "edited"
    shutil.copytree(SRC / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = root / "repro" / "valueflow" / "engine.py"
    text = engine.read_text()
    assert MESSAGE in text
    engine.write_text(text.replace(MESSAGE, EDITED))
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
