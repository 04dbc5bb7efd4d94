"""``scripts/verdict_diff.py``: a stats schema change is not a verdict
difference."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "verdict_diff", ROOT / "scripts" / "verdict_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(**stats):
    report = {"counts": {"warnings": 1}, "violations": [],
              "stats": dict(stats)}
    return {"render": "r", "verbose": "v", "json": report}


def test_a_stats_key_on_one_side_only_is_no_difference():
    script = _script()
    old = script._normalise(_result(shm_regions=2, gone=0), False)
    new = script._normalise(_result(shm_regions=2, fresh=1), False)
    assert script._differences(old, new) == []
    assert script._stats_keys(old) - script._stats_keys(new) == {"gone"}
    assert script._stats_keys(new) - script._stats_keys(old) == {"fresh"}


def test_a_shared_stats_key_is_still_compared():
    script = _script()
    old = script._normalise(_result(shm_regions=2, gone=0), False)
    new = script._normalise(_result(shm_regions=3), False)
    assert script._differences(old, new) == ["json"]


def test_one_side_raising_is_a_difference():
    script = _script()
    old = script._normalise({"error": "ParseError: x"}, False)
    new = script._normalise(_result(shm_regions=2), False)
    assert script._differences(old, new) == ["error"]
