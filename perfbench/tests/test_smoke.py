"""Tiny-size runs of every workload through the command line."""

import json
import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, ROOT, load_benchmark_names

WORKLOADS, END_TO_END, PER_LAYER = load_benchmark_names()


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate == 0
    assert result["correct"] is True
    names = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == names
    report = proc.stdout.splitlines()[:-1]
    for name in names:
        assert set(result["metrics"][name]) == {"value", "unit"}
        unit = result["metrics"][name]["unit"]
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in report), name
    # a traced run also prints the end-to-end metrics of its untraced
    # decks, so one command shows every metric
    for name in END_TO_END:
        assert any(line.split()[:1] == [name] for line in report), name
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
