"""The runner's command line contract."""

import json
import shutil
import subprocess
import sys

import pytest

import run

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(cwd, trace, workload="transient"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_every_declared_metric(trace, key):
    done = invoke(run.ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(run.WORKLOADS["transient"])
    units = {m["name"]: m["unit"] for m in DECLARED[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert "fail_ratio 0 " in done.stdout
    assert "degraded_ratio " in done.stdout


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = invoke(tmp_path, 0)
    assert done.returncode != 0
    assert "{" not in done.stdout
    assert "not found" in done.stderr
