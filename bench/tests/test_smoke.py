"""Smoke tests of the benchmark harness: every workload at tiny sizes, traced and untraced.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SPAN_KEYS = {"name", "start_ns", "end_ns", "parent", "op", "raised"}


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = bench(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
                  "--spans", str(spans)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        lines = [json.loads(line) for line in spans.read_text().splitlines()]
        assert any(s["name"] == "op" for s in lines)
        assert all(set(s) == SPAN_KEYS and s["end_ns"] >= s["start_ns"] for s in lines)
    else:
        assert not spans.exists()
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_slicekit_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(["--workload", "encode-hires", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
