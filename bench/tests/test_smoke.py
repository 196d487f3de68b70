"""Smoke test of the benchmark harness at tiny n.

Checks names and units against BENCHMARK.json, the failure count, and the
trace file; it makes no claim about any timing.  Run from the repo root:

    python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["mixed-solve", "fv-large", "infsup-sweep", "cli-batch"])
def test_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name in expected:
        assert f"  {name} " in proc.stdout
    assert "failed_frac 0 " in proc.stdout
    full = json.loads((ROOT / f".bench_out/BENCH_{workload}_seed7_trace0.json").read_text())
    assert full["failed_frac"] == 0.0
    assert full["seed"] == 7 and full["first_pass_order"]
    assert full["facts"]["nproc"] >= 1 and full["facts"]["src_lines"] > 0


@pytest.mark.parametrize("workload", ["mixed-solve", "cli-batch"])
def test_traced_run_writes_per_layer_metrics_and_spans(workload):
    result = _last_json(_run(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    spans = json.loads((ROOT / f".bench_out/trace_{workload}_seed7.json").read_text())["spans"]
    names = {s["name"] for s in spans}
    assert "case" in names
    key = "cli.main" if workload == "cli-batch" else "solver.solve_mixed"
    assert key in names
    assert result["metrics"][f"{key}.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("mixed-solve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
