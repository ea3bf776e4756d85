"""The benchmark command: output contract, correctness gate and BENCHMARK.json agreement.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import spans, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_UNITS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "global-16", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] == 2
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "global-16", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = _result(proc)
    assert res["correct"] is True
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == set(spans.LAYER_UNITS)
    assert metrics["grids.fft.per_step"] == metrics["grids.fft.per_fdr_step"] == 6
    assert metrics["solvers.steps"] == metrics["solvers.fdr_step.calls"]
    assert metrics["spectral.gram_matvecs"] == 0


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "global-16", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
