"""Smoke test of the benchmark: every workload at tiny sizes in seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run prints the result line the benchmark contract asks for,
with every metric BENCHMARK.json names, that no operation disagreed with its
known answer (each workload includes a deliberately broken circuit whose
verdict must be FAIL), and that without the package sources the command
fails instead of printing a result.
"""

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_no_operation_fails(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_layer_metrics_name_real_functions():
    sys.path.insert(0, str(ROOT / "src"))
    stats = {"s", "self_s", "calls", "rows", "gate_evals_per_s", "gates",
             "gates_per_s", "words", "words_per_s", "trials", "members",
             "max_cone"}
    for m in SPEC["per_layer"]:
        if m["name"].startswith("trace."):
            continue
        layer, func, stat = m["name"].split(".")
        assert stat in stats, m["name"]
        if layer == "cli":
            assert func in ("synth", "stats", "verify", "eval", "witness")
        else:
            obj = getattr(importlib.import_module(f"rangesynth.{layer}"), func)
            assert inspect.isfunction(obj), m["name"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
