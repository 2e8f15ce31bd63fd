"""Smoke test of the benchmark harness at the tiny geometry.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced, each in its own interpreter as the
benchmark is run, and checks that the result line carries every metric
``BENCHMARK.json`` names, with its unit, and that no check failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--geometry", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    env, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert env["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert env["report"]["missing_spans"] == []
        assert result["metrics"]["trace.min_self_ms"]["value"] >= 0.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
