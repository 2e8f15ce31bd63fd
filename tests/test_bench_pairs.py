"""The paired benchmark writer, run end to end at the tiny geometry with one
checkout on both sides."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_writes_every_end_to_end_metric_per_side(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", "--parent", ".", "--change", ".",
         "--workloads", "pair_scoring", "--seeds", "3", "--seconds", "1",
         "--geometry", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    names = [m["name"] for m in DECLARED["end_to_end"]]
    runs = report["workloads"]["pair_scoring"]["runs"]
    assert [(r["side"], r["seed"], r["correct"]) for r in runs] == [
        ("parent", 3, True), ("change", 3, True)]
    for side in ("parent", "change"):
        stats = report["workloads"]["pair_scoring"][side]
        assert list(stats) == names
        assert all(s["n"] == 1 and s["q1"] == s["median"] == s["q3"] for s in stats.values())
        assert report["sides"][side]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert report["sides"]["parent"] == report["sides"]["change"]
    assert "openblas_core" in report
