"""Run the benchmark on two checkouts in alternating pairs and write each
side's end-to-end numbers to one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --seeds 1 2 3 4 5 --out BENCH_32.json

For each workload and seed it runs ``bench/run.py --trace 0`` once in each
checkout: the parent first in even pairs, the change first in odd ones, so a
drift of the machine falls on both sides alike.  The file holds every run,
and per workload and side the median and quartiles of each end-to-end
metric, with the commit, BLAS threads, numpy and Python versions the runs
report and the OpenBLAS core that numpy's bundled library picked on this
CPU.  It compares nothing and claims nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: What a run reports of its environment that must be the same in every run
#: of one side.
SIDE_ENV = ("git_commit", "blas", "blas_threads", "numpy", "python")


def openblas_core() -> str | None:
    """The CPU core name numpy's bundled OpenBLAS chose, or None when numpy
    bundles no OpenBLAS that exports ``scipy_openblas_get_corename64_``."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float, geometry: str):
    """One untraced run; returns its environment line and its result line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--geometry", geometry],
        cwd=checkout, capture_output=True, text=True, timeout=600 + 20 * seconds,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def summary(values: list[float]) -> dict:
    """Median and quartiles, as ``statistics.quantiles`` cuts them inclusively."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--geometry", default="paper48")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    envs = {side: set() for side in SIDES}
    workloads = {}
    for workload in args.workloads:
        runs = []
        for pair, seed in enumerate(args.seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                env, result = run_once(checkouts[side], workload, seed, args.seconds,
                                       args.geometry)
                envs[side].add(json.dumps({k: env[k] for k in SIDE_ENV}, sort_keys=True))
                runs.append({"pair": pair, "side": side, "seed": seed,
                             "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": {n: m["value"] for n, m in result["metrics"].items()}})
                print(f"{workload} seed {seed} {side}: {runs[-1]['metrics']}", file=sys.stderr)
        workloads[workload] = {"runs": runs} | {
            side: {name: summary([r["metrics"][name] for r in runs if r["side"] == side])
                   for name in runs[0]["metrics"]}
            for side in SIDES
        }
    for side, seen in envs.items():
        if len(seen) != 1:
            raise SystemExit(f"the {side} runs reported different environments: {sorted(seen)}")

    report = {
        "command": ["bench/run.py", "--trace", "0", "--seconds", args.seconds,
                    "--geometry", args.geometry],
        "seeds": args.seeds,
        "openblas_core": openblas_core(),
        "sides": {side: json.loads(seen.pop()) for side, seen in envs.items()},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
