"""Run one benchmark workload and print its metrics as the last output line.

    python3 bench/run.py --workload attr_pretrain --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run sets up ``SETUP_REPS`` times, half of them before
and half after it measures for ``--seconds`` with tracing off, and reports
the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` it sets up
once, traced, then measures for ``--seconds`` with traced and untraced
operations alternating, and reports the per-layer metrics, including the
tracing overhead (traced minus untraced median operation time).  The line
before the result records the environment; a traced run also writes its
spans to ``.bench_out/``.  Run from the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: timings on a small shared
# machine vary a lot when BLAS threads are left free.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import model  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per untraced run, half before the measured window and half after
#: it, so that the set-up times and the set-up bank builds sample the machine
#: at both ends of the run, not in one stretch at its start.
SETUP_REPS = 4
OUT_DIR = ROOT / ".bench_out"


def percentile(values, q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(n=100)`` cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": blas.get("name", "unknown"),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "git_commit": git_commit(),
        "workload": args.workload,
        "geometry": args.geometry,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(g, setup, measure, args, workdir):
    setup_s, build_s = [], []

    def set_up():
        t0 = time.perf_counter()
        state = setup(g, args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)
        if state.build_s is not None:
            build_s.append(state.build_s)
        return state

    for _ in range(SETUP_REPS // 2):
        state = None  # let the previous state go before building the next
        state = set_up()
    out = measure(g, state, args.seconds, spans.Recorder(), workdir)
    state = None
    for _ in range(SETUP_REPS - SETUP_REPS // 2):
        set_up()
    op_ms = [o.ms for o in out.ops]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_s": out.throughput,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": percentile(op_ms, 90),
        # the median build over the whole run: the timed builds on `bank`,
        # the set-up builds elsewhere
        "bank_build_s": statistics.median(out.build_s or build_s),
        "eval_loss": out.eval_loss,
    }
    report = {"timed_ops": len(op_ms), "setup_s": setup_s,
              "bank_build_s": out.build_s or build_s}
    return metrics, out.attempted, out.failed, report


def per_layer(g, setup, measure, args, workdir):
    rec = spans.Recorder(active=True)
    with spans.installed(rec):
        state = setup(g, args.seed, workdir)
        rec.active, rec.alternate = False, True
        out = measure(g, state, args.seconds, rec, workdir)
    spans_file = OUT_DIR / f"spans-{args.workload}-{args.geometry}-seed{args.seed}.jsonl"
    rec.write(spans_file)

    metrics = spans.layer_metrics(rec)
    metrics.update(out.layer)
    traced_ms = statistics.median(o.ms for o in out.ops if o.traced)
    untraced_ms = statistics.median(o.ms for o in out.ops if not o.traced)
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    metrics["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    report = {
        "spans_file": str(spans_file.relative_to(ROOT)),
        "missing_spans": rec.missing,
        "untraced_op_ms_p50": untraced_ms,
        "traced_op_ms_p50": traced_ms,
    }
    return metrics, out.attempted, out.failed, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--geometry", choices=sorted(model.GEOMETRIES), default="paper48",
                    help="tiny is for the harness smoke test only")
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    g = model.GEOMETRIES[args.geometry]
    setup, measure = workloads.WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, report = run(g, setup, measure, args, workdir)
    finally:
        shutil.rmtree(workdir)

    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not args.trace and set(names) - set(metrics):
        raise SystemExit(f"end-to-end metrics not measured: {sorted(set(names) - set(metrics))}")
    print(json.dumps({"env": environment(args), "report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a layer that did no work on this workload reads 0
        "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": u} for n, u in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
