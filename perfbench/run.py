"""binmat benchmark: one command, two workloads, every metric by name.

    python3 perfbench/run.py --workload {count-n5,enumerate} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a checkout; it measures the library under src/.
Each pass of a workload runs in a fresh worker process (worker.py), one op
after another with a single client.  Passes repeat while the next one is
expected to end within --seconds; there is always at least one.

--trace 0 prints the end-to-end metrics: set-up time and pass time (each
the median over the passes), per-op latency percentiles over all
passes, and peak resident memory.  --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics.  Either way the last stdout
line is one JSON object with keys correct, attempted, failed and metrics;
`failed / attempted` is the error rate.  The line before it records the
machine, the library versions, sample counts and source line counts.
--smoke uses tiny inputs (n <= 3) and takes seconds.

Exit code 2 means there is no binmat source tree to measure, 1 that a
worker failed or ran out of time; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (does not import binmat)

DEADLINE_S = 170  # a run must end within 180 s
MODULE_FILES = ("gf2", "matroid", "hereditary", "fourier", "cli")
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    # numpy must not start a BLAS thread pool: one client, one thread
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(args, trace: int, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; (its run time, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **WORKER_ENV}, timeout=timeout)
    t_end = time.monotonic()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no report")
    return t_end - t_spawn, json.loads(lines[-1])


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], dict]:
    passes: list[dict] = []
    loop_start = time.monotonic()
    while True:
        last, rep = spawn(args, 0, deadline)
        passes.append(rep)
        now = time.monotonic()
        if now - loop_start + last > args.seconds or now + last > deadline:
            break
    lat = sorted(x for p in passes for x in p["lat_s"])
    p99 = nearest_rank(lat, 0.99)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (1e3 * nearest_rank(lat, 0.50), "ms"),
        "op_p99_ms": (1e3 * p99, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }
    samples = {"passes": len(passes), "op_samples": len(lat), "beyond_p99": sum(x > p99 for x in lat)}
    return metrics, passes, samples


def per_layer(args, deadline: float) -> tuple[dict, list[dict], dict]:
    _, plain = spawn(args, 0, deadline)
    _, traced = spawn(args, 1, deadline)
    units = {"calls": "count", "items": "count", "tables": "count", "misses": "count", "instances": "count",
             "constraints": "count", "spans": "count",
             "artifact_bytes": "bytes", "self_s": "s", "tables_per_s": "1/s",
             "hit_ratio": "ratio", "span_cover_frac": "ratio"}
    metrics = {k: (v, units[k.rsplit(".", 1)[1]]) for k, v in traced["layers"].items()}
    metrics["run.cpu_s"] = (plain["cpu_s"], "s")
    metrics["run.cpu_util"] = (plain["cpu_s"] / plain["wall_s"], "ratio")
    metrics["run.trace_overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    metrics["run.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["run.traced_wall_s"] = (traced["wall_s"], "s")
    return metrics, [plain, traced], {"passes": 2, "spans": traced["layers"]["run.spans"]}


def source_lines() -> dict[str, int]:
    return {m: len((SRC / "binmat" / f"{m}.py").read_text().splitlines()) for m in MODULE_FILES}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    args = ap.parse_args()
    if not (SRC / "binmat" / "__init__.py").is_file():
        print(f"perfbench: no binmat sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, passes, samples = per_layer(args, deadline)
        else:
            metrics, passes, samples = end_to_end(args, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": passes[0]["python"], "numpy": passes[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "samples": samples, "source_lines": source_lines(),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_setup_s": [p["setup_s"] for p in passes],
    }
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
