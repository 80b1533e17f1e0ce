"""One benchmark worker: set up, run one pass of a workload, check it, report.

run.py starts a fresh worker process for every pass, so the imports and the
library's caches start cold, as they do for a CLI user.  Set-up time runs
from the top of this script (after the interpreter and a few standard
modules have loaded) until binmat is imported and the inputs are generated.  The
pass is a closed loop with one client: each op starts after the previous one
returns.  The report is one JSON line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --trace {0,1} [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

T0 = time.perf_counter()  # set-up starts here

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    # --- set-up: import the library from this checkout, generate inputs ---
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import binmat
    import binmat.cli  # noqa: F401  (the CLI module is not imported by the package)
    import numpy

    if not Path(binmat.__file__).resolve().is_relative_to(SRC):
        print(f"worker: binmat imported from {binmat.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import workloads

    ops = workloads.build(args.workload, args.seed, args.smoke)
    report = {"setup_s": time.perf_counter() - T0,
              "python": platform.python_version(), "numpy": numpy.__version__}

    # --- one pass ---
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results, lat, wall, cpu = workloads.run_pass(ops, tracer)
    if tracer is not None:
        tracer.uninstall()

    failed, notes = workloads.check(args.workload, args.seed, args.smoke, ops, results,
                                    workloads.load_digests())
    for note in notes[:20]:
        print(f"worker: check failed: {note}", file=sys.stderr)
    report.update(
        wall_s=wall,
        cpu_s=cpu,
        lat_s=lat,
        attempted=len(ops),
        failed=len(failed),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        from tracer import layer_metrics

        report["layers"] = layer_metrics(tracer, wall, workloads.artifact_bytes(results))
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}{'-smoke' if args.smoke else ''}.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
