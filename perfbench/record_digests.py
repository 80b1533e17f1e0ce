"""Record the result digests that every benchmark pass is checked against.

Run it only at a commit whose results are known to be right; the digests in
digests.json were recorded at the commit that added the benchmark.

    python3 perfbench/record_digests.py

It re-records every workload and rewrites digests.json.  Op kinds whose
inputs depend on the seed are recorded for every input seed, the others
once.  Recording refuses if any op raises or fails its certificate.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def record_one(task: tuple[str, str, int]) -> tuple[str, str, dict]:
    mode, workload, s = task
    os.chdir(ROOT)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    ops = workloads.build(workload, s, mode == "smoke")
    todo = [i for i, op in enumerate(ops) if op.seeded or s == 0]
    results = {}
    for i in todo:
        r = results[i] = ops[i].call()
        if not ops[i].certify(r):
            raise RuntimeError(f"{mode} {workload} seed {s}: op {i} ({ops[i].kind}) failed its certificate")
    out: dict[str, dict] = {}
    for kind, digest in workloads.kind_digests(ops, results, todo).items():
        first = next(op for op in ops if op.kind == kind)
        out.setdefault(workloads.digest_key(first, s), {})[kind] = digest
    return mode, workload, out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    tasks = []
    for mode in ("full", "smoke"):
        for workload in workloads.WORKLOADS:
            seeded = any(op.seeded for op in workloads.build(workload, 0, mode == "smoke"))
            tasks += [(mode, workload, s) for s in range(workloads.INPUT_SEEDS if seeded else 1)]
    record: dict = {}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for mode, workload, out in pool.imap_unordered(record_one, tasks):
            for key, kinds in out.items():
                record.setdefault(mode, {}).setdefault(workload, {}).setdefault(key, {}).update(kinds)
    for by_workload in record.values():
        for workload, by_key in by_workload.items():
            by_workload[workload] = {
                key: dict(sorted(kinds.items()))
                for key, kinds in sorted(by_key.items(),
                                         key=lambda kv: -1 if kv[0] == "any" else int(kv[0]))}
    workloads.DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    print(f"recorded {len(tasks)} tasks into {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
