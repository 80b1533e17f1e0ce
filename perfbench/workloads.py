"""The benchmark's workloads: seeded inputs, the ops of one pass, and the
checks every op result must pass.

Nothing here imports binmat at module level: run.py reads the workload names
without loading the library, and each worker imports it inside its own timed
set-up.  Ops look library functions up through their module at call time,
so the tracer's wrappers are the ones called in a traced pass.

Every op result gets two checks.  A cheap certificate tests it on its own
(an artifact carries the exact published counts, a packing has the proven
size).  Then the results of each op kind are hashed and compared with
digests recorded at a known-good commit (digests.json, written by
record_digests.py).  Seeded inputs come from ``seed % INPUT_SEEDS``, so
every seed has a recorded digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("count-n5", "enumerate")
INPUT_SEEDS = 32
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORKDIR = "perfbench/out/work"  # relative to the checkout root, which is the cwd

# exact values each artifact or result must carry
EXPECT = {
    "full": {
        "census": "1160510576",  # Forb(ones:3) at n=5, the scan engine
        "ext-count": "363109",  # pinned prefix, 24 free cells
        "pack": 16,
        "isomorphism_class_census": 11,
        "ramsey": 3,
    },
    "smoke": {
        "census": "127",
        "ext-count": "41",
        "pack": 1,
        "isomorphism_class_census": 5,
        "ramsey": 3,
    },
}
CHI = {"O2": 1, "ones3": 2, "I1": 0}  # property critical numbers (acceptance check 4)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    certify: Callable[[object], bool]
    render: Callable[[object], str]
    seeded: bool = True  # False: the op's input does not depend on the seed


@dataclass
class CliResult:
    rc: int
    text: str


@dataclass
class Raised:
    error: str


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The ops of one pass of `workload` for `seed`, inputs generated."""
    mode = "smoke" if smoke else "full"
    s = input_seed(seed)
    rng = random.Random(f"{workload}:{mode}:{s}")
    if workload == "count-n5":
        return _count_n5(rng, mode)
    if workload == "enumerate":
        return _enumerate(rng, mode, s)
    raise ValueError(f"unknown workload {workload!r}")


# --- CLI ops ------------------------------------------------------------------

def run_cli(argv: list[str]) -> CliResult:
    """binmat.cli.main in-process, with the artifact captured from stdout.
    The CLI's wall-time line on stderr is dropped."""
    import binmat.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue())


def _cli_op(kind: str, argv: list[str], check: Callable[[dict], bool], seeded: bool) -> Op:
    def certify(r: CliResult) -> bool:
        return r.rc == 0 and check(json.loads(r.text)["result"])

    return Op(kind, lambda: run_cli(argv), certify, lambda r: f"{r.rc}\n{r.text}", seeded)


def _count_n5(rng: random.Random, mode: str) -> list[Op]:
    """Counting-engine jobs at the n=5 cap, one for each way the engine is
    called: a forbid-only scan census through the CLI, a require-only scan
    (count_critical_at_most) and a pinned-prefix DFS count through the CLI.
    The n=5 DFS census of Forb(O2) and the n=5 fraction of acceptance
    check 5 are left out: at 15-20 s each they leave one sample per run,
    and their run-to-run spread on a 2-core VM reached the largest bound a
    metric may have."""
    import binmat.hereditary as hm

    n = 3 if mode == "smoke" else 5
    k = 2
    want = EXPECT[mode]

    def census_ok(res):
        (row,) = res["rows"]
        return row["n"] == n and row["count"] == want["census"]

    def sandwich_ok(count):
        # acceptance check 3: 2^f <= count <= 2^(f + k n), f = 2^n - 2^(n-k)
        f = (1 << n) - (1 << (n - k))
        return (1 << f) <= count <= (1 << (f + k * n))

    ops = [
        _cli_op("census", ["census", "--forbid", "ones3", "--n", str(n)], census_ok, False),
        Op("count_critical_at_most", lambda: hm.count_critical_at_most(n, k), sandwich_ok, str, False),
        _cli_op("ext-count", ["ext-count", "--input", "ones:1" if mode == "smoke" else "ones:3",
                              "--pattern", "O2", "--n", str(n)],
                lambda res: res["count"] == want["ext-count"] and res["bound_holds"] is True, False),
    ]
    rng.shuffle(ops)
    return ops


def _enumerate(rng: random.Random, mode: str, s: int) -> list[Op]:
    import binmat.hereditary as hm
    import binmat.matroid as mat

    want = EXPECT[mode]
    smoke = mode == "smoke"
    size = 4 if smoke else 8
    work = Path(WORKDIR)
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for j in range(2):
        path = work / f"g-{mode}-{s}-{j}.vals"
        path.write_text(" ".join(f"{rng.randrange(size + 1)}/{size}" for _ in range(size)) + "\n")
        paths.append(path)
    dk = ["--d", "1", "--k", "1"] if smoke else ["--d", "2", "--k", "2"]
    pack = ["pack", "--n", "3", "--d", "0", "--k", "1"] if smoke else ["pack", "--n", "8", "--d", "0", "--k", "4"]
    iso_n = 3 if smoke else 4
    O2 = mat.builtin_pattern("O2")

    def decomp_ok(res):
        return res["n_parts"] >= 1 and res["residual"] >= 0 and len(res["polys"]) == int(dk[3])

    return [
        _cli_op("pack", pack, lambda res: res["m"] == want["pack"] == len(res["subspaces"]), False),
        # two functions, so the median op falls inside the decomp-probe group
        *(_cli_op("decomp-probe", ["decomp-probe", "--input", str(path)] + dk, decomp_ok, True)
          for path in paths),
        Op("isomorphism_class_census",
           lambda: hm.isomorphism_class_census(hm.forb(O2), iso_n),
           lambda r: r == want["isomorphism_class_census"], str, False),
        _queries(rng, mode, s, work),
    ]


def _queries(rng: random.Random, mode: str, s: int, work: Path) -> Op:
    """One op of small per-matroid CLI queries: property critical numbers,
    critical numbers and instance counts in seeded matroids, and a Ramsey
    search.  Together they cost less than any other enumerate op, so the
    median op stays a decomp-probe."""
    import binmat.matroid as mat

    smoke = mode == "smoke"
    jobs = [(["chi", "--forbid", name], lambda res, c=c: res["chi"] == c) for name, c in CHI.items()]
    for j in range(2 if smoke else 8):
        M = mat.sample_matroid(3 if smoke else rng.choice((5, 6)), rng)
        cells = [rng.choice((0, 1, mat.STAR)) for _ in range(3)]
        N = mat.Pattern.from_values(cells)
        m_path, n_path = work / f"m-{mode}-{s}-{j}.txt", work / f"p-{mode}-{s}-{j}.txt"
        m_path.write_text(M.to_text())
        n_path.write_text(N.to_text())
        jobs.append((["critical", "--input", str(m_path)],
                     lambda res, M=M: res["dim"] == M.dim and _vanishes_at_codim(M, res["critical"])))
        jobs.append((["instance", "--pattern", str(n_path), "--target", str(m_path), "--count"],
                     lambda res, N=N, M=M: _instance_ok(N, M, res)))
    jobs.append((["ramsey", "--d", "2", "--n", "3" if smoke else "4", "--seed", str(s)],
                 lambda res: res["value"] == EXPECT[mode]["ramsey"] and res["verified"] is True))

    def certify(rs: list[CliResult]) -> bool:
        return len(rs) == len(jobs) and all(
            r.rc == 0 and check(json.loads(r.text)["result"]) for r, (_, check) in zip(rs, jobs))

    def render(rs: list[CliResult]) -> str:
        return "".join(f"{r.rc}\n{r.text}" for r in rs)

    return Op("queries", lambda: [run_cli(argv) for argv, _ in jobs], certify, render, True)


def _vanishes_at_codim(M, c: int) -> bool:
    """M is zero on some subspace of codimension c."""
    from binmat.gf2 import enumerate_subspaces

    return 0 <= c <= M.dim and any(S.point_mask & M.ones_mask == 0
                                   for S in enumerate_subspaces(M.dim, M.dim - c))


def _instance_ok(N, M, res: dict) -> bool:
    """A returned map is injective and realizes N in M cell by cell, and
    instances are counted iff one is found."""
    from binmat.gf2 import LinearMap

    count = int(res["count"])
    if not res["found"]:
        return res["map"] is None and count == 0
    phi = LinearMap(N.dim, M.dim, tuple(res["map"]))

    def realized(x: int) -> bool:
        cell = N.value_bits(x)
        return cell == "*" or cell == M.value_bits(phi.apply_bits(x))

    return count >= 1 and phi.is_injective and all(realized(x) for x in range(1, N.n_points + 1))


# --- running and checking -------------------------------------------------------

def run_pass(ops: list[Op], tracer=None) -> tuple[list, list[float], float, float]:
    """Run the ops one after another, a closed loop with one client.
    Returns the results, per-op latencies, wall seconds and CPU seconds; an
    op that raises yields a Raised result, which counts as failed."""
    results: list = []
    lat: list[float] = []
    clock = time.perf_counter
    cpu0 = time.process_time()
    t0 = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        s = clock()
        try:
            r = op.call()
        except Exception as exc:  # the loop must go on; the op counts as failed
            traceback.print_exc()
            r = Raised(repr(exc))
        lat.append(clock() - s)
        results.append(r)
    return results, lat, clock() - t0, time.process_time() - cpu0


def artifact_bytes(results: list) -> int:
    """Bytes of the CLI artifacts among the results; a query batch holds several."""
    flat = [r for x in results for r in (x if isinstance(x, list) else [x])]
    return sum(len(r.text.encode()) for r in flat if isinstance(r, CliResult))


def digest_key(op: Op, s: int) -> str:
    return str(s) if op.seeded else "any"


def kind_digests(ops: list[Op], results: list, indices=None) -> dict[str, str]:
    """sha256 prefix per op kind over the rendered results, in op order.
    Float results are rendered rounded, so a reordered sum still matches."""
    hashes: dict = {}
    for i in indices if indices is not None else range(len(ops)):
        op, r = ops[i], results[i]
        try:
            text = f"raised {r.error}" if isinstance(r, Raised) else op.render(r)
        except Exception:  # a result of the wrong shape simply fails to match
            text = f"unrenderable {type(r).__name__}"
        hashes.setdefault(op.kind, hashlib.sha256()).update(f"{text}\n".encode())
    return {k: h.hexdigest()[:16] for k, h in hashes.items()}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def check(workload: str, seed: int, smoke: bool, ops: list[Op], results: list,
          record: dict) -> tuple[set[int], list[str]]:
    """Indices of ops whose result raised, failed its certificate, or belongs
    to a kind whose digest differs from the recorded one; plus notes."""
    mode = "smoke" if smoke else "full"
    s = input_seed(seed)
    failed: set[int] = set()
    notes: list[str] = []
    for i, (op, r) in enumerate(zip(ops, results)):
        if isinstance(r, Raised):
            failed.add(i)
            notes.append(f"op {i} ({op.kind}) raised {r.error}")
            continue
        try:
            ok = op.certify(r)
        except Exception as exc:  # a malformed result is a failed check
            ok = False
            notes.append(f"op {i} ({op.kind}) certificate raised {exc!r}")
        if not ok:
            failed.add(i)
            notes.append(f"op {i} ({op.kind}) failed its certificate")
    got = kind_digests(ops, results)
    recorded = record.get(mode, {}).get(workload, {})
    for kind, digest in got.items():
        members = [i for i, op in enumerate(ops) if op.kind == kind]
        want = recorded.get(digest_key(ops[members[0]], s), {}).get(kind)
        if digest != want:
            failed.update(members)
            notes.append(f"{kind}: digest {digest} != recorded {want}")
    return failed, notes
