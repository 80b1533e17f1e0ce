"""Reproducible experiment driver.

Every run prints a single artifact (JSON by default, CSV for tabular data)
with the full configuration echoed, so a run is reproducible from its own
output.  Wall time goes to stderr, keeping artifacts byte-identical across
repeated runs with the same config and seed.

Exit codes: 0 success, 1 bad input, 2 budget refusal.

Each subcommand is declared once, in the command table _COMMANDS: its
handler, which returns only its result dict, its help line, the names of
its options (argparse settings in _OPTIONS; --seed, --budget, --out and
--format are added to every command) and the CSV columns of its result
rows, or None for a key,value listing.  main builds the parser from the
table, for the one subcommand it runs, and keeps it for the process.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .errors import BudgetExceeded
from .fourier import best_factor_search, count_structured, enumerate_structured, function_entropy, polynomial_to_text
from .gf2 import Subspace, count_linear_injections, rooted_subspace_packing
from .hereditary import (
    _structure_counts,
    census,
    core_membership,
    core_membership_refute,
    count_free_extensions,
    forb,
    property_critical_number,
    ramsey_dimension,
    verify_ramsey_result,
)
from .matroid import (
    Matroid,
    Pattern,
    RealFunction,
    builtin_pattern,
    count_instances,
    critical_number,
    density,
    density_in_function,
    find_instance,
    load_json_dict,
    load_table,
)

SCHEMA = "binmat/1"

_NAME_ALIAS = re.compile(r"^(ones|zeros)(\d+)$")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; this driver reserves 2 for
    budget refusals, so parse errors raise and map to exit 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


class _UsageError(ValueError):
    pass


# --- input loading ----------------------------------------------------------------

def _load_object(spec: str):
    """File path (text or JSON table) or builtin pattern name."""
    path = Path(spec)
    if path.exists():
        text = path.read_text()
        if text.lstrip().startswith("{"):
            return load_json_dict(json.loads(text))
        return load_table(text)
    name = spec
    m = _NAME_ALIAS.match(spec)
    if m:
        name = f"{m.group(1)}:{m.group(2)}"
    return builtin_pattern(name)


def _pattern_arg(spec: str) -> Pattern:
    obj = _load_object(spec)
    return obj.to_pattern() if isinstance(obj, Matroid) else obj


def _matroid_arg(spec: str) -> Matroid:
    obj = _load_object(spec)
    if isinstance(obj, Pattern):
        if not obj.is_star_free:
            raise ValueError(f"{spec!r} has wildcard cells; a matroid is required")
        obj = obj.to_matroid()
    return obj


def _property_arg(specs) -> object:
    return forb(*(_pattern_arg(s) for s in specs))


def _values_arg(path: str) -> list:
    """Whitespace-separated exact values ('1/3', '0.25', '1')."""
    toks = Path(path).read_text().split()
    try:
        return [Fraction(t) for t in toks]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {path}") from None


def _parse_range(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition(":")
    try:
        lo, hi = int(lo), int(hi or lo)  # a second ':' stays in hi and fails here
    except ValueError:
        raise ValueError(f"bad range {spec!r}") from None
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range {spec!r}")
    return lo, hi


def _parse_dim(spec: str) -> int:
    """The one dimension --n names for ramsey, pack and ext-count."""
    try:
        return int(spec)
    except ValueError:
        raise ValueError(f"bad dimension {spec!r}") from None


# --- output ------------------------------------------------------------------------

def _enc(x):
    """Fractions to 'p/q' and non-finite floats (the entropy of a zero
    count) to 'inf'/'-inf', which JSON has no number for; counts are
    pre-rendered as decimal strings by the subcommands, structural integers
    (dims, seeds) stay JSON numbers."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _enc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_enc(v) for v in x]
    return x


def _render_json(artifact: dict) -> str:
    return json.dumps(artifact, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _render_csv(artifact: dict, columns) -> str:
    """The rows of the result under `columns`, or key,value lines when
    the command has no table."""
    buf = io.StringIO()
    for key in ("schema", "command"):
        buf.write(f"# {key}={artifact[key]}\n")
    for key, val in sorted(artifact["config"].items()):
        buf.write(f"# config.{key}={json.dumps(val)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    result = artifact["result"]
    if columns is None:
        writer.writerow(["key", "value"])
        for key in sorted(result):
            writer.writerow([key, json.dumps(result[key], sort_keys=True, allow_nan=False)])
    else:
        writer.writerow(columns)
        for row in result["rows"]:
            writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# --- subcommands --------------------------------------------------------------------
# each returns its result dict; a table's rows go under "rows"

def _cmd_census(args):
    P = _property_arg(args.forbid)
    lo, hi = _parse_range(args.n)
    return {"rows": [census(P, n).to_json_dict() for n in range(lo, hi + 1)]}


def _cmd_entropy_table(args):
    P = _property_arg(args.forbid)
    lo, hi = _parse_range(args.n)
    if P.forbidden:
        try:
            chi = property_critical_number(P)
        except ValueError:
            chi = 0  # trivial property: no constant family survives
    else:
        chi = None  # Forb(empty): every matroid qualifies
    chi_term = 1.0 if chi is None else 1.0 - 2.0 ** (-chi)
    rows = []
    violations = 0
    for n in range(lo, hi + 1):
        row = census(P, n).to_json_dict()
        count = int(row["count"])
        k = n if chi is None else min(chi, n)
        floor_log2 = (1 << n) - (1 << (n - k))
        ok = count >= 1 << floor_log2
        violations += not ok
        row.update(
            {
                "entropy_ratio": row["entropy"] / (1 << n),
                "chi_term": chi_term,
                "sandwich_ok": ok,
            }
        )
        rows.append(row)
    return {
        "rows": rows,
        "chi": "inf" if chi is None else chi,
        "violations": violations,
    }


def _cmd_chi(args):
    return {"chi": property_critical_number(_property_arg(args.forbid))}


def _cmd_critical(args):
    M = _matroid_arg(args.input)
    return {"dim": M.dim, "critical": critical_number(M)}


def _check_count_budget(d: int, n: int, budget):
    """Refuse (BudgetExceeded) an exact count of dim-d instances in dim n
    whose count_instances walk of count_linear_injections(d - 1, n)
    basis-image prefixes exceeds budget, before any is walked."""
    if budget is None or not 0 < d <= n:
        return
    work = count_linear_injections(d - 1, n)
    if work > budget:
        raise BudgetExceeded(
            f"an exact count walks {work} basis-image prefixes, over the budget of {budget}"
        )


def _cmd_instance(args):
    src = _pattern_arg(args.pattern)
    tgt = _pattern_arg(args.target)
    if args.count:
        _check_count_budget(src.dim, tgt.dim, args.budget)
    phi = find_instance(src, tgt)
    result = {
        "found": phi is not None,
        "map": list(phi.images) if phi else None,
    }
    if args.count:  # no witness means no instance, so only a found one is counted
        result["count"] = str(count_instances(src, tgt)) if phi else "0"
    return result


def _cmd_density(args):
    N = _pattern_arg(args.pattern)
    M = _matroid_arg(args.input)
    if args.samples is None:
        _check_count_budget(N.dim, M.dim, args.budget)
        t = density(N, M)
        return {"density": t, "density_float": float(t)}
    est = density_in_function(
        N, RealFunction.from_matroid(M), samples=args.samples, seed=args.seed
    )
    return {"estimate": float(est), "samples": args.samples, "seed": args.seed}


def _cmd_ramsey(args):
    kwargs = {} if args.budget is None else {"node_budget": args.budget}
    res = ramsey_dimension(args.d, _parse_dim(args.n), **kwargs)
    verified = verify_ramsey_result(res, samples=1000, seed=args.seed)
    return {
        "flat_dim": res.flat_dim,
        "value": res.value,
        "counterexamples": {
            str(n): M.to_json_dict() for n, M in sorted(res.counterexamples.items())
        },
        "transcript": res.transcript,
        "verified": verified,
    }


def _cmd_pack(args):
    n, du, dw = _parse_dim(args.n), args.d, args.k
    if not 0 <= du <= dw <= n:
        raise ValueError("need 0 <= dim(U) <= dim(W) <= dim(V)")
    U = Subspace.from_vectors(n, [1 << i for i in range(du)])
    W = Subspace.from_vectors(n, [1 << i for i in range(dw)])
    fam = rooted_subspace_packing(U, W, n)
    d = n - dw + du
    strict = du < dw < n
    return {
        "m": len(fam),
        "member_dim": d,
        "guarantee": (1 << (n - 2 * d)) if strict and n >= 2 * d else 1,
        "subspaces": [S.to_json_dict() for S in fam],
    }


def _cmd_core(args):
    M = _matroid_arg(args.input)
    P = _property_arg(args.forbid)
    if args.samples is None:
        return {"in_core": core_membership(M, P, args.k)}
    refuted = core_membership_refute(M, P, args.k, args.samples, seed=args.seed)
    return {"in_core": refuted, "samples": args.samples, "seed": args.seed}


def _cmd_ext_count(args):
    M = _matroid_arg(args.input)
    Np = _pattern_arg(args.pattern)
    rep = count_free_extensions(M, _parse_dim(args.n), Np)
    return {**dataclasses.asdict(rep), "count": str(rep.count), "total": str(rep.total),
            "bound_holds": rep.holds}


def _cmd_o2_check(args):
    P = _property_arg(args.forbid)
    lo, hi = _parse_range(args.n)
    rows = []
    for n in range(lo, hi + 1):
        total, structured = _structure_counts(P, n, args.k)
        frac = Fraction(structured, total)
        rows.append(
            {
                "n": n,
                "k": args.k,
                "structured_count": str(structured),
                "member_count": str(total),
                "fraction": f"{frac.numerator}/{frac.denominator}",
                "fraction_float": float(frac),
            }
        )
    return {"rows": rows}


def _cmd_decomp_probe(args):
    g = _values_arg(args.input)
    factor, residual = best_factor_search(g, args.d, args.k)
    return {
        "degree": args.d,
        "complexity": args.k,
        "n_parts": factor.n_parts,
        "polys": [polynomial_to_text(P) for P in factor.polys],
        "residual": residual,
    }


def _cmd_structured(args):
    vals = _values_arg(args.input)
    size = len(vals) + 1
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("need 2^n - 1 point values")
    f = RealFunction(n, tuple(vals))
    count = count_structured(f)
    bound_log2 = function_entropy(f)
    result = {
        "count": str(count),
        "entropy_bound_log2": bound_log2,
        "bound_holds": count == 0 or float(count) <= 2.0**bound_log2 * (1 + 1e-12),
    }
    if args.list:
        result["tables"] = [M.to_json_dict() for M in enumerate_structured(f)]
    return result


# --- the command table --------------------------------------------------------------

_OPTIONS = {  # argparse keyword arguments of each option, by name
    "forbid": dict(
        action="append",
        default=[],  # argparse copies it before appending; the echo shows []
        metavar="PAT",
        help="forbidden pattern: file path or builtin "
        "(O2, I1, BB:k:d, ones:d, zeros:d); repeatable",
    ),
    "n": dict(required=True, help="dimension, or LO:HI range"),
    "k": dict(type=int, required=True, help="codimension parameter"),
    "d": dict(type=int, required=True, help="dimension parameter"),
    "input": dict(required=True, help="input file (or builtin name)"),
    "pattern": dict(required=True, help="pattern file or builtin name"),
    "target": dict(required=True, help="target file or builtin name"),
    "samples": dict(
        type=int, default=None, help="Monte-Carlo sample count (exact mode when omitted)"
    ),
    "count": dict(action="store_true", help="also count all instances"),
    "list": dict(action="store_true", help="enumerate the tables too"),
    "seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "budget": dict(type=int, default=None,
                   help="search budget: DFS nodes (ramsey); basis-image prefixes walked,"
                        " each O(n 2^n / 64) word operations (exact instance counts)"),
    "out": dict(default=None, help="output file (default stdout)"),
    "format": dict(choices=("json", "csv"), default="json", help="output format"),
}

_COMMON = ("seed", "budget", "out", "format")

# name: (handler, help, its own options, CSV columns of result["rows"] or None)
_COMMANDS = {
    "census": (_cmd_census, "labeled member counts", ("forbid", "n"),
               ("n", "count", "entropy")),
    "entropy-table": (_cmd_entropy_table, "entropy rows with the critical-number limit",
                      ("forbid", "n"),
                      ("n", "count", "entropy", "entropy_ratio", "chi_term", "sandwich_ok")),
    "chi": (_cmd_chi, "critical number of a property", ("forbid",), None),
    "critical": (_cmd_critical, "critical number of a matroid", ("input",), None),
    "instance": (_cmd_instance, "find a pattern instance", ("count", "pattern", "target"), None),
    "density": (_cmd_density, "instance density of a pattern in a matroid",
                ("input", "pattern", "samples"), None),
    "ramsey": (_cmd_ramsey, "least dimension forcing a monochromatic flat", ("n", "d"), None),
    "pack": (_cmd_pack, "rooted subspace packing (coordinate U <= W)", ("n", "k", "d"), None),
    "core": (_cmd_core, "does every k-extension stay in the property",
             ("forbid", "k", "input", "samples"), None),
    "ext-count": (_cmd_ext_count, "pattern-free extension count and bound",
                  ("n", "input", "pattern"), None),
    "o2-check": (_cmd_o2_check, "fraction of members with small critical number",
                 ("forbid", "n", "k"),
                 ("n", "k", "structured_count", "member_count", "fraction", "fraction_float")),
    "decomp-probe": (_cmd_decomp_probe, "best low-complexity factor of a function",
                     ("k", "d", "input"), None),
    "structured": (_cmd_structured, "level-structured matroid count", ("list", "input"), None),
}


@functools.cache
def _build_parser(command: str | None = None) -> _Parser:
    # main passes the command it runs: one subparser, not all 13 (ms per process).
    # Messages match, as _Parser.error prints no usage line listing the commands.
    # --help shows the docstring without its last paragraph, which is about this module
    parser = _Parser(prog="binmat", description=__doc__.rsplit("\n\n", 1)[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, options, _) in _COMMANDS.items():
        if command not in (None, name):
            continue
        sub = subs.add_parser(name, help=help_)
        for opt in options + _COMMON:
            sub.add_argument(f"--{opt}", **_OPTIONS[opt])
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
        handler, _, _, columns = _COMMANDS[args.command]
        artifact = {
            "schema": SCHEMA,
            "command": args.command,
            "config": _enc({k: v for k, v in vars(args).items() if k != "command"}),
            "result": _enc(handler(args)),
        }
        if args.format == "csv":
            text = _render_csv(artifact, columns)
        else:
            text = _render_json(artifact)
        _emit(text, args.out)
        return 0
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except BudgetExceeded as e:
        print(f"binmat: budget refused: {e}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"binmat: error: {e}", file=sys.stderr)
        return 1
    finally:
        print(f"wall_time_s={time.perf_counter() - started:.3f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
