import argparse
import json
import math
import random
import warnings
from unittest import mock

import pytest

import binmat.hereditary as hereditary
from binmat.cli import _build_parser, main
from binmat.matroid import STAR, Matroid, Pattern


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_census_basics(capsys):
    art = run_json(capsys, "census", "--forbid", "O2", "--n", "2")
    assert art["schema"] == "binmat/1"
    assert art["command"] == "census"
    assert art["config"]["forbid"] == ["O2"]
    row = art["result"]["rows"][0]
    assert row["n"] == 2 and row["count"] == "7"
    assert row["entropy"] == pytest.approx(math.log2(7))


def test_census_range_and_free_property(capsys):
    art = run_json(capsys, "census", "--n", "1:3")
    counts = [row["count"] for row in art["result"]["rows"]]
    assert counts == ["2", "8", "128"]  # 2^(2^n - 1)


def test_entropy_table_free(capsys):
    art = run_json(capsys, "entropy-table", "--n", "1:3")
    assert art["result"]["chi"] == "inf"
    assert art["result"]["violations"] == 0
    for row in art["result"]["rows"]:
        n = row["n"]
        assert row["entropy"] == float((1 << n) - 1)
        assert row["chi_term"] == 1.0
        assert row["sandwich_ok"] is True


def test_entropy_table_point_free(capsys):
    # forbidding a single present point leaves only the empty matroid
    art = run_json(capsys, "entropy-table", "--forbid", "I1", "--n", "1:4")
    assert art["result"]["chi"] == 0
    for row in art["result"]["rows"]:
        assert row["count"] == "1" and row["entropy"] == 0.0


def test_entropy_table_o2_ratio(capsys):
    art = run_json(capsys, "entropy-table", "--forbid", "O2", "--n", "1:5")
    assert art["result"]["chi"] == 1
    rows = art["result"]["rows"]
    ratios = [row["entropy_ratio"] for row in rows]
    # the ratio approaches the chi limit 1 - 2^-1 from above
    tail = ratios[2:]  # n >= 3, past the small-n bumps
    for a, b in zip(tail, tail[1:]):
        assert a > b
    for row in rows:
        assert row["entropy_ratio"] >= row["chi_term"] == 0.5
        assert row["sandwich_ok"] is True
    assert art["result"]["violations"] == 0


def test_chi_values(capsys):
    assert run_json(capsys, "chi", "--forbid", "O2")["result"]["chi"] == 1
    assert run_json(capsys, "chi", "--forbid", "ones3")["result"]["chi"] == 2


def test_chi_past_dim_5(capsys):
    # the closed form answers up to the subspace-search cap of dim 8
    assert run_json(capsys, "chi", "--forbid", "BB:1:6")["result"]["chi"] == 0
    art = run_json(capsys, "entropy-table", "--forbid", "BB:1:6", "--n", "1:3")
    assert art["result"]["chi"] == 0


def test_critical_from_file(capsys, tmp_path):
    M = Matroid.constant(3, 1)
    path = tmp_path / "ones3.mat"
    path.write_text(M.to_text())
    art = run_json(capsys, "critical", "--input", str(path))
    assert art["result"] == {"dim": 3, "critical": 3}


def test_critical_from_json_file(capsys, tmp_path):
    M = Matroid.from_values([1, 1, 0])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(M.to_json_dict()))
    art = run_json(capsys, "critical", "--input", str(path))
    assert art["result"] == {"dim": 2, "critical": 1}


def test_critical_line_table_dim10(capsys, tmp_path):
    # ones on one line: no all-zero flat reaches the point-count cap, so
    # only the bound on how far a flat can still grow ends the search early
    path = tmp_path / "line10.txt"
    path.write_text(Matroid(10, 0b111).to_text())
    art = run_json(capsys, "critical", "--input", str(path))
    assert art["result"] == {"dim": 10, "critical": 2}


def test_instance_search(capsys):
    art = run_json(capsys, "instance", "--pattern", "I1", "--target", "ones:2",
                   "--count")
    assert art["result"]["found"] is True
    assert art["result"]["count"] == "3"
    art2 = run_json(capsys, "instance", "--pattern", "O2", "--target", "ones:2")
    assert art2["result"] == {"found": False, "map": None}
    art3 = run_json(capsys, "instance", "--pattern", "O2", "--target", "ones:2", "--count")
    assert art3["result"] == {"found": False, "map": None, "count": "0"}


def test_density_exact_and_sampled(capsys):
    art = run_json(capsys, "density", "--pattern", "I1", "--input", "ones:2")
    assert art["result"]["density"] == "1/1"
    est = run_json(capsys, "density", "--pattern", "I1", "--input", "ones:2",
                   "--samples", "50", "--seed", "7")
    assert est["result"]["estimate"] == 1.0
    assert est["result"]["samples"] == 50 and est["result"]["seed"] == 7


def test_ramsey_line(capsys):
    art = run_json(capsys, "ramsey", "--d", "1", "--n", "4")
    assert art["result"]["value"] == 1
    assert art["result"]["verified"] is True


def test_ramsey_budget_refusal(capsys):
    code, out, err = run(capsys, "ramsey", "--d", "2", "--n", "5",
                         "--budget", "10")
    assert code == 2
    assert out == ""
    assert "budget refused" in err


def test_instance_count_budget_refusal(capsys):
    # the count walks count_linear_injections(2, 5) = 930 prefixes
    argv = ("instance", "--pattern", "zeros:3", "--target", "zeros:5", "--count")
    code, out, err = run(capsys, *argv, "--budget", "929")
    assert code == 2 and out == ""
    assert "budget refused" in err and "930" in err and "929" in err
    assert "Traceback" not in err
    assert run_json(capsys, *argv, "--budget", "930")["result"]["count"] == str(31 * 30 * 28)


def test_density_budget_refusal(capsys):
    # the count walks count_linear_injections(1, 4) = 15 prefixes
    argv = ("density", "--pattern", "O2", "--input", "zeros:4")
    code, out, err = run(capsys, *argv, "--budget", "14")
    assert code == 2 and out == ""
    assert "budget refused" in err and "15" in err and "14" in err
    assert "Traceback" not in err
    assert run_json(capsys, *argv, "--budget", "15")["result"]["density"] == "1/1"


def test_pack_profiles(capsys):
    art = run_json(capsys, "pack", "--n", "6", "--d", "0", "--k", "5")
    res = art["result"]
    assert res["member_dim"] == 1
    assert res["guarantee"] == 16
    assert res["m"] >= 16
    assert len(res["subspaces"]) == res["m"]
    flat = run_json(capsys, "pack", "--n", "4", "--d", "2", "--k", "4")
    assert flat["result"]["m"] == 1 and flat["result"]["guarantee"] == 1


def test_core_membership(capsys, tmp_path):
    path = tmp_path / "point.mat"
    path.write_text(Matroid.from_values([1]).to_text())
    art = run_json(capsys, "core", "--input", str(path), "--forbid", "O2",
                   "--k", "1")
    assert art["result"]["in_core"] is True
    empty = tmp_path / "empty.mat"
    empty.write_text(Matroid.from_values([0]).to_text())
    art2 = run_json(capsys, "core", "--input", str(empty), "--forbid", "O2",
                    "--k", "1", "--samples", "200", "--seed", "1")
    assert art2["result"]["in_core"] is False


def test_core_membership_engine_sized(capsys):
    # 2^24 extensions, one pinned engine sweep
    art = run_json(capsys, "core", "--input", "zeros:3", "--forbid", "ones3", "--k", "2")
    assert art["result"]["in_core"] is True


def test_core_membership_k0_large_base(capsys):
    # dim 20, k = 0: the one table is searched, not swept
    art = run_json(capsys, "core", "--input", "ones:20", "--forbid", "O2", "--k", "0")
    assert art["result"]["in_core"] is True


def test_exit_code_core_negative_k(capsys):
    code, out, err = run(capsys, "core", "--input", "zeros:3", "--forbid", "ones3", "--k", "-1")
    assert code == 1 and out == ""
    assert "k must be nonnegative" in err


def test_exit_code_core_huge_k(capsys):
    # 2^20001 - 2 free cells: refused without printing a 6021-digit count,
    # which Python's int-to-str limit would turn into a ValueError
    code, out, err = run(capsys, "core", "--input", "zeros:1", "--forbid", "O2", "--k", "20000")
    assert code == 2 and out == ""
    assert "over 2^63 free table bits exceed the exact-count cap of 31" in err


def test_ext_count(capsys, tmp_path):
    path = tmp_path / "pt.mat"
    path.write_text(Matroid.from_values([1]).to_text())
    art = run_json(capsys, "ext-count", "--input", str(path),
                   "--pattern", "ones:2", "--n", "2")
    res = art["result"]
    assert res["count"] == "3" and res["total"] == "4"
    assert res["applicable"] is True
    assert res["epsilon"] == "1/256"
    assert res["bound_holds"] is True


def test_ext_count_under_engine_cap(capsys):
    # 28 free cells: within the counting engine's 31-free-bit cap
    art = run_json(capsys, "ext-count", "--input", "ones:2", "--pattern", "O2",
                   "--n", "5")
    assert art["result"]["count"] == "1053934"
    assert art["result"]["total"] == str(1 << 28)


def test_ext_count_refuses_past_engine_cap(capsys):
    # a dim-5 base in dimension 6 leaves 63 - 31 = 32 free cells
    code, out, err = run(capsys, "ext-count", "--input", "ones:5", "--pattern",
                         "O2", "--n", "6")
    assert code == 2
    assert out == ""
    assert "32 free table bits exceed the exact-count cap of 31" in err


def test_o2_check_row(capsys):
    art = run_json(capsys, "o2-check", "--forbid", "ones3", "--n", "4",
                   "--k", "2")
    row = art["result"]["rows"][0]
    assert row["structured_count"] == "29719"
    assert row["member_count"] == "29887"
    assert row["fraction"] == "29719/29887"
    assert 0.994 < row["fraction_float"] < 0.995


def test_o2_check_sweeps_once_per_row(capsys):
    argv = ("o2-check", "--forbid", "ones3", "--n", "3:4", "--k", "2")
    _, want, _ = run(capsys, *argv)
    # one hyperplane-transfer count per row, one grouped pass over the orbits
    with mock.patch.object(hereditary, "_transfer", wraps=hereditary._transfer) as spy:
        code, out, _ = run(capsys, *argv)
    assert code == 0 and spy.call_count == 2
    assert out == want
    rows = json.loads(out)["result"]["rows"]
    assert [(r["structured_count"], r["member_count"]) for r in rows] == [
        ("127", "127"), ("29719", "29887")]


def test_decomp_probe(capsys, tmp_path):
    path = tmp_path / "g.vals"
    path.write_text("1 0 1 0 1 0 1 0\n")
    art = run_json(capsys, "decomp-probe", "--input", str(path), "--d", "1",
                   "--k", "1")
    res = art["result"]
    assert res["residual"] == pytest.approx(0.0, abs=1e-9)
    assert res["n_parts"] == 2
    assert len(res["polys"]) == 1


def test_decomp_probe_empty_values(capsys, tmp_path):
    path = tmp_path / "empty.vals"
    path.write_text("")
    code, _, err = run(capsys, "decomp-probe", "--input", str(path), "--d", "1", "--k", "1")
    assert code == 1
    assert "table length must be a power of two" in err


def test_decomp_probe_negative_degree(capsys, tmp_path):
    # refused before the residual U_(d+1) budget check, whose recursion
    # never reaches U_1 from d + 1 = 0
    path = tmp_path / "g.vals"
    path.write_text("1/2 0\n")
    code, out, err = run(capsys, "decomp-probe", "--input", str(path), "--d", "-1", "--k", "1")
    assert code == 1 and out == ""
    assert "binmat: error:" in err and "Traceback" not in err


def test_decomp_probe_refuses_values_beyond_float(capsys, tmp_path):
    path = tmp_path / "g.vals"
    path.write_text("1e400 0\n")
    code, out, err = run(capsys, "decomp-probe", "--input", str(path), "--d", "1", "--k", "1")
    assert code == 1 and out == ""
    assert "binmat: error: value 1.000e400 is too large for a float" in err
    assert "Traceback" not in err


def test_decomp_probe_residual_bits(capsys, tmp_path):
    path = tmp_path / "g.vals"
    path.write_text("0/8 8/8 1/8 7/8 4/8 2/8 4/8 6/8\n")
    art = run_json(capsys, "decomp-probe", "--input", str(path), "--d", "1", "--k", "2")
    assert art["result"]["residual"] == 0.10211187115364857


def test_decomp_probe_refuses_a_degree_past_the_kernel_depth(capsys, tmp_path):
    # one value is n = 0, where both Gowers budgets admit any degree, but
    # the exhaustive kernel recurses once per degree: refused, naming the cap
    path = tmp_path / "g.vals"
    path.write_text("1/2\n")
    code, out, err = run(capsys, "decomp-probe", "--input", str(path), "--d", "2000", "--k", "1")
    assert code != 0 and out == ""
    assert "U_2001 exceeds the exhaustive degree cap of 64" in err
    assert "Traceback" not in err
    art = run_json(capsys, "decomp-probe", "--input", str(path), "--d", "63", "--k", "1")
    assert art["result"]["residual"] == 0.0


def test_decomp_probe_overflow_is_quiet(capsys, tmp_path):
    # the products of these values overflow in the residual kernel: the
    # artifact says so, and no numpy RuntimeWarning is raised or printed
    path = tmp_path / "g.vals"
    path.write_text("1e200 -1e200 3 1 0 0 0 1e100\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "decomp-probe", "--input", str(path), "--d", "1", "--k", "2")
    assert code == 0 and "RuntimeWarning" not in err
    assert json.loads(out)["result"]["residual"] == "inf"


def test_structured(capsys, tmp_path):
    path = tmp_path / "f.vals"
    path.write_text("1/3 1/3 1/3 1 1 0 0\n")
    art = run_json(capsys, "structured", "--input", str(path), "--list")
    res = art["result"]
    assert res["count"] == "3"
    assert res["bound_holds"] is True
    assert len(res["tables"]) == 3
    tables = {t["table"] for t in res["tables"]}
    assert tables == {"1001100", "0101100", "0011100"}


def test_csv_output(capsys):
    code, out, err = run(capsys, "census", "--forbid", "O2", "--n", "2:3",
                         "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert "# schema=binmat/1" in comments
    assert '# config.forbid=["O2"]' in comments
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "n,count,entropy"
    assert data[1].startswith("2,7,") and data[2].startswith("3,64,")


@pytest.mark.parametrize("argv, header", [
    (["entropy-table", "--forbid", "O2", "--n", "1:2"],
     "n,count,entropy,entropy_ratio,chi_term,sandwich_ok"),
    (["o2-check", "--forbid", "ones3", "--n", "3", "--k", "2"],
     "n,k,structured_count,member_count,fraction,fraction_float"),
], ids=["entropy-table", "o2-check"])
def test_csv_headers(capsys, argv, header):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert code == 0 and data[0] == header


def test_csv_key_value_fallback(capsys):
    code, out, _ = run(capsys, "chi", "--forbid", "O2", "--format", "csv")
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data[0] == "key,value"
    assert data[1] == "chi,1"


def test_out_file_and_determinism(capsys, tmp_path):
    path = tmp_path / "a.json"
    snapshots = []
    for _ in range(2):
        code, out, err = run(capsys, "census", "--forbid", "O2", "--n", "1:3",
                             "--out", str(path))
        assert code == 0
        assert out == ""  # artifact goes to the file, not stdout
        assert "wall_time_s=" in err  # timing still reported, never in the file
        snapshots.append(path.read_bytes())
    assert snapshots[0] == snapshots[1]
    json.loads(snapshots[0])  # the file is a valid JSON artifact


def test_stdout_determinism(capsys):
    outs = {run(capsys, "o2-check", "--forbid", "ones3", "--n", "4", "--k", "2",
                "--seed", "3")[1] for _ in range(2)}
    assert len(outs) == 1


def test_exit_code_bad_builtin(capsys):
    code, out, err = run(capsys, "census", "--forbid", "nope", "--n", "2")
    assert code == 1 and out == "" and "error" in err


@pytest.mark.parametrize("spec", ["1:2:3", "a:b"])
def test_exit_code_malformed_range(capsys, spec):
    code, out, err = run(capsys, "census", "--forbid", "O2", "--n", spec)
    assert code == 1 and out == ""
    assert f"binmat: error: bad range '{spec}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("ramsey", "--d", "2"), ("pack", "--d", "0", "--k", "1"),
                                  ("ext-count", "--input", "ones:3", "--pattern", "O2")],
                         ids=lambda argv: argv[0])
def test_exit_code_malformed_dimension(capsys, argv):
    code, out, err = run(capsys, *argv, "--n", "x")
    assert code == 1 and out == ""
    assert "binmat: error: bad dimension 'x'" in err
    assert "Traceback" not in err and "invalid literal" not in err


def test_exit_code_dimension_past_table_cap(capsys):
    code, out, err = run(capsys, "instance", "--pattern", "I1", "--target", "ones:40")
    assert code == 1 and out == ""
    assert "binmat: error:" in err and "dimension must be in [0, 20], got 40" in err
    assert "Traceback" not in err


def test_exit_code_pack_negative_dim(capsys):
    code, out, err = run(capsys, "pack", "--n", "8", "--d", "-1", "--k", "4")
    assert code == 1 and out == ""
    assert "need 0 <= dim(U) <= dim(W) <= dim(V)" in err


def test_exit_code_bad_flag(capsys):
    code, out, err = run(capsys, "census", "--n")
    assert code == 1 and out == ""


def test_exit_code_bad_range(capsys):
    code, _, _ = run(capsys, "census", "--n", "3:1")
    assert code == 1
    code2, _, _ = run(capsys, "census", "--n", "x")
    assert code2 == 1


def test_exit_code_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_star_pattern_rejected_where_matroid_needed(capsys, tmp_path):
    path = tmp_path / "p.pat"
    path.write_text("dim=2\n1*0\n")
    code, _, err = run(capsys, "critical", "--input", str(path))
    assert code == 1 and "wildcard" in err


def test_values_file_zero_denominator(capsys, tmp_path):
    path = tmp_path / "f.vals"
    path.write_text("1/2 1/0 0\n")
    for argv in (["structured"], ["decomp-probe", "--d", "1", "--k", "1"]):
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 1 and out == ""
        assert "binmat: error: zero denominator" in err
        assert "Traceback" not in err


def test_missing_values_file(capsys):
    code, _, _ = run(capsys, "structured", "--input", "/nonexistent/f.vals")
    assert code == 1


# the config echo of each command, recorded before the command table
CONFIG_KEYS = {
    "census": ["budget", "forbid", "format", "n", "out", "seed"],
    "entropy-table": ["budget", "forbid", "format", "n", "out", "seed"],
    "chi": ["budget", "forbid", "format", "out", "seed"],
    "critical": ["budget", "format", "input", "out", "seed"],
    "instance": ["budget", "count", "format", "out", "pattern", "seed", "target"],
    "density": ["budget", "format", "input", "out", "pattern", "samples", "seed"],
    "ramsey": ["budget", "d", "format", "n", "out", "seed"],
    "pack": ["budget", "d", "format", "k", "n", "out", "seed"],
    "core": ["budget", "forbid", "format", "input", "k", "out", "samples", "seed"],
    "ext-count": ["budget", "format", "input", "n", "out", "pattern", "seed"],
    "o2-check": ["budget", "forbid", "format", "k", "n", "out", "seed"],
    "decomp-probe": ["budget", "d", "format", "input", "k", "out", "seed"],
    "structured": ["budget", "format", "input", "list", "out", "seed"],
}
REQUIRED = {"n": "1", "k": "1", "d": "1", "input": "x", "pattern": "x", "target": "x"}
DEFAULTS = {"budget": None, "count": False, "forbid": [], "format": "json", "list": False,
            "out": None, "samples": None, "seed": 0}


@pytest.mark.parametrize("command", list(CONFIG_KEYS))
def test_config_echo_keys_and_defaults(command):
    keys = CONFIG_KEYS[command]
    argv = [command] + [a for key in keys if key in REQUIRED for a in (f"--{key}", REQUIRED[key])]
    echo = {k: v for k, v in vars(_build_parser().parse_args(argv)).items() if k != "command"}
    assert sorted(echo) == keys
    assert {k: v for k, v in echo.items() if k not in REQUIRED} == {
        k: DEFAULTS[k] for k in keys if k not in REQUIRED}


def test_cached_parser_matches_fresh_parser(capsys):
    # argparse copies the --forbid default before appending to it, so one cached
    # parser gives every call the echo a freshly built parser gives
    runs = [["census", "--forbid", "O2", "--n", "1"], ["census", "--n", "1"], ["chi", "--forbid", "O2"]]
    assert _build_parser() is _build_parser()
    cached = [run(capsys, *argv)[:2] for argv in runs]
    fresh = []
    for argv in runs:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv)[:2])
    assert cached == fresh
    assert [code for code, _ in cached] == [0, 0, 0]
    assert json.loads(cached[1][1])["config"]["forbid"] == []


def _full_subparser(command):
    subs = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices[command]


@pytest.mark.parametrize("command", list(CONFIG_KEYS))
def test_one_command_parser_matches_full_parser(capsys, command):
    keys = CONFIG_KEYS[command]
    argv = [command] + [a for key in keys if key in REQUIRED for a in (f"--{key}", REQUIRED[key])]
    assert vars(_build_parser(command).parse_args(argv)) == vars(_build_parser().parse_args(argv))
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and out == _full_subparser(command).format_help()


def test_full_parser_for_top_level_help_and_unknown_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert len(CONFIG_KEYS) == 13 and "{" + ",".join(CONFIG_KEYS) + "}" in out
    code, out, err = run(capsys, "nope")
    assert code == 1 and out == ""
    assert "invalid choice" in err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_zero_count_artifacts_are_strict_json(capsys):
    for command in ("census", "entropy-table"):
        code, out, _ = run(capsys, command, "--forbid", "zeros:0", "--n", "0:1")
        assert code == 0
        rows = json.loads(out, parse_constant=_refuse_constant)["result"]["rows"]
        assert [row["count"] for row in rows] == ["0", "0"]
        assert all(row["entropy"] == "-inf" for row in rows)
        assert command == "census" or all(row["entropy_ratio"] == "-inf" for row in rows)
    # the CSV text is as before
    code, out, _ = run(capsys, "entropy-table", "--forbid", "zeros:0", "--n", "0:1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[-2:] == ["0,0,-inf,-inf,0.0,False", "1,0,-inf,-inf,0.0,False"]


def test_exit_code_pattern_orbit_past_cap(capsys, tmp_path):
    # a seeded dim-5 pattern whose GL(5,2)-orbit passes the closure's cap
    rng = random.Random(5)
    path = tmp_path / "asymmetric5.pat"
    path.write_text(Pattern.from_values([rng.choice([0, 1, STAR]) for _ in range(31)]).to_text())
    code, out, err = run(capsys, "census", "--forbid", str(path), "--n", "5")
    assert code == 2 and out == ""
    assert "budget refused" in err and "exceeds the cap of 32768 point sets" in err
