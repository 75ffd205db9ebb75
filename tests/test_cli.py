import json
import warnings
from fractions import Fraction

import pytest

from sepprof import kernels
from sepprof.cli import main
from sepprof.cuts import is_cut_set
from sepprof.graphs import read_edgelist
from sepprof.groups import klein_four, write_group_file


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_and_invariants(tmp_path, capsys):
    g_path = str(tmp_path / "c8.g")
    code, out, _ = run(["family", "cycle", "8", "--out", g_path], capsys)
    assert code == 0 and "8 vertices" in out
    code, out, _ = run(["invariant", "h", g_path], capsys)
    assert code == 0 and "value 0.5" in out and "value_exact 1/2" in out
    code, out, _ = run(["invariant", "lambda2", g_path], capsys)
    assert code == 0 and out.startswith("value 0.585786437627")
    code, out, _ = run(["invariant", "cut", "--s", "1/2", g_path], capsys)
    assert code == 0 and "value 2" in out and "cut_set 0 3" in out


def test_family_power_and_lamp(tmp_path, capsys):
    sq = str(tmp_path / "c4sq.g")
    code, out, _ = run(["family", "power", "cycle", "4", "--k", "2",
                        "--out", sq], capsys)
    assert code == 0 and "16 vertices" in out
    grp = str(tmp_path / "k4.grp")
    write_group_file(klein_four(), grp)
    lamp = str(tmp_path / "lamp.g")
    code, out, _ = run(["family", "lamp", grp, "--k", "2", "--r", "0",
                        "--out", lamp], capsys)
    assert code == 0 and "20 vertices" in out


def test_invariant_hp_with_witness(tmp_path, capsys):
    g_path = str(tmp_path / "c4.g")
    run(["family", "cycle", "4", "--out", g_path], capsys)
    wit = str(tmp_path / "wit.csv")
    code, out, _ = run(["invariant", "hp", "--p", "2", "--grad", "modified",
                        g_path, "--witness-out", wit], capsys)
    assert code == 0 and "value 2" in out and "certified exact" in out
    lines = open(wit).read().splitlines()
    assert lines[0] == "vertex,value0" and len(lines) == 5


def test_invariant_sep_and_profile(tmp_path, capsys):
    g_path = str(tmp_path / "p10.g")
    run(["family", "path", "10", "--out", g_path], capsys)
    code, out, _ = run(["invariant", "sep", "--nmax", "5", g_path], capsys)
    assert code == 0 and out.splitlines() == [f"sep {n} 1" for n in range(1, 6)]
    code, out, _ = run(["invariant", "profile", "--p", "1", "--nmax", "4",
                        g_path], capsys)
    assert code == 0 and out.splitlines()[1] == "profile 2 4 4"


def test_validation_error_exit_code(tmp_path, capsys):
    code, _, err = run(["family", "cycle", "0", "--out",
                        str(tmp_path / "x.g")], capsys)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_invariant_cut_fraction_edge_cases(tmp_path, capsys, monkeypatch,
                                           compiled_kernels, backend):
    if backend == "compiled" and compiled_kernels is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(kernels, "_compiled",
                        compiled_kernels if backend == "compiled" else None)
    g_path = str(tmp_path / "g34.g")
    run(["family", "grid", "3", "4", "--out", g_path], capsys)
    code, out, err = run(["invariant", "cut", "--s", "1/0", g_path], capsys)
    assert code == 2 and err.startswith("error:") and out == ""
    s = "0.3333333333333333333333"
    code, out, _ = run(["invariant", "cut", "--s", s, g_path], capsys)
    assert code == 0
    lines = out.splitlines()
    cut_set = [int(v) for v in lines[2].split()[1:]]
    assert lines[0] == f"value {len(cut_set)}" and lines[1] == "certified True"
    assert is_cut_set(read_edgelist(g_path), cut_set, Fraction(s))


def test_budget_exit_code(tmp_path, capsys):
    g_path = str(tmp_path / "grid.g")
    run(["family", "grid", "4", "4", "--out", g_path], capsys)
    code, _, err = run(["verify", "coarsening", "--budget", "5"], capsys)
    assert code == 3 and "budget exceeded" in err


def test_verify_csv_and_json(tmp_path, capsys):
    out_path = str(tmp_path / "report.csv")
    code, _, err = run(["verify", "conditions", "--seed", "7", "--out",
                        out_path], capsys)
    assert code == 0
    lines = open(out_path).read().splitlines()
    assert lines[0].startswith("# ") and "seed=7" in lines[0]
    assert lines[1] == "check_id,anchor,status,lhs,rhs,tol,ms"
    json_path = str(tmp_path / "report.json")
    code, _, _ = run(["verify", "conditions", "--format", "json", "--out",
                      json_path], capsys)
    assert code == 0
    payload = json.loads(open(json_path).read())
    assert payload["meta"]["seed"] == 7
    assert all(r["status"] == "pass" for r in payload["rows"])


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    paths = [str(tmp_path / f"r{i}.csv") for i in range(2)]
    for p in paths:
        code, _, _ = run(["verify", "cocycles", "--seed", "7", "--out", p],
                         capsys)
        assert code == 0
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_invariant_oversize_exact_is_validation_error(tmp_path, capsys):
    g_path = str(tmp_path / "c4cube.g")
    run(["family", "power", "cycle", "4", "--k", "3", "--out", g_path], capsys)
    code, _, err = run(["invariant", "h", g_path], capsys)
    assert code == 2 and "infeasible" in err
    code, out, _ = run(["invariant", "h", "--mode", "heuristic", g_path],
                       capsys)
    assert code == 0 and "certified False" in out


def test_invariant_profile_beyond_exact_limit_is_validation_error(
        tmp_path, capsys):
    g_path = str(tmp_path / "p30.g")
    run(["family", "path", "30", "--out", g_path], capsys)
    code, _, err = run(["invariant", "profile", g_path, "--nmax", "30"],
                       capsys)
    assert code == 2 and err.startswith("error:") and "infeasible" in err


def test_verify_timings_flag_fills_ms(tmp_path, capsys):
    out_path = str(tmp_path / "t.csv")
    code, _, _ = run(["verify", "conditions", "--timings", "--out", out_path],
                     capsys)
    assert code == 0
    lines = open(out_path).read().splitlines()[2:]
    assert all(not line.endswith(",") for line in lines)


def test_verify_expected_failure_does_not_flip_exit(capsys):
    code, out, err = run(["verify", "lamp_embedding", "--seed", "7"], capsys)
    assert code == 0
    assert "expected-fail" in err
    assert "lamp:homothety-stated-2k,lamp-homothety,fail" in out


@pytest.mark.parametrize("which", ["hp", "profile"])
@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "0.5"])
def test_invariant_rejects_exponent_outside_one_to_inf(tmp_path, capsys,
                                                       which, p):
    g_path = str(tmp_path / "c6.g")
    run(["family", "cycle", "6", "--out", g_path], capsys)
    code, out, err = run(["invariant", which, f"--p={p}", g_path], capsys)
    assert code == 2 and out == ""
    assert err == "error: p must be a finite number >= 1\n"


@pytest.mark.parametrize("which,nmax", [("profile", "0"), ("sep", "-1"),
                                        ("sep", "0")])
def test_invariant_rejects_nmax_below_one(tmp_path, capsys, which, nmax):
    g_path = str(tmp_path / "c6.g")
    run(["family", "cycle", "6", "--out", g_path], capsys)
    code, out, err = run(["invariant", which, "--nmax", nmax, g_path], capsys)
    assert code == 2 and out == "" and err.startswith("error: n_max")


@pytest.mark.parametrize("grad", ["sup_scale", "modified"])
def test_invariant_hp_when_no_start_survives_projection(tmp_path, capsys,
                                                        grad):
    """At p = 1e308 the p-norm of every start underflows to 0 or overflows
    to inf, so no start lies on the unit sphere: a plain validation error,
    with no numpy warning."""
    g_path = str(tmp_path / "grid33.g")
    run(["family", "grid", "3", "3", "--out", g_path], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["invariant", "hp", "--p", "1e308", "--grad",
                              grad, g_path], capsys)
    assert code == 2 and out == ""
    assert err == "error: no start survived projection onto the unit sphere\n"


def test_invariant_hp_at_large_p_moves_every_start(tmp_path, capsys):
    """At p = 700 some subgradients have a squared norm that overflows; they
    are rescaled, so no numpy warning reaches stderr, and with every start
    moving the estimate falls below the 1.0042 of the stuck starts."""
    g_path = str(tmp_path / "grid33.g")
    run(["family", "grid", "3", "3", "--out", g_path], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["invariant", "hp", "--p", "700", g_path],
                             capsys)
    assert code == 0 and err == "" and out.startswith("value ")
    assert float(out.split()[1]) < 1.0


def test_invariant_hp_when_every_objective_overflows(tmp_path, capsys):
    """At p = 2000 every objective overflows: a plain validation error, with
    no numpy warning."""
    g_path = str(tmp_path / "grid33.g")
    run(["family", "grid", "3", "3", "--out", g_path], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["invariant", "hp", "--p", "2000", g_path],
                             capsys)
    assert code == 2 and out == ""
    assert err == "error: no start reached a finite objective\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-9"])
def test_verify_rejects_tolerance_outside_zero_to_inf(capsys, tol):
    code, out, err = run(["verify", "conditions", f"--tol={tol}"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --tol must be a finite number >= 0\n"


@pytest.mark.parametrize("which", ["hp", "lambda_inf", "h"])
def test_invariant_rejects_negative_restarts(tmp_path, capsys, which):
    g_path = str(tmp_path / "c6.g")
    run(["family", "cycle", "6", "--out", g_path], capsys)
    code, out, err = run(["invariant", which, "--restarts", "-5", g_path],
                         capsys)
    assert code == 2 and out == ""
    assert err == "error: --restarts must be >= 0\n"
