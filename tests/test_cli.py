import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from sepprof import kernels
from sepprof.cli import main
from sepprof.cuts import DEFAULT_CUT_BUDGET, is_cut_set
from sepprof.graphs import read_edgelist
from sepprof.groups import klein_four, write_group_file

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


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


@pytest.mark.parametrize("text,message", [
    ("order 4\ntable\n0 1 2 3\n1 0 3 2\n", "table has 2 rows, order 4"),
    ("order\ntable\n0\nA 0\nB 0\n", "order line needs one number"),
])
def test_family_lamp_malformed_group_file(tmp_path, capsys, text, message):
    """A table shorter than its order, or an order line without a number,
    is a validation error with exit code 2, not a traceback."""
    grp = tmp_path / "bad.grp"
    grp.write_text(text)
    code, out, err = run(["family", "lamp", str(grp), "--out",
                          str(tmp_path / "lamp.g")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_invariant_hp_with_witness(tmp_path, capsys):
    g_path = str(tmp_path / "c4.g")
    run(["family", "cycle", "4", "--out", g_path], capsys)
    wit = str(tmp_path / "wit.csv")
    code, out, _ = run(["invariant", "hp", "--p", "2", "--grad", "modified",
                        g_path, "--witness-out", wit], capsys)
    assert code == 0 and "value 2" in out and "certified exact" in out
    lines = Path(wit).read_text().splitlines()
    assert lines[0] == "vertex,value0" and len(lines) == 5


@pytest.mark.parametrize("header", ["1 0", "0 0"])
def test_invariant_hp_witness_without_function(tmp_path, capsys, header):
    # on fewer than two vertices the estimate has no function witness
    g_path = tmp_path / "tiny.g"
    g_path.write_text(header + "\n")
    wit = tmp_path / "wit.csv"
    code, out, _ = run(["invariant", "hp", "--p", "2", str(g_path),
                        "--witness-out", str(wit)], capsys)
    assert code == 0 and "value 0" in out
    assert wit.read_text() == "vertex\n"


def test_invariant_sep_and_profile(tmp_path, capsys):
    g_path = str(tmp_path / "p10.g")
    run(["family", "path", "10", "--out", g_path], capsys)
    code, out, _ = run(["invariant", "sep", "--nmax", "5", g_path], capsys)
    assert code == 0 and out.splitlines() == [f"sep {n} 1" for n in range(1, 6)]
    code, out, _ = run(["invariant", "profile", "--p", "1", "--nmax", "4",
                        g_path], capsys)
    assert code == 0 and out.splitlines()[1] == "profile 2 4 4"


def test_invariant_profile_at_large_p(tmp_path, capsys):
    """At p = 700 the lower factor 4^-p underflows to 0 and the upper end
    2 h^(1/p) is close to 2 at every ratio; the profile's pre-pass and stop
    compare those floats as they are."""
    g_path = str(tmp_path / "p3.g")
    run(["family", "path", "3", "--out", g_path], capsys)
    code, out, err = run(["invariant", "profile", "--p", "700", "--nmax", "3",
                          g_path], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[2] == "profile 3 4 6.00594420407"


def test_invariant_profile_at_p2(tmp_path, capsys):
    """The p = 2 rows of Q4, whose lower ends come from lambda2."""
    g_path = str(tmp_path / "q4.g")
    run(["family", "hypercube", "4", "--out", g_path], capsys)
    code, out, err = run(["invariant", "profile", "--p", "2", "--nmax", "8",
                          g_path], capsys)
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "profile 1 0 0",
        "profile 2 4 4",
        "profile 3 4 6",
        "profile 4 5.65685424949 11.313708499",
        "profile 5 5.65685424949 11.313708499",
        "profile 6 6 12",
        "profile 7 6.71894508343 16.4579870642",
        "profile 8 9.23760430703 19.5959179423",
    ]


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
    cut_set = [int(v) for v in lines[3].split()[1:]]
    assert lines[0] == f"value {len(cut_set)}" and lines[1] == "certified True"
    G = read_edgelist(g_path)
    assert is_cut_set(G, cut_set, Fraction(s))
    # The examined count is the kernel's, fixed by its contract.
    num, den = Fraction(s).as_integer_ratio()
    _, examined = kernels.min_cut_exact(G.neighbor_masks, G.vertex_count,
                                        num, den, G.vertex_count,
                                        DEFAULT_CUT_BUDGET)
    assert lines[2] == f"examined {examined}"
    code, out, _ = run(["invariant", "cut", "--s", s, "--mode", "heuristic",
                        g_path], capsys)
    assert code == 0 and out.splitlines()[1:3] == ["certified False",
                                                   "examined 0"]


def test_python_m_sepprof_runs_the_cli(tmp_path):
    """``python -m sepprof`` is ``python -m sepprof.cli``: the same output
    and exit code, here for an exact cut."""
    g_path = str(tmp_path / "c8.g")
    assert main(["family", "cycle", "8", "--out", g_path]) == 0
    path = [SRC] + [entry for entry in
                    os.environ.get("PYTHONPATH", "").split(os.pathsep)
                    if entry]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    runs = [subprocess.run([sys.executable, "-m", module, "invariant", "cut",
                            "--s", "1/2", g_path], capture_output=True,
                           text=True, env=env, timeout=60)
            for module in ("sepprof", "sepprof.cli")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.splitlines()[:3] == ["value 2", "certified True",
                                               "examined 12"]


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
    lines = Path(out_path).read_text().splitlines()
    assert lines[0].startswith("# ") and "seed=7" in lines[0]
    assert lines[1] == "check_id,anchor,status,lhs,rhs,tol,ms"
    json_path = str(tmp_path / "report.json")
    code, _, _ = run(["verify", "conditions", "--format", "json", "--out",
                      json_path], capsys)
    assert code == 0
    payload = json.loads(Path(json_path).read_text())
    assert payload["meta"]["seed"] == 7
    assert all(r["status"] == "pass" for r in payload["rows"])


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    paths = [str(tmp_path / f"r{i}.csv") for i in range(2)]
    for p in paths:
        code, _, _ = run(["verify", "cocycles", "--seed", "7", "--out", p],
                         capsys)
        assert code == 0
    assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()


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
    lines = Path(out_path).read_text().splitlines()[2:]
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


@pytest.mark.parametrize("budget", ["-1", str(-2 ** 70)])
def test_verify_rejects_negative_budget(capsys, budget):
    code, out, err = run(["verify", "all", f"--budget={budget}"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --budget must be >= 0\n"
