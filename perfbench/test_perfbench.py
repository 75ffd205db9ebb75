"""Tests of the benchmark itself: python3 -m pytest perfbench

The traced-versus-untraced test runs each workload twice (verify_all takes a
few minutes on the pure-Python kernels).
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from sepprof import cheeger, cli, cuts, graphs, profiles, spectral, verify  # noqa: E402


def test_declared_metrics_match_the_ones_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [m["name"] for m in bench["per_layer"]]
    assert declared == list(run.layer_metrics(spans.Tracer(), 0.0))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert run.SUITES == tuple(verify.SUITES)


def test_tracer_rebinds_names_imported_elsewhere_and_restores_them():
    original = spectral.lambda2
    with spans.Tracer() as tracer:
        wrapped = spectral.lambda2
        assert wrapped is not original
        for module in (cheeger, profiles, verify, cli):
            assert module.lambda2 is wrapped
        # cuts imported fiedler_vector, which calls lambda2 in spectral.
        cuts.cut(graphs.build_family("cycle", 8), Fraction(1, 2), "heuristic")
        assert tracer.get("spectral.lambda2").calls > 0
        assert tracer.get("cuts.cut").calls == 1
    for module in (spectral, cheeger, profiles, verify, cli):
        assert module.lambda2 is original
    assert all(not hasattr(fn, "__wrapped__") for fn in verify.SUITES.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_gives_the_untraced_outputs(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(3)

    def one_pass():
        out = workloads.Outcome()
        for i, (_, thunk) in enumerate(workload.tasks(inputs)):
            out.add(workload.check(inputs, i, workloads.call(thunk)))
        return out

    plain = one_pass()
    with spans.Tracer() as tracer:
        traced = one_pass()
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    assert plain.attempted == traced.attempted > 0
    assert plain.digest == traced.digest
    metrics = run.layer_metrics(tracer, 0.0)
    if name == "lp_estimates":
        assert all(metrics[f"kernels.{k}.calls"]["value"] == 0
                   for k in run.KERNELS)
    if name == "exact_large":
        assert metrics["optimize.iterations"]["value"] == 0
    if name == "verify_all":
        assert all(metrics[f"verify.{s}.busy_s"]["value"] > 0
                   for s in run.SUITES)
        assert metrics["optimize.iterations"]["value"] > 0
        assert metrics["kernels.cheeger_exhaustive.repeat_ratio"]["value"] > 0


def test_nominal_clock_times_across_interruptions_and_restores_sigalrm():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    previous = signal.getsignal(signal.SIGALRM)
    clock = speed.NominalClock()
    started = time.perf_counter()
    result, wall, nominal = clock.time(lambda: busy(3 * speed.INTERVAL_S))
    elapsed = time.perf_counter() - started
    assert result == "done"
    # The reference runs at the interruptions are left out of the wall time.
    assert 2 * speed.INTERVAL_S < wall < elapsed
    assert nominal > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_checks_count_wrong_results_as_failed():
    cycle = graphs.build_family("cycle", 8)
    specs = [("C8", cycle, "cut", Fraction(1, 2)),
             ("C8", cycle, "cheeger", "plain")]
    exact = workloads.ExactLarge
    good = [thunk() for _, thunk in exact.tasks(specs)]
    assert [exact.check(specs, i, r).failed for i, r in enumerate(good)] \
        == [0, 0]
    bad = [dataclasses.replace(good[0], cut_set=frozenset(), size=0),
           dataclasses.replace(good[1], value_exact=Fraction(1, 8))]
    assert [exact.check(specs, i, r).failed for i, r in enumerate(bad)] \
        == [1, 1]
    assert exact.check(specs, 0, RuntimeError("boom")).failed == 1

    report = ("# meta\ncheck_id,anchor,status,lhs,rhs,tol,ms\n"
              "a,x,pass,1,2,0,\n"
              f"{workloads.EXPECTED_FAILURE},x,pass,1,2,0,\n")
    assert workloads.VerifyAll.check({}, 0, (0, report)).failed == 1
    assert workloads.VerifyAll.check(
        {}, 0, (2, report.replace(",pass,", ",fail,"))).failed == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
