"""Layered benchmark of sepprof: end-to-end metrics and traced per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload verify_all --seed 7 --seconds 20 --trace 0

It builds the workload's inputs from the seed, runs the workload's tasks in
turn until ``--seconds`` have gone by (at least one whole pass), checks every
output, and prints as its last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it, starting with
``record``, carries the run metadata and the SHA-256 of the pass outputs.
The tasks run in this process on one thread (BLAS threads are set to 1);
only the set-up samples run in fresh processes. The sources are imported from
``src/`` of the checkout, never from an installed copy, and the command exits
with code 2 where they are missing. The workloads, and why they were chosen,
are described in ``workloads.py``.

End-to-end metrics (``--trace 0``):

    wall_s         time of one pass: the sum over its tasks of the median
                   time of each task's runs, in nominal seconds, that is
                   wall time scaled to a host of fixed speed (``speed.py``);
                   the raw wall times are in the record
    setup_s        median, over separate processes, of the time to import
                   sepprof and build the seeded inputs, in nominal seconds
    peak_rss_mb    peak resident memory of this process by the end of the
                   first pass, so that work moved into a cache shows
    bound_geomean  geometric mean of the certified upper bounds a pass
                   returns (lower is better): the L^p constants on
                   lp_estimates, the L^p estimates in the report on
                   verify_all, the exact Cheeger values and cut sizes on
                   exact_large. A faster optimizer must not buy its speed
                   with looser bounds.

A result counts as failed (``failed`` of ``attempted``, printed as
``fail_ratio``) on an exception or BudgetError, a verify exit code other
than 0, a hard-failure row, ``lamp:homothety-stated-2k`` turning green, or a
failed recheck of a certificate: exact Cheeger values against ``set_ratio``
of their witness, cuts against ``is_cut_set``, and L^p values re-evaluated
at their witness to ``RATIO_REPRO_TOL``. Every run of a task, traced or
not, must give the output of its first run, and when both kernel backends
are built their results must agree on the exact_large inputs (outside the
timed runs).

Per-layer metrics (``--trace 1``) come from one traced pass after the
untraced runs; names are ``<module>.<function>.<counter>``. "busy" is wall
time inside the call, "self" busy time minus child spans. Which end-to-end
metric each should move, and where:

    kernels.*.{calls,busy_s,work,repeat_ratio}
        work is subsets examined (the output length for connected_subsets;
        for cheeger_exhaustive the computed sum of C(n,k), k <= n/2), and
        repeat_ratio the share of calls on an input already seen in the
        pass. They should move wall_s on exact_large and verify_all, not on
        lp_estimates. A memo cache moves repeat_ratio and wall_s on
        verify_all only; watch peak_rss_mb there.
    optimize.minimize_quotient.{calls,busy_s,self_s,starts},
    optimize.iterations (subgradient calls), optimize.step_us (objective
    plus subgradient time per iteration), and calls and busy_s of the four
    gradient functions
        should move wall_s on lp_estimates and verify_all, with no change on
        exact_large and no change in bound_geomean.
    spectral.lambda2.{calls,busy_s,repeat_ratio}
        the repeat ratio is high on verify_all, where a cache would act.
    spectral.lambda_infinity_upper.busy_s
        its private copy of the optimizer loop; moves wall_s on lp_estimates.
    cheeger.*, cuts.*, profiles.* {calls,busy_s,self_s}, cheeger.balls.busy_s,
    graphs.{induced_subgraph,distance_matrix}.busy_s
        the estimators and their helpers; self time is the estimator's own
        overhead around the kernels and the optimizer.
    verify.<suite>.busy_s, cli.main.self_s
        verify_all only; taken by wrapping the SUITES entries, because
        --timings spreads a suite's time evenly over its rows.
    trace.overhead_s
        traced pass time minus the untraced wall_s, in nominal seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

KERNELS = ("cheeger_exhaustive", "min_cut_exact", "connected_subsets")
GRADIENTS = ("sup_gradient_rows", "sup_gradient_subgrad",
             "modified_gradient_pow", "modified_gradient_subgrad")
ESTIMATORS = ("cheeger.cheeger_combinatorial", "cheeger.cheeger_lp",
              "cheeger.scale_poincare_constant", "cuts.cut",
              "cuts.iterated_halving_cut", "profiles.separation_profile_exact",
              "profiles.poincare_profile")
SUITES = ("cheeger_sandwiches", "cartesian_powers", "cuts_profiles",
          "coarsening", "rescaling", "lamp_embedding", "cocycles",
          "compression_bound", "conditions")


def layer_metrics(tracer, overhead_s: float) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for fn in KERNELS:
        s = tracer.get(f"kernels.{fn}")
        put(f"kernels.{fn}.calls", s.calls, "count")
        put(f"kernels.{fn}.busy_s", s.busy_s, "s")
        put(f"kernels.{fn}.work", s.work, "count")
        put(f"kernels.{fn}.repeat_ratio", s.repeat_ratio(), "ratio")
    loop = tracer.get("optimize.minimize_quotient")
    put("optimize.minimize_quotient.calls", loop.calls, "count")
    put("optimize.minimize_quotient.busy_s", loop.busy_s, "s")
    put("optimize.minimize_quotient.self_s", loop.self_s, "s")
    put("optimize.minimize_quotient.starts", loop.starts, "count")
    objective = tracer.get("optimize.objective")
    subgrad = tracer.get("optimize.subgradient")
    put("optimize.iterations", subgrad.calls, "count")
    step = (objective.busy_s + subgrad.busy_s) / subgrad.calls \
        if subgrad.calls else 0.0
    put("optimize.step_us", step * 1e6, "us")
    for fn in GRADIENTS:
        s = tracer.get(f"optimize.{fn}")
        put(f"optimize.{fn}.calls", s.calls, "count")
        put(f"optimize.{fn}.busy_s", s.busy_s, "s")
    s = tracer.get("spectral.lambda2")
    put("spectral.lambda2.calls", s.calls, "count")
    put("spectral.lambda2.busy_s", s.busy_s, "s")
    put("spectral.lambda2.repeat_ratio", s.repeat_ratio(), "ratio")
    put("spectral.lambda_infinity_upper.busy_s",
        tracer.get("spectral.lambda_infinity_upper").busy_s, "s")
    for name in ESTIMATORS:
        s = tracer.get(name)
        put(f"{name}.calls", s.calls, "count")
        put(f"{name}.busy_s", s.busy_s, "s")
        put(f"{name}.self_s", s.self_s, "s")
    for name in ("cheeger.balls", "graphs.induced_subgraph",
                 "graphs.distance_matrix"):
        put(f"{name}.busy_s", tracer.get(name).busy_s, "s")
    for suite in SUITES:
        put(f"verify.{suite}.busy_s", tracer.get(f"verify.{suite}").busy_s, "s")
    put("cli.main.self_s", tracer.get("cli.main").self_s, "s")
    put("trace.overhead_s", overhead_s, "s")
    return out


def git_revision() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def setup_sample(args) -> float:
    """One set-up (import and input build) timed in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=15, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_all", "exact_large", "lp_estimates"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "sepprof", "__init__.py")):
        print(f"perfbench: no sepprof sources under {SRC}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, SRC)
    import numpy
    import sepprof
    import spans
    import speed
    import workloads
    from sepprof import kernels

    if os.path.dirname(os.path.abspath(sepprof.__file__)) != \
            os.path.join(SRC, "sepprof"):
        print(f"perfbench: imported sepprof from {sepprof.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    if args.setup_only:
        setup_wall = time.perf_counter() - start
        print(json.dumps({"setup_s": setup_wall * speed.host_factor(),
                          "setup_wall_s": setup_wall}))
        return 0

    setup = [] if args.trace else [setup_sample(args)
                                   for _ in range(SETUP_SAMPLES)]
    tasks = workload.tasks(inputs)
    clock = speed.NominalClock()
    walls = [[] for _ in tasks]
    nominals = [[] for _ in tasks]
    first = [None] * len(tasks)
    total = workloads.Outcome()

    def run_task(i, clock):
        _, thunk = tasks[i]
        res, wall, nominal = clock.time(lambda: workloads.call(thunk))
        outcome = workload.check(inputs, i, res)
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        total.problems += outcome.problems
        if first[i] is None:
            first[i] = outcome
        elif outcome.text != first[i].text:
            total.problems.append(f"task {tasks[i][0]!r} gave different "
                                  "outputs on a repeat or under tracing")
        return wall, nominal

    # The tasks run in turn until --seconds have gone by, after at least
    # one whole pass; each task's time is the median of its runs, in
    # nominal seconds (see speed.py), and a pass's is the sum of those
    # medians.
    began = time.perf_counter()
    k = 0
    while k < len(tasks) or time.perf_counter() - began < args.seconds:
        wall, nominal = run_task(k % len(tasks), clock)
        walls[k % len(tasks)].append(wall)
        nominals[k % len(tasks)].append(nominal)
        k += 1
        if k == len(tasks):
            # Taken after one whole pass: each further run of a task adds
            # allocator fragmentation, and how many fit in the run depends
            # on the host's speed.
            peak_rss = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = sum(statistics.median(t) for t in nominals)
    raw_wall = sum(statistics.median(t) for t in walls)

    if args.trace:
        traced_clock = speed.NominalClock(interval_s=None)
        with spans.Tracer() as tracer:
            traced = sum(run_task(i, traced_clock)[1]
                         for i in range(len(tasks)))
        metrics = layer_metrics(tracer, traced - wall)
    out = workloads.Outcome()
    for o in first:
        out.add(o)
    problems = total.problems
    mismatches = getattr(workload, "backend_mismatches",
                         lambda _: [])(inputs)
    problems += [f"backend mismatch: {m}" for m in mismatches]

    bounds = out.bounds
    if not bounds or min(bounds) <= 0:
        problems.append("no positive certified bounds to summarise")
        geomean = 0.0
    else:
        geomean = math.exp(sum(math.log(b) for b in bounds) / len(bounds))
    attempted, failed = total.attempted, total.failed
    if not args.trace:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "bound_geomean": {"value": geomean, "unit": "1"},
        }

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "raw_wall_s": raw_wall,
        "task_wall_s": {label: t for (label, _), t in zip(tasks, walls)},
        "task_nominal_s": {label: t
                           for (label, _), t in zip(tasks, nominals)},
        "setup_samples_s": setup, "digest": out.digest,
        "fail_ratio": failed / max(attempted, 1),
        "backend": kernels.backend_name(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_revision": git_revision(), "problems": problems,
    }
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':45s} {record['fail_ratio']:.6g} "
          f"({failed}/{attempted})")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
