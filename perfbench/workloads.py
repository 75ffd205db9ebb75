"""The benchmark's workloads: seeded inputs, one timed pass, and the checks.

Each workload stresses a different layer, so that a change shows where it
acts and where it should not:

verify_all
    ``sepprof verify all --seed S`` in-process. This is the end-to-end number
    users wait for and the byte-identity gate. It reaches the kernels through
    many tiny, repeated calls (about 52,000 ``cheeger_exhaustive`` calls from
    ``poincare_profile``, most of them on an input already seen) and does
    heavy L^p optimizer work in the rescaling and cheeger_sandwiches suites.
exact_large
    A few large exhaustive searches on 18-20 vertex graphs: the kernels do
    almost all the work, per-call overhead is negligible and almost no input
    repeats. It is the same layer as in verify_all used the other way, so a
    change that speeds up many small calls but slows large enumerations, or
    a cache, shows the difference here. The optimizer does no work.
lp_estimates
    The L^p optimizer alone: every host has more than 22 vertices, so the
    certified-lower chain never calls a kernel. It isolates the objective
    and subgradient step and the optimizer loops; a kernel change should
    leave it unchanged.

A workload is a list of tasks, each one call into sepprof that the runner
times on its own: ``tasks(inputs)`` gives ``(label, thunk)`` pairs and
``check(inputs, i, result)`` the checked Outcome of task i. A pass runs every
task once. Tasks call sepprof through module attributes
(``cheeger.cheeger_lp``, not a name imported from it) so that the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from sepprof import cheeger, cli, cuts, kernels, spectral
from sepprof.graphs import Graph, build_family, cartesian_power, is_connected

# The one check that stays red on purpose; it turning green is a failure.
EXPECTED_FAILURE = "lamp:homothety-stated-2k"

# Restarts per L^p estimate in lp_estimates. The library default (8) makes
# a pass take about 30 s; 4 keeps every call while keeping a run of each
# workload under a minute on a 2-core machine.
LP_RESTARTS = 4

# Budget for the connected-subset enumeration, as in the former kernel
# microbenchmark; the grid 6x6 instance stays far below it.
SUBSET_BUDGET = 10 ** 7


@dataclass
class Outcome:
    """Checked result of one pass."""
    attempted: int = 0
    failed: int = 0
    # Certified upper bounds the pass produced, for bound_geomean.
    bounds: list = field(default_factory=list)
    # Canonical text of the outputs; its SHA-256 is the pass digest.
    text: str = ""
    problems: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def add(self, other: "Outcome") -> None:
        """Fold another task's outcome into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.bounds += other.bounds
        self.text += other.text
        self.problems += other.problems

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def call(thunk):
    """The thunk's result, or the exception it raised (a failed result)."""
    try:
        return thunk()
    except Exception as exc:  # noqa: BLE001 - counted as a failure
        return exc


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= cheeger.RATIO_REPRO_TOL * max(1.0, abs(b))


def _random_regular(rng, n: int, d: int) -> Graph:
    """Connected d-regular graph: a circulant graph randomised by
    degree-preserving double-edge swaps that keep it connected.

    Fixing the degrees keeps the work (exact-cut search sizes, ball sizes)
    and the bounds steady across seeds, which random graphs of a given edge
    density do not.
    """
    edges = {tuple(sorted((v, (v + j) % n)))
             for v in range(n) for j in range(1, d // 2 + 1)}
    if d % 2:
        edges |= {(v, v + n // 2) for v in range(n // 2)}
    edges = sorted(edges)
    for _ in range(10 * len(edges)):
        i, j = (int(k) for k in rng.choice(len(edges), size=2, replace=False))
        (a, b), (c, e) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        new = [(min(a, c), max(a, c)), (min(b, e), max(b, e))]
        if len({a, b, c, e}) < 4 or new[0] in edges or new[1] in edges:
            continue
        trial = [x for k, x in enumerate(edges) if k not in (i, j)] + new
        if is_connected(Graph(n, trial)):
            edges = sorted(trial)
    return Graph(n, edges)


def _set_text(s) -> str:
    return " ".join(map(str, sorted(s)))


# ---------------------------------------------------------------------------
# verify_all


class VerifyAll:
    name = "verify_all"

    # Report rows whose column holds a certified L^p upper bound.
    BOUND_ROWS = (("cheeger:modified-vs-sup:", ("lhs", "rhs")),
                  ("cheeger:l1-vs-majored:", ("rhs",)),
                  ("rescale:linear-upper:", ("lhs",)))

    @staticmethod
    def build(seed: int):
        return {"seed": seed}

    @staticmethod
    def tasks(inputs):
        return [("verify all", lambda: VerifyAll.verify(inputs["seed"]))]

    @staticmethod
    def verify(seed: int):
        """(exit code, CSV report) of ``sepprof verify all``."""
        out_dir = os.path.dirname(os.path.abspath(__file__))
        with tempfile.TemporaryDirectory(dir=out_dir, prefix=".tmp-") as tmp:
            path = os.path.join(tmp, "report.csv")
            code = cli.main(["verify", "all", "--seed", str(seed),
                             "--out", path])
            with open(path) as fh:
                return code, fh.read()

    @classmethod
    def check(cls, inputs, i, raw) -> Outcome:
        if isinstance(raw, Exception):
            out = Outcome(attempted=1)
            out.fail(f"verify raised {type(raw).__name__}: {raw}")
            return out
        code, text = raw
        out = Outcome(text=text)
        lines = text.splitlines()
        if len(lines) < 2 or lines[1] != "check_id,anchor,status,lhs,rhs,tol,ms":
            out.attempted += 1
            out.fail("report has no CSV header")
            return out
        statuses = {}
        for line in lines[2:]:
            check_id, _, status, lhs, rhs, _, _ = line.split(",")
            statuses[check_id] = status
            out.attempted += 1
            if status == "fail" and check_id != EXPECTED_FAILURE:
                out.fail(f"hard failure {check_id}")
            for prefix, columns in cls.BOUND_ROWS:
                if check_id.startswith(prefix):
                    cols = {"lhs": lhs, "rhs": rhs}
                    out.bounds.extend(float(cols[c]) for c in columns)
        if statuses.get(EXPECTED_FAILURE) != "fail":
            out.fail(f"{EXPECTED_FAILURE} is not red")
        if code != 0 and not out.failed:
            out.fail(f"verify exit code {code}")
        return out


# ---------------------------------------------------------------------------
# exact_large


class ExactLarge:
    name = "exact_large"

    @staticmethod
    def build(seed: int):
        rng = np.random.default_rng(seed)
        sparse = _random_regular(rng, 20, 4)
        dense = _random_regular(rng, 18, 6)
        grid45 = build_family("grid", 4, 5)
        # The random graphs vary with the seed; their exact cuts get only
        # s = 1/2 (directly and inside the halving), because the cost of a
        # smaller-s search grows with a cut size that varies from seed to
        # seed. The fixed instances carry s = 1/3 and 1/4.
        tasks = []
        for label, G in (("sparse20", sparse), ("dense18", dense)):
            tasks += [(label, G, "cheeger", mode)
                      for mode in ("plain", "majored", "edge")]
            tasks.append((label, G, "cut", Fraction(1, 2)))
            tasks.append((label, G, "halving", Fraction(1, 4)))
        # The kernel instances of benchmarks/bench_kernels.py, and cuts.
        c4sq = cartesian_power(build_family("cycle", 4), 2)
        q4 = build_family("hypercube", 4)
        tasks += [
            ("C4sq", c4sq, "cheeger", "plain"),
            ("grid45", grid45, "cheeger", "majored"),
            ("grid45", grid45, "cheeger", "edge"),
            ("grid45", grid45, "halving", Fraction(1, 4)),
            ("grid66", build_family("grid", 6, 6), "subsets", 8),
        ]
        tasks += [(label, G, "cut", Fraction(1, d))
                  for label, G in (("grid45", grid45), ("Q4", q4), ("C4sq", c4sq))
                  for d in (2, 3, 4)]
        return tasks

    @staticmethod
    def tasks(specs):
        def thunk(G, kind, arg):
            if kind == "cheeger":
                return cheeger.cheeger_combinatorial(G, arg)
            if kind == "cut":
                return cuts.cut(G, arg, "exact")
            if kind == "halving":
                return cuts.iterated_halving_cut(G, arg)
            return kernels.connected_subsets(G.neighbor_masks, G.vertex_count,
                                             arg, SUBSET_BUDGET)
        return [(f"{label} {kind} {arg}",
                 lambda G=G, kind=kind, arg=arg: thunk(G, kind, arg))
                for label, G, kind, arg in specs]

    @staticmethod
    def check(specs, i, res) -> Outcome:
        label, G, kind, arg = specs[i]
        out = Outcome(attempted=1)
        what = f"{label} {kind} {arg}"
        if isinstance(res, Exception):
            out.fail(f"{what}: {type(res).__name__}: {res}")
            out.text = f"{what} error\n"
            return out
        if kind == "cheeger":
            ok = (res.exact and res.set_witness
                  and cheeger.set_ratio(G, res.set_witness, arg)
                  == res.value_exact)
            line = f"{what} {res.value_exact} {_set_text(res.set_witness)}"
            out.bounds.append(float(res.value_exact))
        elif kind in ("cut", "halving"):
            ok = (res.size == len(res.cut_set)
                  and cuts.is_cut_set(G, res.cut_set, arg))
            line = f"{what} {res.size} {_set_text(res.cut_set)}"
            out.bounds.append(float(res.size))
        else:
            ok = (len(set(res)) == len(res) > 0
                  and all(0 < m.bit_count() <= arg for m in res))
            line = (f"{what} {len(res)} "
                    + hashlib.sha256(repr(res).encode()).hexdigest())
        if not ok:
            out.fail(f"{what}: recheck failed")
        out.text = line + "\n"
        return out

    @staticmethod
    def backend_mismatches(tasks) -> list:
        """Kernel results that differ between the compiled and the Python
        backend on this workload's inputs; empty when only one is built."""
        backends = kernels.available_backends()
        if len(backends) < 2:
            return []
        calls = []
        for label, G, kind, arg in tasks:
            masks, n = G.neighbor_masks, G.vertex_count
            if kind == "cheeger":
                mode = {"plain": kernels.MODE_PLAIN,
                        "majored": kernels.MODE_MAJORED,
                        "edge": kernels.MODE_EDGE}[arg]
                calls.append((label, kernels.cheeger_exhaustive,
                              (masks, n, mode)))
            elif kind == "cut":
                calls.append((label, kernels.min_cut_exact,
                              (masks, n, arg.numerator, arg.denominator, n,
                               cuts.DEFAULT_CUT_BUDGET)))
            elif kind == "subsets":
                calls.append((label, kernels.connected_subsets,
                              (masks, n, arg, SUBSET_BUDGET)))
        return [f"{label} {fn.__name__}" for label, fn, args in calls
                if len({repr(fn(*args, backend=b)) for b in backends}) > 1]


# ---------------------------------------------------------------------------
# lp_estimates


class LpEstimates:
    name = "lp_estimates"

    @staticmethod
    def build(seed: int):
        rng = np.random.default_rng(seed)
        host = _random_regular(rng, 30, 4)
        return {
            "seed": seed,
            "grid66": build_family("grid", 6, 6),
            "Q5": build_family("hypercube", 5),
            "rand30": host,
            "nu": rng.uniform(0.5, 2.0, host.vertex_count),
        }

    @staticmethod
    def estimates(inputs):
        """(label, call, recheck) for each estimate; recheck(result) gives
        the quotient re-evaluated at the witness."""
        seed, g66 = inputs["seed"], inputs["grid66"]
        out = []
        for a in (1, 2):
            for p, dim in ((1, 1), (2, 1), (3, 1), (2, 2)):
                out.append((
                    f"grid66 sup_scale a={a} p={p} dim={dim}",
                    lambda a=a, p=p, dim=dim: cheeger.cheeger_lp(
                        g66, p, scale_a=a, target_dim=dim,
                        restarts=LP_RESTARTS, seed=seed),
                    lambda w, a=a, p=p: cheeger.lp_cheeger_ratio(
                        g66, w.function_witness, p, "sup_scale", a)))
        q5 = inputs["Q5"]
        out.append((
            "Q5 modified p=1.5",
            lambda: cheeger.cheeger_lp(q5, 1.5, gradient="modified",
                                       restarts=LP_RESTARTS, seed=seed),
            lambda w: cheeger.lp_cheeger_ratio(q5, w.function_witness, 1.5,
                                               "modified")))
        for a, p in ((1, 1), (2, 2)):
            out.append((
                f"rand30 scale a={a} p={p}",
                lambda a=a, p=p: cheeger.scale_poincare_constant(
                    cheeger.WeightedMetricGraph(inputs["rand30"], inputs["nu"]),
                    a, p, restarts=LP_RESTARTS, seed=seed),
                lambda w, a=a, p=p: cheeger.scale_ratio(
                    cheeger.WeightedMetricGraph(inputs["rand30"], inputs["nu"]),
                    w.function_witness, p, a)))
        out.append((
            "grid66 lambda_infinity_upper",
            lambda: spectral.lambda_infinity_upper(
                g66, restarts=LP_RESTARTS, seed=seed),
            lambda r: spectral.lambda_infinity_ratio(g66, r[1])))
        return out

    @classmethod
    def tasks(cls, inputs):
        return [(label, thunk) for label, thunk, _ in cls.estimates(inputs)]

    @classmethod
    def check(cls, inputs, i, res) -> Outcome:
        label, _, recheck = cls.estimates(inputs)[i]
        out = Outcome(attempted=1)
        if isinstance(res, Exception):
            out.fail(f"{label}: {type(res).__name__}: {res}")
            out.text = f"{label} error\n"
            return out
        if isinstance(res, tuple):  # lambda_infinity_upper
            value, witness = res
            lower = None
        else:
            value, witness = res.value, res.function_witness
            lower = res.certified_lower
        ok = (math.isfinite(value) and value > 0
              and _close(recheck(res), value)
              and (lower is None or lower <= value))
        if not ok:
            out.fail(f"{label}: recheck failed")
        out.bounds.append(value)
        out.text = f"{label} {value!r} " + hashlib.sha256(
            np.ascontiguousarray(witness, dtype=float).tobytes()).hexdigest() \
            + "\n"
        return out


WORKLOADS = {w.name: w for w in (VerifyAll, ExactLarge, LpEstimates)}
