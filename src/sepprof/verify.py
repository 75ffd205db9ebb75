"""Machine verification suites.

Each suite runs a family of inequality checks at a fixed root seed and
returns rows (check id, statement anchor, status, lhs, rhs, tolerance).
Estimator-level comparisons carry the context tolerance; exact comparisons
carry 0. Diagnostic rows that are reported but never asserted use status
"skip". Everything is deterministic for a fixed seed; wall times are only
attached when requested, so default reports are byte-identical across runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import __version__
from .bounds import (CompressionTable, MonotoneTable, ScaleFunction,
                     SphereTable, check_condition, compression_function,
                     poincare_upper_bound, rearrange, rearrange_steps,
                     rho_delta)
from .cheeger import (WeightedMetricGraph, cheeger_combinatorial,
                      cheeger_lp, p_variance, scale_poincare_constants,
                      scale_ratio)
from .constructions import (LampGraphSpec, b_rescaling, coarsen,
                            distorted_lamp_graph, maximal_b_separated,
                            scale_b_partition)
from .cuts import cut, iterated_halving_cut
from .diagonal import (DiagonalSpec, apply_generator, ball, cocycle_norms,
                       embed_lamp_graph, range_of, range_set)
from .graphs import (Graph, bfs_distances, build_family, cartesian_power,
                     connected_components, distance_matrix, subdivide)
from .groups import cayley_graph, klein_four
from .kernels import backend_name
from .profiles import (DEFAULT_SUBGRAPH_BUDGET, poincare_profile,
                       separation_profile_exact)
from .spectral import lambda2, lambda_infinity_upper

# Frozen regression bracket for the subdivided-K4 ratio (first-run values
# 0.978..1.000 for kappa = 1..5, deterministic via the exact gap route).
SUBDIV_RATIO_BRACKET = (0.97, 1.01)


@dataclass
class CheckRow:
    check_id: str
    anchor: str
    status: str
    lhs: str
    rhs: str
    tol: float
    ms: Optional[float] = None
    # perf_counter() at creation; run_suites turns it into per-check ms.
    created: float = field(default_factory=time.perf_counter, compare=False,
                           repr=False)


@dataclass
class VerifyContext:
    seed: int = 7
    tol: float = 0.05
    budget: int = DEFAULT_SUBGRAPH_BUDGET


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.12g}"
    return str(x)


def _row(check_id, anchor, ok, lhs, rhs, tol=0.0) -> CheckRow:
    status = "skip" if ok is None else ("pass" if ok else "fail")
    return CheckRow(check_id=check_id, anchor=anchor, status=status,
                    lhs=_fmt(lhs), rhs=_fmt(rhs), tol=tol)


def _dominated_row(check_id, anchor, n, lhs, rhs) -> CheckRow:
    """Row for lhs(m) <= rhs(m) + 1e-12 at every m in 2..n, reported at the
    m that minimises rhs(m) - lhs(m)."""
    worst = min(range(2, n + 1), key=lambda m: rhs(m) - lhs(m))
    return _row(check_id, anchor,
                all(lhs(m) <= rhs(m) + 1e-12 for m in range(2, n + 1)),
                lhs(worst), rhs(worst))


def _regular_small_graphs():
    graphs = [(f"K{n}", build_family("complete", n)) for n in range(2, 7)]
    graphs += [(f"C{n}", build_family("cycle", n)) for n in range(4, 13)]
    graphs.append(("Q3", build_family("hypercube", 3)))
    graphs.append(("K3sq", cartesian_power(build_family("complete", 3), 2)))
    return graphs


def _random_graph(n: int, p: float, rng) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Suites


def suite_cheeger_sandwiches(ctx: VerifyContext):
    rows = []
    for name, G in _regular_small_graphs():
        h = cheeger_combinatorial(G).value_exact
        lam = lambda2(G).lambda2
        D = G.max_degree()
        rows.append(_row(
            f"cheeger:ineq-lower:{name}", "cheeger-inequalities",
            float(h) ** 2 / (2 * D) <= lam + 1e-9,
            float(h) ** 2 / (2 * D), lam, 1e-9))
        rows.append(_row(
            f"cheeger:ineq-upper:{name}", "cheeger-inequalities",
            lam <= 2 * D * float(h) + 1e-9, lam, 2 * D * float(h), 1e-9))
    rng = np.random.default_rng(ctx.seed)
    for i in range(4):
        G = _random_graph(10, 0.35, rng)
        h = cheeger_combinatorial(G).value_exact
        maj = cheeger_combinatorial(G, "majored").value_exact
        D = G.max_degree()
        rows.append(_row(
            f"cheeger:majored-sandwich:rand{i}", "plain-vs-majored-sandwich",
            h <= maj <= (D + 1) * h, maj, (D + 1) * h))
    for name, G in (("C8", build_family("cycle", 8)),
                    ("grid34", build_family("grid", 3, 4))):
        maj = float(cheeger_combinatorial(G, "majored").value_exact)
        h1 = cheeger_lp(G, 1, seed=ctx.seed)
        rows.append(_row(
            f"cheeger:l1-vs-majored:{name}", "l1-vs-majored-sandwich",
            maj <= 2 * h1.value + 1e-12 and h1.certified_lower <= h1.value,
            maj, 2 * h1.value))
        for p in (1.5, 2.0, 3.0):
            hp = cheeger_lp(G, p, seed=ctx.seed)
            rows.append(_row(
                f"cheeger:hp-power-chain:{name}:p{p}", "lp-vs-l1-power-bound",
                hp.certified_lower ** p <= 2 ** p * h1.value + 1e-12,
                hp.certified_lower ** p, 2 ** p * h1.value))
            hpm = cheeger_lp(G, p, gradient="modified", seed=ctx.seed)
            D = G.max_degree()
            rows.append(_row(
                f"cheeger:modified-vs-sup:{name}:p{p}", "modified-gradient-sandwich",
                D ** (-1 / p) * hpm.value <= hp.value * (1 + ctx.tol)
                and hp.value <= 2 ** ((p - 1) / p) * hpm.value * (1 + ctx.tol),
                hp.value, hpm.value, ctx.tol))
    c4 = build_family("cycle", 4)
    exact2 = cheeger_lp(c4, 2, gradient="modified")
    vec2 = cheeger_lp(c4, 2, gradient="modified", target_dim=3, seed=ctx.seed)
    rows.append(_row(
        "cheeger:vector-valued:C4:p2", "vector-valued-equality",
        exact2.value - 1e-9 <= vec2.value <= exact2.value * (1 + ctx.tol),
        vec2.value, exact2.value, ctx.tol))
    vec15 = cheeger_lp(c4, 1.5, gradient="modified", target_dim=3, seed=ctx.seed)
    sca15 = cheeger_lp(c4, 1.5, gradient="modified", seed=ctx.seed)
    rows.append(_row(
        "cheeger:vector-valued:C4:p1.5", "vector-valued-equality",
        abs(vec15.value - sca15.value) <= ctx.tol * sca15.value
        and vec15.value >= sca15.certified_lower - 1e-12,
        vec15.value, sca15.value, ctx.tol))
    rng = np.random.default_rng(ctx.seed + 1)
    g34 = build_family("grid", 3, 4)
    for p in (1.0, 2.0, 2.5):
        f = rng.standard_normal(12)
        var = p_variance(f, p)
        dev = float(np.sum(np.abs(f - f.mean()) ** p)) ** (1 / p)
        n = 12
        rows.append(_row(
            f"cheeger:variance-sandwich:p{p}", "p-variance-sandwich",
            n ** (-1 / p) * dev <= var + 1e-12
            and var <= 2 * n ** (-1 / p) * dev + 1e-12,
            var, 2 * n ** (-1 / p) * dev))
    two = Graph(4, [(0, 1), (2, 3)])
    rows.append(_row(
        "cheeger:lambda2-disconnected", "disconnected-zero-gap",
        abs(lambda2(two).lambda2) <= 1e-9, lambda2(two).lambda2, 0.0, 1e-9))
    return rows


def suite_cartesian_powers(ctx: VerifyContext):
    rows = []
    bases = {"K2": build_family("complete", 2),
             "K3": build_family("complete", 3),
             "C4": build_family("cycle", 4),
             "P4": build_family("path", 4)}
    for name, G in bases.items():
        lam = lambda2(G).lambda2
        for k in (1, 2, 3):
            lam_k = lambda2(cartesian_power(G, k)).lambda2
            rows.append(_row(
                f"powers:fiedler:{name}:k{k}", "spectral-gap-power-identity",
                abs(lam_k - lam) <= 1e-9, lam_k, lam, 1e-9))
    for name in ("K3", "C4"):
        G = bases[name]
        h = cheeger_combinatorial(G).value_exact
        he = cheeger_combinatorial(G, "edge").value_exact
        deg = G.max_degree()
        a = float(Fraction(h) ** 2) / (4 * deg * deg)
        b = (2 * math.sqrt(2) + 2) * math.sqrt(deg * float(h))
        a_edge = float(Fraction(he) ** 2) / (4 * deg)
        for k in (1, 2, 3):
            Gk = cartesian_power(G, k)
            if Gk.vertex_count <= 22:
                w = cheeger_combinatorial(Gk)
                h_lo = h_up = float(w.value_exact)
                he_lo = float(cheeger_combinatorial(Gk, "edge").value_exact)
            else:
                lam_k = lambda2(Gk).lambda2
                h_lo = lam_k / (2 * k * deg)
                h_up = float(cheeger_combinatorial(
                    Gk, allow_heuristic=True, seed=ctx.seed,
                    restarts=4).value_exact)
                he_lo = lam_k / 2
            rows.append(_row(
                f"powers:sandwich-lower:{name}:k{k}", "power-cheeger-sandwich",
                a / k <= h_lo + 1e-12, a / k, h_lo))
            rows.append(_row(
                f"powers:sandwich-upper:{name}:k{k}", "power-cheeger-sandwich",
                h_up <= b / math.sqrt(k) + 1e-12, h_up, b / math.sqrt(k)))
            rows.append(_row(
                f"powers:edge-lower:{name}:k{k}", "edge-power-lower-bound",
                a_edge <= he_lo + 1e-12, a_edge, he_lo))
    c4 = bases["C4"]
    v1, _ = lambda_infinity_upper(c4, restarts=8, seed=ctx.seed)
    v2, _ = lambda_infinity_upper(cartesian_power(c4, 2), restarts=8,
                                  seed=ctx.seed)
    rows.append(_row(
        "powers:linf-halving:C4", "vertex-isoperimetric-power-scaling",
        abs(v2 - v1 / 2) <= 0.10 * (v1 / 2), v2, v1 / 2, 0.10))
    for name in ("K2", "C4"):
        G = bases[name]
        vinf, _ = lambda_infinity_upper(G, restarts=4, seed=ctx.seed)
        rows.append(_row(
            f"powers:linf-vs-gap:{name}", "vertex-isoperimetric-vs-gap",
            None, vinf, lambda2(G).lambda2))
    return rows


_PROFILE_HOSTS = (
    ("C8", lambda: build_family("cycle", 8)),
    ("P10", lambda: build_family("path", 10)),
    ("grid34", lambda: build_family("grid", 3, 4)),
)


def suite_cuts_profiles(ctx: VerifyContext):
    rows = []
    instances = [
        ("K4", build_family("complete", 4)),
        ("C8", build_family("cycle", 8)),
        ("C12", build_family("cycle", 12)),
        ("P10", build_family("path", 10)),
        ("grid34", build_family("grid", 3, 4)),
        ("grid44", build_family("grid", 4, 4)),
        ("Q3", build_family("hypercube", 3)),
        ("Q4", build_family("hypercube", 4)),
        ("C4sq", cartesian_power(build_family("cycle", 4), 2)),
        ("lamp", distorted_lamp_graph(LampGraphSpec(klein_four(), 2, 0))),
    ]
    for name, G in instances:
        c = cut(G, Fraction(1, 2), "exact")
        h = cheeger_combinatorial(G).value_exact
        rows.append(_row(
            f"cuts:cut-vs-cheeger:{name}", "half-cut-vs-cheeger",
            Fraction(c.size) >= h * G.vertex_count / 4,
            c.size, float(h * G.vertex_count / 4)))
        heur = cut(G, Fraction(1, 2), "heuristic")
        rows.append(_row(
            f"cuts:heuristic-dominates:{name}", "heuristic-at-least-exact",
            heur.size >= c.size, heur.size, c.size))
    for name, make in _PROFILE_HOSTS:
        G = make()
        n = G.vertex_count
        D = G.max_degree()
        sep = separation_profile_exact(G, n, budget=ctx.budget)
        rows.append(_row(
            f"profiles:sep-monotone:{name}", "profile-monotonicity",
            all(sep.value(i).lower <= sep.value(i + 1).lower
                for i in range(1, n)),
            sep.value(n).lower, sep.value(1).lower))
        for p in (1, 2, 3):
            table = poincare_profile(G, n, p, budget=ctx.budget)
            cpow = min(1 / 96, 4.0 ** -p / 24)
            rows.append(_dominated_row(
                f"profiles:poincare{p}-vs-sep:{name}", "poincare-vs-separation",
                n, lambda m: cpow * sep.value(m).lower,
                lambda m: table.value(m).lower))
            if p == 1:
                rows.append(_dominated_row(
                    f"profiles:sep-eighth:{name}", "separation-vs-poincare1",
                    n, lambda m: sep.value(m).lower / 8,
                    lambda m: table.value(m).lower))
                rows.append(_dominated_row(
                    f"profiles:poincare1-upper:{name}", "separation-vs-poincare1",
                    n, lambda m: table.value(m).lower,
                    lambda m: 4 * (D + 1) * sep.value(m).lower))
    g = build_family("cycle", 12)
    exact = cut(g, Fraction(1, 2), "exact")
    single = iterated_halving_cut(g, Fraction(1, 2))
    rows.append(_row(
        "cuts:halving-single-round:C12", "iterated-halving",
        single.size == exact.size and exact.exact,
        single.size, exact.size))
    for name, base, k in (("K3", build_family("complete", 3), 2),
                          ("C4", build_family("cycle", 4), 2)):
        power = cartesian_power(base, k)
        h = float(cheeger_combinatorial(base).value_exact)
        deg = base.max_degree()
        lower = h * h / (16 * deg * deg) * base.vertex_count ** k / k
        size = cut(power, Fraction(1, 2), "exact").size
        rows.append(_row(
            f"cuts:power-cut-lower:{name}:k{k}", "power-cut-lower-bound",
            size >= lower - 1e-12, size, lower))
    return rows


def suite_coarsening(ctx: VerifyContext):
    rows = []
    g44 = build_family("grid", 4, 4)
    blocks = [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]
    co = coarsen(g44, blocks)
    quotient = co.coarse_graph
    is_c4 = (quotient.vertex_count == 4 and quotient.edge_count == 4
             and all(quotient.degree(v) == 2 for v in range(4))
             and len(connected_components(quotient)) == 1)
    rows.append(_row("coarsen:grid44-quotient-is-c4", "coarsened-quotient",
                     is_c4, quotient.edge_count, 4))
    rows.append(_row("coarsen:grid44-corner-anchoring", "coarsened-quotient",
                     co.anchoring[0] == 3, co.anchoring[0], 3))
    sep = separation_profile_exact(g44, 16, budget=ctx.budget)
    cut_quo = cut(quotient, Fraction(1, 2), "exact").size
    lhs = Fraction(co.min_block, 8 * co.max_block) * cut_quo
    rows.append(_row(
        "coarsen:sep-lower:grid44", "coarsening-separation-lower",
        Fraction(int(sep.value(16).lower)) >= lhs,
        sep.value(16).lower, float(lhs)))
    sep_quo = separation_profile_exact(quotient, 4, budget=ctx.budget)
    rhs = (Fraction(8 * co.max_block, co.min_block) * max(co.anchoring)
           * int(sep_quo.value(4).lower))
    cut_host = cut(g44, Fraction(1, 2), "exact").size
    rows.append(_row(
        "coarsen:cut-upper:grid44", "coarsening-cut-upper",
        Fraction(cut_host) <= rhs, cut_host, float(rhs)))
    trivial = coarsen(g44, [[v] for v in range(16)])
    rows.append(_row(
        "coarsen:trivial-roundtrip:grid44", "coarsened-quotient",
        trivial.coarse_graph.edge_count == g44.edge_count
        and all(a == (1 if g44.degree(v) > 0 else 0)
                for v, a in enumerate(trivial.anchoring)),
        trivial.coarse_graph.edge_count, g44.edge_count))
    for name, G in (("C12", build_family("cycle", 12)),
                    ("P15", build_family("path", 15))):
        sep_g = separation_profile_exact(G, G.vertex_count, budget=ctx.budget)
        sep_val = int(sep_g.value(G.vertex_count).lower)
        for s in (Fraction(1, 2), Fraction(1, 4)):
            result = iterated_halving_cut(G, s)
            bound = Fraction(4, s) * sep_val
            rows.append(_row(
                f"coarsen:halving-bound:{name}:s{s.numerator}-{s.denominator}",
                "iterated-halving",
                result.size <= bound, result.size, float(bound)))
    p15 = build_family("path", 15)
    quarter = iterated_halving_cut(p15, Fraction(1, 4))
    rows.append(_row(
        "coarsen:halving-size:P15", "iterated-halving",
        quarter.size <= 3, quarter.size, 3))
    return rows


def suite_rescaling(ctx: VerifyContext):
    rows = []
    p13 = build_family("path", 13)
    S = maximal_b_separated(p13, 3)
    rows.append(_row(
        "rescale:greedy-path:b3", "separated-set-greedy",
        S == frozenset({0, 3, 6, 9, 12}), sorted(S), [0, 3, 6, 9, 12]))
    resc = b_rescaling(p13, S, 3)
    rows.append(_row(
        "rescale:path-rescaling-is-p5", "rescaled-graph",
        resc.vertex_count == 5 and resc.edge_count == 4
        and all(resc.degree(v) <= 2 for v in range(5)),
        resc.edge_count, 4))
    k4 = build_family("complete", 4)
    sub = subdivide(k4, 3)
    resc_k4 = b_rescaling(sub, range(4), 3)
    rows.append(_row(
        "rescale:subdivided-k4-roundtrip", "rescaled-graph",
        resc_k4.vertex_count == 4 and resc_k4.edge_count == 6,
        resc_k4.edge_count, 6))
    disc = scale_b_partition(p13, S, 3)
    rows.append(_row(
        "rescale:voronoi-blocks:P13", "scale-partition",
        tuple(sorted(len(b) for b in disc.blocks)) == (2, 2, 3, 3, 3)
        and disc.nu_Y == (2.0, 3.0, 3.0, 3.0, 2.0),
        sorted(len(b) for b in disc.blocks), [2, 2, 3, 3, 3]))
    rows.append(_row(
        "rescale:voronoi-outer-radius:P13", "scale-partition",
        all(r <= 2 * 3 for r in disc.outer_radius),
        max(disc.outer_radius), 6))
    host = WeightedMetricGraph(p13)
    spaces = {"P13": host,
              "C8": WeightedMetricGraph(build_family("cycle", 8)),
              "grid34": WeightedMetricGraph(build_family("grid", 3, 4)),
              "Y": _discretization_space(p13, disc)}
    # Every scale the rows below use, per space and p: one estimate each.
    used = {"P13": {1.0: (1, 2, 3, 6, 12, 1.5), 2.0: (1, 2, 3, 6, 12)},
            "C8": {1.0: (1, 2, 3, 1.5), 2.0: (1, 2, 3)},
            "grid34": {1.0: (1, 2, 3), 2.0: (1, 2, 3)},
            "Y": {1.0: (6, 18), 2.0: (6, 18)}}
    h = {(tag, p, a): w
         for tag, Z in spaces.items() for p, scales in used[tag].items()
         for a, w in zip(scales, scale_poincare_constants(
             Z, scales, p, restarts=4, seed=ctx.seed))}
    for tag, scales in (("P13", (1, 2, 3, 6)), ("C8", (1, 2, 3)),
                        ("grid34", (1, 2, 3))):
        for p in (1.0, 2.0):
            worst_val = max(h[tag, p, a].value for a in scales)
            rows.append(_row(
                f"rescale:linear-upper:{tag}:p{p}", "linear-poincare-bound",
                worst_val <= 6.0 + 1e-9, worst_val, 6.0))
    # Discretization transfer at a = 2b, both directions:
    # h_{a,p}(Y) <= 12 h_{2a,p}(Z) and h_{a,p}(Z) <= h_{3a,p}(Y).
    for p in (1.0, 2.0):
        lhs, rhs = h["Y", p, 6].value, h["P13", p, 12].value
        rows.append(_row(
            f"rescale:discretization:P13:p{p}", "discretization-transfer",
            lhs <= 12 * rhs * (1 + ctx.tol), lhs, 12 * rhs, ctx.tol))
        host_side, disc_side = h["P13", p, 6].value, h["Y", p, 18].value
        rows.append(_row(
            f"rescale:discretization-reverse:P13:p{p}",
            "discretization-transfer",
            host_side <= disc_side * (1 + ctx.tol),
            host_side, disc_side, ctx.tol))
    # Scale comparison with a = 3: nu_min(1/2)/nu_max(2a) h_a <= h_{3/2} <= h_a.
    for tag in ("P13", "C8"):
        Z, a = spaces[tag], 3
        west, mid = h[tag, 1.0, a], h[tag, 1.0, 1.5]
        numin = float(Z.nu.min())
        numax = float(np.max((Z.dist <= 2 * a) @ Z.nu))
        rows.append(_row(
            f"rescale:scales-lower:{tag}", "scale-comparison",
            numin / numax * west.value <= mid.value * (1 + ctx.tol),
            numin / numax * west.value, mid.value, ctx.tol))
        # Right side checked on the scale-a witness: its ratio at scale 3/2
        # upper-bounds h_{3/2} and is dominated by the scale-a ratio.
        reval = scale_ratio(Z, west.function_witness, 1, 1.5)
        rows.append(_row(
            f"rescale:scales-upper:{tag}", "scale-comparison",
            reval <= west.value + 1e-12, reval, west.value))
    # Monotonicity of the scale gradient, on re-evaluated witnesses.
    wit = h["P13", 1.0, 1]
    vals = [scale_ratio(host, wit.function_witness, 1, a)
            for a in (1, 2, 3, 4)]
    rows.append(_row(
        "rescale:gradient-monotone-in-scale:P13", "scale-comparison",
        all(vals[i] <= vals[i + 1] + 1e-12 for i in range(3)),
        vals[0], vals[-1]))
    base = cheeger_lp(k4, 2, gradient="modified").value
    ratios = [(kappa + 1) * cheeger_lp(subdivide(k4, kappa), 2,
                                       gradient="modified").value / base
              for kappa in range(1, 6)]
    lo, hi = SUBDIV_RATIO_BRACKET
    rows.append(_row(
        "rescale:subdivision-ratio:K4", "subdivision-ratio-regression",
        all(lo <= r <= hi for r in ratios),
        min(ratios), max(ratios), hi - lo))
    return rows


def _discretization_space(host: Graph, disc) -> WeightedMetricGraph:
    """The discretization as a metric measure space: the centers carry the
    block measures and the host-restricted metric."""
    centers = disc.centers
    k = len(centers)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    dist = distance_matrix(host)[np.ix_(centers, centers)]
    return WeightedMetricGraph(Graph(k, edges, labels=centers),
                               nu=disc.nu_Y, dist=dist)


def suite_lamp_embedding(ctx: VerifyContext):
    rows = []
    group = klein_four()
    lamp = distorted_lamp_graph(LampGraphSpec(group, 2, 0))
    rows.append(_row(
        "lamp:vertex-count", "distorted-lamp-graph",
        lamp.vertex_count == 20, lamp.vertex_count, 20))
    idx = {lamp.label(v): v for v in range(lamp.vertex_count)}
    edge_vertex = idx[((0,), -2)]
    rows.append(_row(
        "lamp:tail-degree", "distorted-lamp-graph",
        lamp.degree(edge_vertex) == 2, lamp.degree(edge_vertex), 2))
    cay = cayley_graph(group)
    factors = set()
    for x in range(group.order):
        dl = bfs_distances(lamp, idx[((x,), 0)])
        dc = bfs_distances(cay, x)
        for y in range(group.order):
            if x != y:
                factors.add(Fraction(int(dl[idx[((y,), 0)]]), int(dc[y])))
    # Stated identity: factor exactly 2k. The graph as defined yields the
    # uniform factor 2k+1 (each group edge costs 2k cursor steps plus the
    # product edge); the first row records the stated check, the second the
    # measured invariant (each alphabet step costs 2k cursor moves plus
    # the product edge, so the quoted 2k undercounts by one).
    rows.append(_row(
        "lamp:homothety-stated-2k", "lamp-homothety",
        factors == {Fraction(4)}, sorted(map(float, factors)), 4))
    rows.append(_row(
        "lamp:homothety-uniform-factor", "lamp-homothety",
        factors == {Fraction(5)}, sorted(map(float, factors)), 5))
    cut_lamp = cut(lamp, Fraction(1, 2), "exact")
    cut_cay = cut(cay, Fraction(1, 2), "exact")
    rows.append(_row(
        "lamp:cut-monotone", "lamp-cut-monotone",
        cut_lamp.size >= cut_cay.size, cut_lamp.size, cut_cay.size))
    spec = DiagonalSpec([(klein_four(), 0), (klein_four(), 3)])
    report = embed_lamp_graph(spec, 1, 1)
    rows.append(_row(
        "lamp:embedding-size", "lamp-embedding",
        report.lamp_graph.vertex_count == 576,
        report.lamp_graph.vertex_count, 576))
    rows.append(_row(
        "lamp:embedding-injective", "lamp-embedding",
        report.injective, int(report.injective), 1))
    rows.append(_row(
        "lamp:embedding-edge-relations", "lamp-embedding",
        len(report.violations) == 0, len(report.violations), 0))
    k_s, k_t, r = 3, 0, 1
    a_window = (-r + k_s - k_t, r + k_s - k_t)
    b_window = (-r - k_s + k_t, r - k_s + k_t)
    rows.append(_row(
        "lamp:write-windows-disjoint", "lamp-embedding",
        a_window[0] > b_window[1], a_window[0], b_window[1]))
    return rows


def suite_cocycles(ctx: VerifyContext):
    rows = []
    spec = DiagonalSpec([(klein_four(), 0)])
    result = ball(spec, 6, max_elements=500_000)
    rows.append(_row(
        "cocycle:ball-growth", "cayley-ball",
        len(result.elements) == 710, len(result.elements), 710))
    ident = spec.identity()
    rows.append(_row(
        "cocycle:range-identity", "range-function",
        range_of(spec, ident, 6) == 0, range_of(spec, ident, 6), 0))
    tau5 = ident
    for _ in range(5):
        tau5 = apply_generator(spec, tau5, ("tau", 1))
    rows.append(_row(
        "cocycle:range-tau5", "range-function",
        range_of(spec, tau5, 8) == 5, range_of(spec, tau5, 8), 5))
    u4 = range_set(spec, 4)
    far = [z for z in result.elements if z not in u4]
    rows.append(_row(
        "cocycle:far-element-count", "range-cocycle-lower",
        len(far) >= 20 and tau5 in far, len(far), 20))
    gens = [apply_generator(spec, ident, gen) for gen in spec.generators()]
    norms = cocycle_norms(spec, 1, far + gens)
    norms, gen_norms = norms[:len(far)], norms[len(far):]
    rows.append(_row(
        "cocycle:norm-lower-bound", "range-cocycle-lower",
        min(norms) >= 2.0 / 3.0, min(norms), 2.0 / 3.0))
    rows.append(_row(
        "cocycle:lipschitz-on-generators", "cocycle-lipschitz",
        max(gen_norms) <= 1.0 + 1e-12, max(gen_norms), 1.0))
    rows.append(_row(
        "cocycle:lamp-generators-null", "cocycle-lipschitz",
        gen_norms[0] == 0.0 and gen_norms[1] == 0.0,
        max(gen_norms[:2]), 0.0))
    return rows


def suite_compression_bound(ctx: VerifyContext):
    rows = []
    sig = SphereTable(sigma=tuple(2 ** n for n in range(8)))
    rho = CompressionTable(values=tuple(float(n) for n in range(8)), p=1)
    val = poincare_upper_bound(16, 1, sig, rho, "general")
    rows.append(_row(
        "bound:closed-form-evaluation", "compression-upper-bound",
        abs(val - 1024.0 / 34.0) <= 0.01, val, 1024.0 / 34.0, 0.01))
    zero = CompressionTable(values=(0.0,) * 8, p=1)
    rows.append(_row(
        "bound:zero-compression-unbounded", "compression-upper-bound",
        math.isinf(poincare_upper_bound(16, 1, sig, zero, "general")),
        poincare_upper_bound(16, 1, sig, zero, "general"), "inf"))
    for name, G in (("grid66", build_family("grid", 6, 6)),
                    ("Q4", build_family("hypercube", 4))):
        table = poincare_profile(G, 8, 1, budget=ctx.budget)
        sigma = SphereTable.from_graph(G)
        emb = np.array(G.labels, dtype=float)
        comp = compression_function(G, emb, 1)
        rows.append(_row(
            f"bound:embedding-lipschitz:{name}", "compression-function",
            comp.lipschitz <= 1.0 and not comp.rescaled, comp.lipschitz, 1.0))
        bounds = [poincare_upper_bound(r.n, 1, sigma, comp, "general")
                  for r in table.rows]
        ok = all(b >= r.lower - 1e-9 for b, r in zip(bounds, table.rows))
        finite = [(b, r) for b, r in zip(bounds, table.rows) if not math.isinf(b)]
        worst_b, worst_r = min(finite, key=lambda br: br[0] - br[1].lower)
        rows.append(_row(
            f"bound:dominates-profile:{name}", "compression-upper-bound",
            ok, worst_r.lower, worst_b))
        diag = all(b >= r.upper - 1e-9 for b, r in zip(bounds, table.rows))
        rows.append(_row(
            f"bound:dominates-upper-bracket:{name}", "compression-upper-bound",
            None, int(diag), 1))
        expo = poincare_upper_bound(G.vertex_count, 1, sigma, comp, "exponential")
        rows.append(_row(
            f"bound:exponential-form:{name}", "compression-upper-bound",
            expo >= table.value(min(8, G.vertex_count)).lower - 1e-9,
            table.value(min(8, G.vertex_count)).lower, expo))
    g55 = build_family("grid", 5, 5)
    comp = compression_function(g55, np.array(g55.labels, dtype=float), 1)
    rows.append(_row(
        "bound:grid-identity-compression", "compression-function",
        all(comp.values[t] == float(t) for t in range(comp.max_t + 1)),
        comp.values[comp.max_t], comp.max_t))
    const = compression_function(g55, np.zeros(25), 1)
    rows.append(_row(
        "bound:constant-map-compression", "compression-function",
        all(v == 0.0 for v in const.values), max(const.values), 0.0))
    figure = rearrange([1, 2, 1, 3, 2, 3], [n + 1 for n in range(10)])
    first_pass = next(iter(
        s for s in rearrange_steps([1, 2, 1, 3, 2, 3],
                                   [n + 1 for n in range(10)])
        if s != [1, 2, 1, 3, 2, 3]))
    rows.append(_row(
        "bound:rearrange-figure", "gap-filling-lemma",
        first_pass == [1, 2, 3, 1, 2, 3] and sum(figure) == 12,
        first_pass, [1, 2, 3, 1, 2, 3]))
    rng = np.random.default_rng(ctx.seed)
    failures = 0
    monotone_failures = 0
    for _ in range(500):
        length = int(rng.integers(3, 10))
        s = [int(rng.integers(1, 8)) for _ in range(length)]
        h = [int(rng.integers(0, sv + 1)) for sv in s]
        rho_seq = np.sort(rng.random(length))
        total = sum(h)
        steps = list(rearrange_steps(h, s))
        weights = [sum(hv * rv for hv, rv in zip(step, rho_seq))
                   for step in steps]
        if any(b > a + 1e-12 for a, b in zip(weights, weights[1:])):
            monotone_failures += 1
        acc = 0
        for k in range(length):
            acc += s[k]
            if acc > total:
                break
            target = sum(s[i] * rho_seq[i] for i in range(k + 1))
            if weights[0] < target - 1e-12:
                failures += 1
    rows.append(_row(
        "bound:rearrange-random-inequality", "gap-filling-lemma",
        failures == 0, failures, 0))
    rows.append(_row(
        "bound:rearrange-step-monotone", "gap-filling-lemma",
        monotone_failures == 0, monotone_failures, 0))
    scale = ScaleFunction(ks=(3, 9), ls=(2, 6))
    rows.append(_row(
        "bound:scale-function-values", "scale-function",
        rho_delta(scale, 6) == 3.0 and rho_delta(scale, 18) == 9.0,
        rho_delta(scale, 6), 3.0))
    xs = [6 + 0.25 * i for i in range(int((54 - 6) / 0.25))]
    vals = [rho_delta(scale, x) for x in xs]
    ratios = [x / v for x, v in zip(xs, vals)]
    rows.append(_row(
        "bound:scale-function-monotone", "scale-function",
        all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        and all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:])),
        vals[0], vals[-1]))
    return rows


def suite_conditions(ctx: VerifyContext):
    rows = []
    dom = [10 ** (0.01 * i) for i in range(-200, 1301)]
    sqrt_table = MonotoneTable.sample(math.sqrt, dom)
    grid = [10 ** (0.5 * i) for i in range(2, 13)]
    rep = check_condition(sqrt_table, "S_ab", alpha=0.0, beta=2.0, C=1.0,
                          grid=grid)
    rows.append(_row(
        "conditions:sqrt-s02", "condition-sab",
        rep.passed and rep.checked >= 10, rep.checked, 10))
    log_dom = [10 ** (0.01 * i) for i in range(100, 601)]
    log_table = MonotoneTable.sample(lambda x: math.log(1 + x), log_dom)
    log_grid = [5.0 + 0.5 * i for i in range(17)]  # condition variable range
    rep = check_condition(log_table, "SSL", C=2.0, grid=log_grid)
    rows.append(_row(
        "conditions:log-ssl", "condition-ssl",
        rep.passed and rep.checked >= 5, rep.checked, 5))
    id_table = MonotoneTable.sample(lambda x: x, dom)
    rep = check_condition(id_table, "SSL", C=2.0, grid=grid)
    rows.append(_row(
        "conditions:identity-fails-ssl", "condition-ssl",
        not rep.passed and rep.worst_x == max(grid),
        rep.worst_x, max(grid)))
    return rows


SUITES: dict[str, Callable] = {
    "cheeger_sandwiches": suite_cheeger_sandwiches,
    "cartesian_powers": suite_cartesian_powers,
    "cuts_profiles": suite_cuts_profiles,
    "coarsening": suite_coarsening,
    "rescaling": suite_rescaling,
    "lamp_embedding": suite_lamp_embedding,
    "cocycles": suite_cocycles,
    "compression_bound": suite_compression_bound,
    "conditions": suite_conditions,
}

# Checks that pin a quoted constant known not to hold for the construction;
# kept red on purpose. The companion checks verify the measured identity.
EXPECTED_FAILURES = frozenset({"lamp:homothety-stated-2k"})


def run_suites(names, ctx: VerifyContext, timings: bool = False):
    """Run the named suites; return their rows sorted by check id.

    With ``timings`` each row's ``ms`` is the time from the creation of the
    previous row of its suite (from the suite's start, for the first row)
    to its own creation, so a slow check shows on its own row.
    """
    rows: list[CheckRow] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        start = time.perf_counter()
        suite_rows = SUITES[name](ctx)
        if timings:
            prev = start
            for r in sorted(suite_rows, key=lambda r: r.created):
                r.ms = (r.created - prev) * 1000.0
                prev = r.created
        rows.extend(suite_rows)
    rows.sort(key=lambda r: r.check_id)
    return rows


def report_metadata(ctx: VerifyContext) -> dict:
    return {
        "seed": ctx.seed,
        "tol": ctx.tol,
        "budget": ctx.budget,
        "version": __version__,
        "backend": backend_name(),
    }


def rows_to_csv(rows, meta) -> str:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))]
    lines.append("check_id,anchor,status,lhs,rhs,tol,ms")
    for r in rows:
        ms = "" if r.ms is None else f"{r.ms:.3f}"
        lhs = str(r.lhs).replace(",", ";")
        rhs = str(r.rhs).replace(",", ";")
        lines.append(
            f"{r.check_id},{r.anchor},{r.status},{lhs},{rhs},{_fmt(r.tol)},{ms}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows, meta) -> str:
    import json

    payload = {
        "meta": meta,
        "rows": [
            {"check_id": r.check_id, "anchor": r.anchor, "status": r.status,
             "lhs": r.lhs, "rhs": r.rhs, "tol": r.tol, "ms": r.ms}
            for r in rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def hard_failures(rows) -> list:
    return [r for r in rows
            if r.status == "fail" and r.check_id not in EXPECTED_FAILURES]


def unexpected_passes(rows) -> list:
    return [r for r in rows
            if r.status == "pass" and r.check_id in EXPECTED_FAILURES]
