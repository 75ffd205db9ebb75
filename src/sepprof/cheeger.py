"""Cheeger-type constants.

Combinatorial constants (plain / majored / edge boundary) by exhaustive
subset enumeration or simulated annealing; L^p constants with sup-scale or
neighbour-sum gradients by seeded subgradient descent. Every returned value
is tied to a witness: exact values carry the minimizing set, estimates carry
the best function found, and the estimate is a certified upper bound because
it is the objective at a feasible point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels, optimize
from .errors import ExactSearchInfeasible
from .graphs import (Graph, distance_matrix, mask_set, validate_measure,
                     validate_subset)
from .spectral import fiedler_vector, lambda2

EXACT_LIMIT = 22
RATIO_REPRO_TOL = 1e-12

_MODE_CODE = {
    "plain": kernels.MODE_PLAIN,
    "majored": kernels.MODE_MAJORED,
    "edge": kernels.MODE_EDGE,
}


@dataclass
class CheegerWitness:
    value: float
    kind: str  # "set" or "function"
    set_witness: Optional[frozenset] = None
    function_witness: Optional[np.ndarray] = field(default=None, repr=False)
    certified_lower: Optional[float] = None
    exact: bool = False
    value_exact: Optional[Fraction] = None


def boundary_count(G: Graph, subset_mask: int, mode: str) -> int:
    """Boundary size of the set given as a bitmask, per mode."""
    masks = G.neighbor_masks
    union = 0
    m = subset_mask
    while m:
        low = m & -m
        union |= masks[low.bit_length() - 1]
        m ^= low
    comp = ~subset_mask
    if mode == "plain":
        return (union & comp).bit_count()
    if mode == "majored":
        count = (union & comp).bit_count()
        m = subset_mask
        while m:
            low = m & -m
            if masks[low.bit_length() - 1] & comp:
                count += 1
            m ^= low
        return count
    if mode == "edge":
        total = 0
        m = subset_mask
        while m:
            low = m & -m
            total += (masks[low.bit_length() - 1] & comp).bit_count()
            m ^= low
        return total
    raise ValueError(f"unknown mode {mode!r}")


def set_ratio(G: Graph, A, mode: str) -> Fraction:
    A = validate_subset(G, A)
    if not A:
        raise ValueError("empty subset")
    mask = 0
    for v in A:
        mask |= 1 << v
    return Fraction(boundary_count(G, mask, mode), len(A))


class _FlipBoundary:
    """A vertex set (bitmask) and its ``boundary_count``, kept up to date one
    flipped vertex at a time in O(degree): ``inside[u]`` counts the
    neighbours of u in the set."""

    def __init__(self, G: Graph, mode: str, mask: int):
        self.neighbors, self.mode, self.mask = G.neighbors, mode, mask
        self.degree = [len(nbrs) for nbrs in G.neighbors]
        self.inside = [(m & mask).bit_count() for m in G.neighbor_masks]
        self.count = boundary_count(G, mask, mode)

    def flipped_count(self, v: int) -> int:
        """The boundary count of the set with v added or removed.

        Edge mode counts the edges leaving the set. Plain mode counts the
        outside vertices with an inside neighbour; majored mode adds the
        members with an outside neighbour. A flip of v changes these only
        at v and its neighbours."""
        mask, inside, degree = self.mask, self.inside, self.degree
        k, deg = inside[v], degree[v]
        majored = self.mode == "majored"
        leaving = mask >> v & 1
        if self.mode == "edge":
            return self.count + (2 * k - deg if leaving else deg - 2 * k)
        if leaving:
            change = (k > 0) - (majored and k < deg)
            for w in self.neighbors[v]:
                if not mask >> w & 1:
                    change -= inside[w] == 1  # v was its one inside neighbour
                elif majored:
                    change += inside[w] == degree[w]  # v becomes outside
        else:
            change = (majored and k < deg) - (k > 0)
            for w in self.neighbors[v]:
                if not mask >> w & 1:
                    change += inside[w] == 0
                elif majored:
                    change -= inside[w] + 1 == degree[w]  # v was outside
        return self.count + change

    def flip(self, v: int, count: int) -> None:
        """Add or remove v; count is ``flipped_count(v)``."""
        step = -1 if self.mask >> v & 1 else 1
        for w in self.neighbors[v]:
            self.inside[w] += step
        self.mask ^= 1 << v
        self.count = count


def _anneal(G: Graph, mode: str, restarts: int, seed: int):
    """Simulated-annealing upper bound; returns (num, size, mask).

    Each restart draws its 3000 vertex picks and 3000 acceptance uniforms
    as one block, one uniform per step whether or not the step uses it."""
    n = G.vertex_count
    max_size = n // 2
    rng = np.random.default_rng(seed)

    # Fiedler sweep: prefixes of the sorted Fiedler vector seed the search.
    order = list(np.argsort(fiedler_vector(G)))
    best = None
    prefix_mask = 0
    for i in range(max_size):
        prefix_mask |= 1 << int(order[i])
        num = boundary_count(G, prefix_mask, mode)
        cand = (num, i + 1, prefix_mask)
        if best is None or num * best[1] < best[0] * cand[1]:
            best = cand
    for _ in range(restarts):
        state = _FlipBoundary(G, mode, best[2])
        size = best[1]
        picks = rng.integers(n, size=3000).tolist()
        draws = rng.random(3000).tolist()
        temp = 1.0
        for v, u in zip(picks, draws):
            temp *= 0.998
            if state.mask >> v & 1:
                if size == 1:
                    continue
                new_size = size - 1
            else:
                if 2 * (size + 1) > n:
                    continue
                new_size = size + 1
            new_num = state.flipped_count(v)
            delta = new_num / new_size - state.count / size
            if delta <= 0 or u < math.exp(-delta / max(temp, 1e-9)):
                state.flip(v, new_num)
                size = new_size
                if state.count * best[1] < best[0] * size:
                    best = (state.count, size, state.mask)
    return best


def cheeger_combinatorial(G: Graph, mode: str = "plain",
                          allow_heuristic: bool = False,
                          restarts: int = 4, seed: int = 0) -> CheegerWitness:
    """Combinatorial Cheeger constant: inf |boundary(A)|/|A| over non-empty
    A with 2|A| <= |V|.

    Exhaustive (exact) up to ``EXACT_LIMIT`` vertices; larger graphs need
    ``allow_heuristic`` and get an annealed upper bound flagged inexact.
    Graphs with at most one vertex return 0 by convention.
    """
    if mode not in _MODE_CODE:
        raise ValueError(f"unknown mode {mode!r}")
    n = G.vertex_count
    if n <= 1:
        return CheegerWitness(0.0, "set", set_witness=frozenset(), exact=True,
                              value_exact=Fraction(0), certified_lower=0.0)
    if n <= EXACT_LIMIT:
        num, size, mask = kernels.cheeger_exhaustive(
            G.neighbor_masks, n, _MODE_CODE[mode])
        exact = True
    else:
        if not allow_heuristic:
            raise ExactSearchInfeasible(
                f"exact search infeasible for {n} > {EXACT_LIMIT} vertices; "
                f"pass allow_heuristic=True for an annealed upper bound")
        num, size, mask = _anneal(G, mode, restarts, seed)
        exact = False
    frac = Fraction(num, size)
    return CheegerWitness(
        value=float(frac), kind="set", set_witness=mask_set(mask),
        exact=exact, value_exact=frac,
        certified_lower=float(frac) if exact else None)


# ---------------------------------------------------------------------------
# L^p constants


class WeightedMetricGraph:
    """A graph with a positive vertex measure and a metric.

    The metric defaults to shortest-path distances; restrictions of a larger
    host metric (discretizations) pass their own matrix via ``dist``.
    """

    def __init__(self, graph: Graph, nu=None, dist=None):
        self.graph = graph
        n = graph.vertex_count
        self.nu = validate_measure(nu, n)
        dist = (distance_matrix(graph) if dist is None
                else np.asarray(dist, dtype=float))
        if dist.shape != (n, n):
            raise ValueError("dist must be an n by n matrix")
        self.dist = dist

    def balls(self, radius: float) -> np.ndarray:
        """Closed balls at integer-rounded radius, as one (n, B) index
        matrix: row x lists the ball of x in vertex order, padded with its
        first member (``optimize.index_matrix``)."""
        within = self.dist <= math.floor(radius)
        return optimize.index_matrix([np.flatnonzero(row) for row in within])


def validate_exponent(p: float) -> None:
    """Raise ValueError unless p is a finite number >= 1 (NaN included)."""
    if not (1 <= p < math.inf):
        raise ValueError("p must be a finite number >= 1")


def _validate_scale(a: float) -> None:
    """Raise ValueError unless the scale a is a finite number > 0 (NaN
    included)."""
    if not (0 < a < math.inf):
        raise ValueError("scale must be a finite number > 0")


def _as_matrix(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    return f


def _spread(f: np.ndarray, nu: np.ndarray, p: float) -> float:
    """||f - mean||_p against nu, the denominator of every L^p quotient."""
    den = optimize.weighted_pnorm(optimize.weighted_center(f, nu), nu, p)
    if den < 1e-15:
        raise ValueError("constant function: quotient undefined")
    return den


def _modified_ratio(nbrs: optimize.NeighborIndex, nu: np.ndarray, f,
                    p: float) -> float:
    f = _as_matrix(f)
    den = _spread(f, nu, p)
    return optimize.modified_gradient_pow(f, nbrs, nu, p) ** (1.0 / p) / den


def scale_ratio(Z: WeightedMetricGraph, f, p: float, a: float) -> float:
    """Scale-a quotient ||grad_a f||_p / ||f - mean||_p against Z's measure
    and metric. Pure evaluation, shared by the optimizer and witness audits."""
    _validate_scale(a)
    f = _as_matrix(f)
    den = _spread(f, Z.nu, p)
    u = optimize.sup_gradient_rows(f, Z.balls(a), p)
    return float((Z.nu @ (u ** p)) ** (1.0 / p)) / den


def lp_cheeger_ratio(G: Graph, f, p: float, gradient: str = "sup_scale",
                     scale_a: float = 1.0, nu=None) -> float:
    """The L^p quotient ||grad f||_p / ||f - mean||_p at a given function."""
    if gradient == "sup_scale":
        return scale_ratio(WeightedMetricGraph(G, nu), f, p, scale_a)
    if gradient != "modified":
        raise ValueError(f"unknown gradient {gradient!r}")
    nu = np.ones(G.vertex_count) if nu is None else np.asarray(nu, dtype=float)
    return _modified_ratio(optimize.NeighborIndex(G.neighbors), nu, f, p)


def majored_lp_lower(h_maj: float, p: float) -> float:
    """The majored-constant sandwich: certified h_p >= h_maj/2 for p = 1,
    times the comparison factor min(1/12, 4^-p/2) for p > 1 (graphs with at
    least 2 vertices, and at least 3 for p > 1)."""
    lower = h_maj / 2.0
    if p > 1:
        lower *= min(1.0 / 12.0, (4.0 ** -p) / 2.0)
    return lower


def certified_lp_lowers(G: Graph, ps, gradient: str) -> list:
    """Certified lower bounds for h_p, one per p of ps, from the exhaustive
    majored constant (``majored_lp_lower``), searched for once and only if
    some p needs it; the neighbour-sum gradient costs a further
    2^-((p-1)/p). None above ``EXACT_LIMIT`` vertices and below the
    sandwich's size."""
    n = G.vertex_count
    h_maj, out = None, []
    for p in ps:
        if n > EXACT_LIMIT or n < 2 or (p > 1 and n < 3):
            out.append(None)
            continue
        if h_maj is None:
            h_maj = float(cheeger_combinatorial(G, "majored").value_exact)
        lower = majored_lp_lower(h_maj, p)
        if gradient == "modified":
            lower *= 2.0 ** (-(p - 1) / p)
        out.append(lower)
    return out


def _starts(G: Graph, dim: int, restarts: int, seed: int,
            nu: np.ndarray) -> list:
    n = G.vertex_count
    rng = np.random.default_rng(seed)
    starts = []
    if n >= 2:
        fv = np.zeros((n, dim))
        fv[:, 0] = fiedler_vector(G)
        starts.append(fv)
    witness = characteristic_witness(nu)
    if witness is not None:
        w = np.zeros((n, dim))
        w[:, 0] = witness
        starts.append(w)
    while len(starts) < max(restarts, 1) + 1:
        starts.append(rng.standard_normal((n, dim)))
    return starts


def characteristic_witness(nu: np.ndarray) -> Optional[np.ndarray]:
    """Indicator of a set with measure in [1/3, 2/3] of the total, if any.

    Greedy in vertex order; fails only when one atom exceeds 2/3 of the
    measure. Its quotient is at most 2 * 3^(1/p) <= 6 at any scale.
    """
    total = float(nu.sum())
    if total <= 0:
        return None
    acc = 0.0
    chosen = []
    for v in range(len(nu)):
        if acc >= total / 3.0:
            break
        acc += float(nu[v])
        chosen.append(v)
    if acc > 2.0 * total / 3.0:
        big = [v for v in range(len(nu)) if total / 3.0 <= nu[v] <= 2.0 * total / 3.0]
        if not big:
            return None
        chosen = [big[0]]
    f = np.zeros(len(nu))
    f[chosen] = 1.0
    return f


def cheeger_lps(G: Graph, ps, gradient: str = "sup_scale",
                scale_a: float = 1.0, target_dim: int = 1,
                restarts: int = 8, seed: int = 0) -> list:
    """``cheeger_lp(G, p, ...)`` for each p of ps, in order, with the bits
    it gives alone, from one optimizer stack for all of them."""
    ps = list(ps)
    for p in ps:
        validate_exponent(p)
    _validate_scale(scale_a)
    if target_dim < 1:
        raise ValueError("target_dim must be >= 1")
    if G.vertex_count <= 1:
        return [CheegerWitness(0.0, "function", exact=True,
                               certified_lower=0.0) for _ in ps]
    if gradient == "modified" and scale_a != 1:
        raise ValueError("modified gradient is defined at scale 1 only")
    if gradient not in ("sup_scale", "modified"):
        raise ValueError(f"unknown gradient {gradient!r}")
    # (modified, p = 2, dimension 1) is exact: sqrt(2 lambda2).
    exact = gradient == "modified" and target_dim == 1
    estimated = [p for p in ps if not (exact and p == 2)]
    found = zip(_lp_estimates(G, [(scale_a, p) for p in estimated], gradient,
                              target_dim, restarts, seed),
                certified_lp_lowers(G, estimated, gradient) if scale_a == 1
                else [None] * len(estimated))
    out = []
    for p in ps:
        if exact and p == 2:
            lam = lambda2(G)
            value = math.sqrt(2.0 * lam.lambda2)
            out.append(CheegerWitness(
                value=value, kind="function",
                function_witness=lam.witness_vector, exact=True,
                certified_lower=value))
            continue
        est, lower = next(found)
        if lower is not None:
            est.certified_lower = min(lower, est.value)
        out.append(est)
    return out


def cheeger_lp(G: Graph, p: float, gradient: str = "sup_scale",
               scale_a: float = 1.0, target_dim: int = 1,
               restarts: int = 8, seed: int = 0) -> CheegerWitness:
    """L^p Cheeger constant estimate (certified upper bound).

    gradient="sup_scale": |grad f|(x) is the sup of |f(y)-f(y')| over the
    closed ball of radius ``scale_a``; gradient="modified": the p-sum over
    neighbours. For (modified, p=2, scale 1, dim 1) the exact value
    sqrt(2*lambda2) is returned. certified_lower comes from the exhaustive
    sandwich chain when available (scale 1 only). The one-exponent call of
    ``cheeger_lps``: to estimate several exponents of one host, ask for them
    together.
    """
    return cheeger_lps(G, [p], gradient, scale_a, target_dim, restarts,
                       seed)[0]


def _lp_estimates(G: Graph, problems, gradient: str, target_dim: int,
                  restarts: int, seed: int, Z=None) -> list:
    """The estimates of G's L^p quotients for each (scale, p) of problems,
    in order, on at least two vertices: per problem the best function found
    from the seeded starts, rechecked with ``scale_ratio`` or
    ``_modified_ratio``. The sup gradient takes the measure and metric of
    Z, by default ``WeightedMetricGraph(G)``; the neighbour-sum gradient has
    scale 1 and the counting measure.

    Problems with equal exponents and equal ball matrices share one block
    of starts, and one optimizer stack steps every block, each row with its
    block's exponent and matrix. The blocks of one exponent are contiguous,
    so the rows come in runs of equal p. The matrices are padded to the
    widest by the ``optimize.index_matrix`` rule, which changes no extreme,
    so each problem gets the bits it would get alone."""
    if not problems:
        return []
    sup = gradient == "sup_scale"
    if sup:
        Z = WeightedMetricGraph(G) if Z is None else Z
        nu = Z.nu
    else:
        nu, nbrs = np.ones(G.vertex_count), optimize.NeighborIndex(G.neighbors)
    groups, keys = {}, []  # p -> {matrix key: matrix}, in order of first use
    for a, p in problems:
        balls = Z.balls(a) if sup else None
        key = (balls.shape, balls.tobytes()) if sup else None
        groups.setdefault(p, {}).setdefault(key, balls)
        keys.append((p, key))
    blocks = [(p, key, balls) for p, matrices in groups.items()
              for key, balls in matrices.items()]
    block_of = {(p, key): k for k, (p, key, _) in enumerate(blocks)}
    starts = _starts(G, target_dim, restarts, seed, nu)
    S, K = len(starts), len(blocks)
    # One exponent for the whole stack keeps the scalar code path.
    p = (problems[0][1] if len(groups) == 1
         else np.repeat([float(q) for q, _, _ in blocks], S))
    if not sup:
        objective = optimize.modified_gradient_objective(nbrs, nu, p)
    elif len({key for _, key, _ in blocks}) == 1:
        objective = optimize.sup_gradient_objective(blocks[0][2], nu, p)
    else:  # one matrix per row
        n = G.vertex_count
        balls = optimize.index_matrix(
            [row for _, _, matrix in blocks for row in matrix])
        balls = np.repeat(balls.reshape(K, n, -1), S, axis=0)
        objective = optimize.sup_gradient_objective(balls, nu, p)
    best_val, best_F = optimize.minimize_quotient(*objective, nu, p,
                                                  starts * K)
    winners = [optimize.first_least(best_val[k * S:(k + 1) * S],
                                    best_F[k * S:(k + 1) * S])[1]
               for k in range(K)]
    out = []
    for (a, q), key in zip(problems, keys):
        # Problems of one block get copies, so that no two witnesses share
        # memory.
        f = winners[block_of[key]].copy()
        value = (scale_ratio(Z, f, q, a) if sup
                 else _modified_ratio(nbrs, nu, f, q))
        out.append(CheegerWitness(value=value, kind="function",
                                  function_witness=f))
    return out


def scale_poincare_constants(Z: WeightedMetricGraph, scales, p,
                             restarts: int = 8, seed: int = 0) -> list:
    """Upper bounds on the L^p Poincare constant of Z at each scale a of
    ``scales``, in order, p one exponent for all or a list of one per scale:
    one witness per scale, with the bits that
    ``scale_poincare_constant(Z, a, p, restarts, seed)`` gives, from one
    optimizer stack for all of them (scales with the same balls and
    exponent share their starts)."""
    scales = list(scales)
    ps = list(p) if np.ndim(p) else [p] * len(scales)
    if len(ps) != len(scales):
        raise ValueError("give one exponent, or one per scale")
    for a, q in zip(scales, ps):
        validate_exponent(q)
        _validate_scale(a)
    if Z.graph.vertex_count <= 1:
        return [CheegerWitness(0.0, "function", exact=True,
                               certified_lower=0.0) for _ in scales]
    return _lp_estimates(Z.graph, list(zip(scales, ps)), "sup_scale", 1,
                         restarts, seed, Z)


def scale_poincare_constant(Z: WeightedMetricGraph, a: float, p: float,
                            restarts: int = 8, seed: int = 0) -> CheegerWitness:
    """Upper bound on the L^p Poincare constant of Z at scale a.

    Gradient is the sup over the closed a-ball; means and norms are taken
    against the vertex measure. Value 0 by convention on measure-zero Z.
    The one-scale call of ``scale_poincare_constants``: to estimate several
    scales or exponents of one space, ask for them together.
    """
    return scale_poincare_constants(Z, [a], p, restarts, seed)[0]


def p_variance(f, p: float) -> float:
    """((1/n^2) sum_{g,h} ||f(g)-f(h)||_p^p)^(1/p)."""
    f = _as_matrix(f)
    n = f.shape[0]
    diffs = f[:, None, :] - f[None, :, :]
    total = float(np.sum(np.abs(diffs) ** p))
    return (total / (n * n)) ** (1.0 / p)
