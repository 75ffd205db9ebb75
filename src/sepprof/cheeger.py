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
from .graphs import Graph, distance_matrix, validate_subset
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


def _mask_to_set(mask: int) -> frozenset:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


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
    """Simulated-annealing upper bound; returns (num, size, mask)."""
    n = G.vertex_count
    max_size = n // 2
    rng = np.random.default_rng(seed)

    def ratio_key(num, size):
        return num / size

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
        temp = 1.0
        for step in range(3000):
            temp *= 0.998
            v = int(rng.integers(n))
            if state.mask >> v & 1:
                if size == 1:
                    continue
                new_size = size - 1
            else:
                if 2 * (size + 1) > n:
                    continue
                new_size = size + 1
            new_num = state.flipped_count(v)
            delta = ratio_key(new_num, new_size) - ratio_key(state.count, size)
            if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
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
        value=float(frac), kind="set", set_witness=_mask_to_set(mask),
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
        if nu is None:
            nu = np.ones(n)
        nu = np.asarray(nu, dtype=float)
        if nu.shape != (n,):
            raise ValueError("nu must have one entry per vertex")
        if n and nu.min() <= 0:
            raise ValueError("nu must be positive on every vertex")
        self.nu = nu
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


def certified_lp_lower(G: Graph, p: float, gradient: str) -> Optional[float]:
    """Certified lower bound for h_p from the exhaustive majored constant
    (``majored_lp_lower``); the neighbour-sum gradient costs a further
    2^-((p-1)/p). None above ``EXACT_LIMIT`` vertices and below the
    sandwich's size."""
    n = G.vertex_count
    if n > EXACT_LIMIT or n < 2 or (p > 1 and n < 3):
        return None
    maj = cheeger_combinatorial(G, "majored")
    lower = majored_lp_lower(float(maj.value_exact), p)
    if gradient == "modified":
        lower *= 2.0 ** (-(p - 1) / p)
    return lower


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


def cheeger_lp(G: Graph, p: float, gradient: str = "sup_scale",
               scale_a: float = 1.0, target_dim: int = 1,
               restarts: int = 8, seed: int = 0) -> CheegerWitness:
    """L^p Cheeger constant estimate (certified upper bound).

    gradient="sup_scale": |grad f|(x) is the sup of |f(y)-f(y')| over the
    closed ball of radius ``scale_a``; gradient="modified": the p-sum over
    neighbours. For (modified, p=2, scale 1, dim 1) the exact value
    sqrt(2*lambda2) is returned. certified_lower comes from the exhaustive
    sandwich chain when available (scale 1 only).
    """
    validate_exponent(p)
    _validate_scale(scale_a)
    if target_dim < 1:
        raise ValueError("target_dim must be >= 1")
    n = G.vertex_count
    if n <= 1:
        return CheegerWitness(0.0, "function", exact=True, certified_lower=0.0)
    if gradient == "modified" and scale_a != 1:
        raise ValueError("modified gradient is defined at scale 1 only")
    if gradient == "modified" and p == 2 and target_dim == 1:
        lam = lambda2(G)
        value = math.sqrt(2.0 * lam.lambda2)
        return CheegerWitness(
            value=value, kind="function",
            function_witness=lam.witness_vector, exact=True,
            certified_lower=value)
    if gradient == "sup_scale":
        est = _scale_estimates(WeightedMetricGraph(G), [scale_a], p,
                               target_dim, restarts, seed)[0]
    elif gradient == "modified":
        nu = np.ones(n)
        nbrs = optimize.NeighborIndex(G.neighbors)
        _, best_f = optimize.first_least(*optimize.minimize_quotient(
            *optimize.modified_gradient_objective(nbrs, nu, p), nu, p,
            _starts(G, target_dim, restarts, seed, nu)))
        est = CheegerWitness(value=_modified_ratio(nbrs, nu, best_f, p),
                             kind="function", function_witness=best_f)
    else:
        raise ValueError(f"unknown gradient {gradient!r}")
    lower = certified_lp_lower(G, p, gradient) if scale_a == 1 else None
    if lower is not None:
        est.certified_lower = min(lower, est.value)
    return est


def _scale_estimates(Z: WeightedMetricGraph, scales, p: float,
                     target_dim: int, restarts: int, seed: int) -> list:
    """The sup-gradient estimates at each scale, in order, on at least two
    vertices: per scale the best function found from the seeded starts,
    rechecked with ``scale_ratio``.

    Scales with equal ball matrices share one block of starts, and one
    optimizer stack steps every block, each row with its block's matrix.
    The matrices are padded to the widest by the ``optimize.index_matrix``
    rule, which changes no extreme, so each scale gets the bits it would
    get alone."""
    blocks, block_of = {}, []
    for a in scales:
        balls = Z.balls(a)
        block_of.append(blocks.setdefault((balls.shape, balls.tobytes()),
                                          (len(blocks), balls))[0])
    K, n = len(blocks), Z.graph.vertex_count
    balls = optimize.index_matrix(
        [row for _, matrix in blocks.values() for row in matrix])
    starts = _starts(Z.graph, target_dim, restarts, seed, Z.nu)
    S = len(starts)
    if K > 1:  # one matrix per row; a lone matrix is shared by every row
        balls = np.repeat(balls.reshape(K, n, -1), S, axis=0)
    best_val, best_F = optimize.minimize_quotient(
        *optimize.sup_gradient_objective(balls, Z.nu, p), Z.nu, p,
        starts * K)
    winners = [optimize.first_least(best_val[k * S:(k + 1) * S],
                                    best_F[k * S:(k + 1) * S])[1]
               for k in range(K)]
    # Scales of one block get copies, so that no two witnesses share memory.
    return [CheegerWitness(value=scale_ratio(Z, winners[k], p, a),
                           kind="function", function_witness=winners[k].copy())
            for a, k in zip(scales, block_of)]


def scale_poincare_constants(Z: WeightedMetricGraph, scales, p: float,
                             restarts: int = 8, seed: int = 0) -> list:
    """Upper bounds on the L^p Poincare constant of Z at each scale a of
    ``scales``, in order: one witness per scale, with the bits that
    ``scale_poincare_constant(Z, a, p, restarts, seed)`` gives, from one
    optimizer stack for all of them (scales with the same balls share their
    starts)."""
    validate_exponent(p)
    scales = list(scales)
    for a in scales:
        _validate_scale(a)
    if not scales:
        return []
    if Z.graph.vertex_count <= 1:
        return [CheegerWitness(0.0, "function", exact=True,
                               certified_lower=0.0) for _ in scales]
    return _scale_estimates(Z, scales, p, 1, restarts, seed)


def scale_poincare_constant(Z: WeightedMetricGraph, a: float, p: float,
                            restarts: int = 8, seed: int = 0) -> CheegerWitness:
    """Upper bound on the L^p Poincare constant of Z at scale a.

    Gradient is the sup over the closed a-ball; means and norms are taken
    against the vertex measure. Value 0 by convention on measure-zero Z.
    The one-scale call of ``scale_poincare_constants``: to estimate several
    scales of one space and exponent, ask for them together.
    """
    return scale_poincare_constants(Z, [a], p, restarts, seed)[0]


def p_variance(f, p: float) -> float:
    """((1/n^2) sum_{g,h} ||f(g)-f(h)||_p^p)^(1/p)."""
    f = _as_matrix(f)
    n = f.shape[0]
    diffs = f[:, None, :] - f[None, :, :]
    total = float(np.sum(np.abs(diffs) ** p))
    return (total / (n * n)) ** (1.0 / p)
