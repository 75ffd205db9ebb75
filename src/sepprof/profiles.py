"""Separation and Poincare profiles of finite host graphs.

Both exact profiles are one sup over the connected induced subgraphs with at
most n vertices, taken by one driver, ``_sup_rows``; each profile only says
how to evaluate one subgraph. Removing edges never increases a half-cut or
an L^p constant (balls shrink, so gradients shrink pointwise), and
disconnected subgraphs contribute 0, so the sup is attained on connected
induced ones.

``_subgraphs`` relabels each subgraph in sorted vertex order, so translated
copies of one shape (in a grid, say) give the same key: the tuple of
relabelled neighbour masks. The driver evaluates each distinct key once per
call and reuses the value for the other subgraphs that share it. This is
exact: the key is the kernel's whole input, and it also fixes the relabelled
induced subgraph that ``lambda2`` and ``max_degree`` see, so every bound is
the value a fresh evaluation would give. An evaluation is a (lower, upper)
pair; row n holds the largest of each over the subgraphs with at most n
vertices, and its witness is the first subgraph, in enumeration order, that
strictly raises the upper value of its size. The memo is local to the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import kernels
from .cheeger import (EXACT_LIMIT, certified_lp_lower, majored_lp_lower,
                      validate_exponent)
from .errors import ExactSearchInfeasible
from .graphs import Graph, induced_subgraph
from .spectral import lambda2

DEFAULT_SUBGRAPH_BUDGET = 300_000
DEFAULT_CUT_BUDGET = 2_000_000


@dataclass
class ProfileRow:
    n: int
    lower: float
    upper: Optional[float]
    exact: bool
    witness: Optional[frozenset]


@dataclass
class ProfileTable:
    rows: list[ProfileRow]
    p: Optional[float] = None

    def value(self, n: int) -> ProfileRow:
        for row in self.rows:
            if row.n == n:
                return row
        raise KeyError(n)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("n,lower,upper,exact,witness\n")
            for r in self.rows:
                upper = "" if r.upper is None else f"{r.upper:.12g}"
                wit = "" if r.witness is None else " ".join(map(str, sorted(r.witness)))
                fh.write(f"{r.n},{r.lower:.12g},{upper},{int(r.exact)},{wit}\n")


def _validate_n_max(n_max: int) -> None:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")


def _subgraphs(G: Graph, n_max: int, budget: int):
    """Yield (vertices, key) for each connected induced subgraph with at most
    n_max vertices, in ``kernels.connected_subsets`` order: the sorted
    members, and per member its neighbours as a mask over positions in
    vertices. Member u of the subset S is at popcount(S & ((1 << u) - 1))."""
    masks = G.neighbor_masks
    for subset in kernels.connected_subsets(masks, G.vertex_count, n_max,
                                            budget):
        verts, key = [], []
        rest = subset
        while rest:
            low = rest & -rest
            verts.append(low.bit_length() - 1)
            rest ^= low
        for v in verts:
            nbrs, acc = masks[v] & subset, 0
            while nbrs:
                low = nbrs & -nbrs
                acc |= 1 << (subset & (low - 1)).bit_count()
                nbrs ^= low
            key.append(acc)
        yield tuple(verts), tuple(key)


def _sup_rows(G: Graph, n_max: int, budget: int, evaluate,
              exact: bool) -> list[ProfileRow]:
    """Rows n = 1..n_max of the sup over connected induced subgraphs with at
    most n vertices of evaluate(vertices, key) -> (lower, upper), floats."""
    best_lo = [0.0] * (n_max + 1)
    best_up = [0.0] * (n_max + 1)
    witness: list[Optional[frozenset]] = [None] * (n_max + 1)
    values: dict[tuple, tuple[float, float]] = {}
    for verts, key in _subgraphs(G, n_max, budget):
        m = len(verts)
        value = values.get(key)
        if value is None:
            value = values[key] = evaluate(verts, key)
        lo, up = value
        if lo > best_lo[m]:
            best_lo[m] = lo
        if up > best_up[m]:
            best_up[m] = up
            witness[m] = frozenset(verts)
    rows = []
    run_lo, run_up, run_wit = 0.0, 0.0, None
    for n in range(1, n_max + 1):
        if best_up[n] > run_up:
            run_up, run_wit = best_up[n], witness[n]
        run_lo = max(run_lo, best_lo[n])
        rows.append(ProfileRow(n=n, lower=run_lo, upper=run_up,
                               exact=exact, witness=run_wit))
    return rows


def separation_profile_exact(G: Graph, n_max: int,
                             budget: int = DEFAULT_SUBGRAPH_BUDGET,
                             cut_budget: int = DEFAULT_CUT_BUDGET) -> ProfileTable:
    """Exact sep(n) = max half-cut over connected induced subgraphs, n <= n_max."""
    _validate_n_max(n_max)

    def half_cut(verts, key):
        m = len(key)
        mask, _ = kernels.min_cut_exact(key, m, 1, 2, m, cut_budget)
        size = float(mask.bit_count())
        return size, size

    return ProfileTable(_sup_rows(G, min(n_max, G.vertex_count), budget,
                                  half_cut, True))


def _hp_bracket(G: Graph, verts, p: float, maj: Fraction):
    """Certified [lower, upper] for the sup-gradient L^p constant of the
    induced subgraph, from the majored constant and, for p=2, the gap."""
    m = len(verts)
    if m == 2:
        return 2.0, 2.0  # two connected vertices form K2; h_p(K2) = 2
    h_maj = float(maj)
    if p == 2:
        sub = induced_subgraph(G, verts)
        h2mod = math.sqrt(2.0 * lambda2(sub).lambda2)
        deg = sub.max_degree()
        lower = h2mod / math.sqrt(deg) if deg else 0.0
        upper = min(math.sqrt(2.0) * h2mod, 2.0 * math.sqrt(h_maj))
        return lower, upper
    upper = h_maj if p == 1 else 2.0 * h_maj ** (1.0 / p)
    return majored_lp_lower(h_maj, p), upper


def poincare_profile(G: Graph, n_max: int, p: float,
                     budget: int = DEFAULT_SUBGRAPH_BUDGET) -> ProfileTable:
    """Poincare profile rows sup |V(H)| * h_p(H) over connected induced
    subgraphs H with <= n vertices, each row a certified [lower, upper]."""
    validate_exponent(p)
    _validate_n_max(n_max)
    n_max = min(n_max, G.vertex_count)
    if n_max > EXACT_LIMIT:
        raise ExactSearchInfeasible(
            f"exact profile search infeasible for n_max {n_max} > "
            f"{EXACT_LIMIT}; use a smaller n_max or poincare_lower_bounds")

    def scaled_bracket(verts, key):
        m = len(key)
        if m < 2:
            return 0.0, 0.0
        num, size, _ = kernels.cheeger_exhaustive(key, m, kernels.MODE_MAJORED)
        lo, up = _hp_bracket(G, verts, p, Fraction(num, size))
        return m * lo, m * up

    return ProfileTable(_sup_rows(G, n_max, budget, scaled_bracket, False), p)


def poincare_lower_bounds(G: Graph, subgraphs, p: float) -> ProfileTable:
    """Certified lower bounds |V(H)| * h_p(H) for a supplied family of vertex
    sets, one row per set (upper None), sorted by size then by decreasing
    bound."""
    validate_exponent(p)
    rows = []
    for verts in subgraphs:
        sub = induced_subgraph(G, verts)
        if sub.vertex_count > EXACT_LIMIT:
            raise ExactSearchInfeasible(
                "witness subgraph too large for the certified chain")
        lower = certified_lp_lower(sub, p, "sup_scale")
        val = 0.0 if lower is None else sub.vertex_count * lower
        rows.append(ProfileRow(n=sub.vertex_count, lower=val, upper=None,
                               exact=False, witness=frozenset(verts)))
    rows.sort(key=lambda r: (r.n, -r.lower))
    return ProfileTable(rows=rows, p=p)
