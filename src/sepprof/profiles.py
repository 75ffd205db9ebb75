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
exact because the key is the evaluator's whole input: it is all the kernels
get, and ``_hp_bracket`` builds the p = 2 subgraph from it, so every bound
is the value a fresh evaluation would give. An evaluation is a (lower, upper)
pair; row n holds the largest of each over the subgraphs with at most n
vertices, and its witness is the first subgraph, in enumeration order, that
strictly raises the upper value of its size. The memo is local to the call.

The driver prunes exactly. It visits the subgraphs by increasing size, in
enumeration order within a size, so while it is at size m the running row
values lo and up are max(row(m - 1), best of size m so far). A subgraph
whose lower end is at most lo and upper end at most up changes no row: it
raises neither maximum, and as it does not strictly raise up it is not a
witness either. The evaluator is handed lo and up and may answer None for
such a subgraph after deciding only that, with a threshold form of its
kernel (see ``kernels``). Rows only grow, so a key answered None stays None
in the memo. The half-cut is one cut search over the sizes int(up)..m: a
cut of exactly int(up) vertices means it cannot raise a row, and a larger
first cut is the half-cut itself. At p = 1 both bracket ends are
nondecreasing in the majored constant h, so the Cheeger kernel stops at the
first set with m * (h/2, h) within (lo, up); the float bracket at that set
decides, and if float rounding puts it above a row the search runs in full.
Other p evaluate in full: the p = 2 lower end needs a bound on lambda2 of
its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Optional

from . import kernels
from .cheeger import (EXACT_LIMIT, _mask_to_set, certified_lp_lower,
                      majored_lp_lower, validate_exponent)
from .errors import ExactSearchInfeasible
from .graphs import Graph, induced_subgraph
from .spectral import lambda2

DEFAULT_SUBGRAPH_BUDGET = 300_000
DEFAULT_CUT_BUDGET = 2_000_000
_UNSEEN = object()


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
    """Yield (subset, key) for each connected induced subgraph with at most
    n_max vertices, by increasing size and in ``kernels.connected_subsets``
    order within a size: the subset mask, and per member in increasing order
    its neighbours as a mask over member positions. Member u of the subset S
    is at position popcount(S & ((1 << u) - 1))."""
    masks = G.neighbor_masks
    subsets = kernels.connected_subsets(masks, G.vertex_count, n_max, budget)
    subsets.sort(key=int.bit_count)
    for subset in subsets:
        key, rest = [], subset
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs, acc = masks[low.bit_length() - 1] & subset, 0
            while nbrs:
                low = nbrs & -nbrs
                acc |= 1 << (subset & (low - 1)).bit_count()
                nbrs ^= low
            key.append(acc)
        yield subset, tuple(key)


def _sup_rows(G: Graph, n_max: int, budget: int, evaluate,
              exact: bool) -> list[ProfileRow]:
    """Rows n = 1..n_max of the sup over connected induced subgraphs with at
    most n vertices of evaluate(key, lo, up), which returns the subgraph's
    (lower, upper) floats or None when neither exceeds the running row
    values lo and up."""
    rows: list[ProfileRow] = []
    lo, up, witness = 0.0, 0.0, None
    values: dict[tuple, Optional[tuple[float, float]]] = {}
    for m, group in groupby(_subgraphs(G, n_max, budget),
                            key=lambda sub: len(sub[1])):
        for subset, key in group:
            value = values.get(key, _UNSEEN)
            if value is _UNSEEN:
                value = values[key] = evaluate(key, lo, up)
            if value is None:
                continue
            if value[0] > lo:
                lo = value[0]
            if value[1] > up:
                up, witness = value[1], _mask_to_set(subset)
        rows.append(ProfileRow(n=m, lower=lo, upper=up, exact=exact,
                               witness=witness))
    # Connected subgraphs of every size up to the largest exist, so only the
    # sizes above the largest component can be missing.
    rows += [ProfileRow(n=n, lower=lo, upper=up, exact=exact, witness=witness)
             for n in range(len(rows) + 1, n_max + 1)]
    return rows


def separation_profile_exact(G: Graph, n_max: int,
                             budget: int = DEFAULT_SUBGRAPH_BUDGET) -> ProfileTable:
    """Exact sep(n) = max half-cut over connected induced subgraphs, n <= n_max."""
    _validate_n_max(n_max)

    def half_cut(key, lo, up):
        # lo == up: every half-cut value is its own lower and upper end. The
        # search from t vertices finds a cut of t exactly when the half-cut
        # is at most t; otherwise its first cut is the half-cut.
        m, t = len(key), int(up)
        if t >= m:
            return None
        mask, _ = kernels.min_cut_exact(key, m, 1, 2, m, DEFAULT_CUT_BUDGET,
                                        min_k=t)
        size = float(mask.bit_count())
        return None if size == t else (size, size)

    return ProfileTable(_sup_rows(G, min(n_max, G.vertex_count), budget,
                                  half_cut, True))


def _hp_bracket(key, p: float, maj: Fraction):
    """Certified [lower, upper] for the sup-gradient L^p constant of the
    subgraph with neighbour masks key, from the majored constant and, for
    p=2, the gap."""
    m = len(key)
    if m == 2:
        return 2.0, 2.0  # two connected vertices form K2; h_p(K2) = 2
    h_maj = float(maj)
    if p == 2:
        sub = Graph(m, [(u, v) for u in range(m) for v in range(u + 1, m)
                        if key[u] >> v & 1])
        h2mod = math.sqrt(2.0 * lambda2(sub).lambda2)
        deg = sub.max_degree()
        lower = h2mod / math.sqrt(deg) if deg else 0.0
        upper = min(math.sqrt(2.0) * h2mod, 2.0 * math.sqrt(h_maj))
        return lower, upper
    upper = h_maj if p == 1 else 2.0 * h_maj ** (1.0 / p)
    return majored_lp_lower(h_maj, p), upper


def _p1_stop(run_lo: float, run_up: float, m: int) -> float:
    """The majored ratio at or below which the p = 1 bracket of an m-vertex
    subgraph, m * (h/2, h), stays within the rows run_lo and run_up."""
    return min(run_up, 2.0 * run_lo) / m


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

    def scaled_bracket(key, run_lo, run_up):
        m = len(key)
        if m < 2:
            return 0.0, 0.0
        stop = _p1_stop(run_lo, run_up, m) if p == 1 and m > 2 else None
        num, size, _ = kernels.cheeger_exhaustive(
            key, m, kernels.MODE_MAJORED, stop=stop)
        lo, up = _hp_bracket(key, p, Fraction(num, size))
        if stop is not None:
            if m * lo <= run_lo and m * up <= run_up:
                return None
            if Fraction(num, size) <= stop:
                # Stopped, yet the bracket at the stopped set exceeds a row:
                # float rounding at the edge of the stop. Search in full.
                num, size, _ = kernels.cheeger_exhaustive(
                    key, m, kernels.MODE_MAJORED)
                lo, up = _hp_bracket(key, p, Fraction(num, size))
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
