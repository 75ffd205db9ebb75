"""Separation and Poincare profiles of finite host graphs.

The supremum over subgraphs with at most n vertices is taken over connected
induced subgraphs only: removing edges never increases a half-cut or an L^p
constant (balls shrink, so gradients shrink pointwise), and disconnected
subgraphs contribute 0, so the sup is attained on connected induced ones.

Each subgraph is relabelled in sorted vertex order before it reaches a
kernel, so translated copies of one shape (in a grid, say) give the same
tuple of neighbour masks. One profile call evaluates each distinct tuple
once and reuses the result for the other subgraphs that share it. This is
exact: the tuple is the kernel's whole input, and it also fixes the
relabelled induced subgraph that ``lambda2`` and ``max_degree`` see, so
every bound is the value a fresh call would give. Witnesses still come from
the first subgraph, in enumeration order, that improves a row. The memo is
local to the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import kernels
from .cheeger import EXACT_LIMIT, certified_lp_lower, validate_exponent
from .errors import ExactSearchInfeasible
from .graphs import Graph, induced_subgraph
from .spectral import lambda2

DEFAULT_SUBGRAPH_BUDGET = 300_000
DEFAULT_CUT_BUDGET = 2_000_000

HALF = Fraction(1, 2)


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


def _induced_masks(masks, vertices):
    remap = {v: i for i, v in enumerate(vertices)}
    out = []
    for v in vertices:
        m = masks[v]
        acc = 0
        for u in vertices:
            if m >> u & 1:
                acc |= 1 << remap[u]
        out.append(acc)
    return out


def _validate_n_max(n_max: int) -> None:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")


def _subset_list(G: Graph, n_max: int, budget: int):
    subsets = kernels.connected_subsets(
        G.neighbor_masks, G.vertex_count, n_max, budget)
    out = []
    for mask in subsets:
        verts = []
        m = mask
        while m:
            low = m & -m
            verts.append(low.bit_length() - 1)
            m ^= low
        out.append(tuple(verts))
    return out


def separation_profile_exact(G: Graph, n_max: int,
                             budget: int = DEFAULT_SUBGRAPH_BUDGET,
                             cut_budget: int = DEFAULT_CUT_BUDGET) -> ProfileTable:
    """Exact sep(n) = max half-cut over connected induced subgraphs, n <= n_max."""
    _validate_n_max(n_max)
    n_max = min(n_max, G.vertex_count)
    best = [0] * (n_max + 1)
    witness: list[Optional[frozenset]] = [None] * (n_max + 1)
    cut_sizes: dict[tuple, int] = {}
    for verts in _subset_list(G, n_max, budget):
        m = len(verts)
        key = tuple(_induced_masks(G.neighbor_masks, verts))
        size = cut_sizes.get(key)
        if size is None:
            mask, _ = kernels.min_cut_exact(key, m, 1, 2, m, cut_budget)
            size = cut_sizes[key] = mask.bit_count()
        if size > best[m]:
            best[m] = size
            witness[m] = frozenset(verts)
    rows = []
    run, run_wit = 0, None
    for n in range(1, n_max + 1):
        if best[n] > run:
            run, run_wit = best[n], witness[n]
        rows.append(ProfileRow(n=n, lower=float(run), upper=float(run),
                               exact=True, witness=run_wit))
    return ProfileTable(rows=rows)


def _hp_bracket(G: Graph, verts, p: float, maj: Fraction):
    """Certified [lower, upper] for the sup-gradient L^p constant of the
    induced subgraph, from the majored constant and, for p=2, the gap."""
    m = len(verts)
    if m == 2:
        return 2.0, 2.0  # two connected vertices form K2; h_p(K2) = 2
    h_maj = float(maj)
    if p == 1:
        return h_maj / 2.0, h_maj
    if p == 2:
        sub = induced_subgraph(G, verts)
        h2mod = math.sqrt(2.0 * lambda2(sub).lambda2)
        deg = sub.max_degree()
        lower = h2mod / math.sqrt(deg) if deg else 0.0
        upper = min(math.sqrt(2.0) * h2mod, 2.0 * math.sqrt(h_maj))
        return lower, upper
    lower = min(1.0 / 12.0, (4.0 ** -p) / 2.0) * h_maj / 2.0
    upper = 2.0 * h_maj ** (1.0 / p)
    return lower, upper


def poincare_profile(G: Graph, n_max: int, p: float,
                     mode: str = "exact_small",
                     subgraphs=None,
                     budget: int = DEFAULT_SUBGRAPH_BUDGET) -> ProfileTable:
    """Poincare profile rows sup |V(H)| * h_p(H) over subgraphs with <= n
    vertices.

    exact_small brackets every connected induced subgraph (certified lower
    and upper per row); witness_lower reports certified lower bounds for a
    supplied family of vertex sets.
    """
    validate_exponent(p)
    _validate_n_max(n_max)
    if mode == "witness_lower":
        if subgraphs is None:
            raise ValueError("witness_lower mode needs a subgraph family")
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
    if mode != "exact_small":
        raise ValueError(f"unknown mode {mode!r}")
    n_max = min(n_max, G.vertex_count)
    if n_max > EXACT_LIMIT:
        raise ExactSearchInfeasible(
            f"exact profile search infeasible for n_max {n_max} > "
            f"{EXACT_LIMIT}; use a smaller n_max or mode='witness_lower'")
    best_lo = [0.0] * (n_max + 1)
    best_up = [0.0] * (n_max + 1)
    witness: list[Optional[frozenset]] = [None] * (n_max + 1)
    brackets: dict[tuple, tuple[float, float]] = {}
    for verts in _subset_list(G, n_max, budget):
        m = len(verts)
        if m < 2:
            continue
        key = tuple(_induced_masks(G.neighbor_masks, verts))
        bracket = brackets.get(key)
        if bracket is None:
            num, size, _ = kernels.cheeger_exhaustive(
                key, m, kernels.MODE_MAJORED)
            bracket = brackets[key] = _hp_bracket(
                G, verts, p, Fraction(num, size))
        lo, up = bracket
        if m * lo > best_lo[m]:
            best_lo[m] = m * lo
        if m * up > best_up[m]:
            best_up[m] = m * up
            witness[m] = frozenset(verts)
    rows = []
    run_lo, run_up, run_wit = 0.0, 0.0, None
    for n in range(1, n_max + 1):
        if best_up[n] > run_up:
            run_up, run_wit = best_up[n], witness[n]
        run_lo = max(run_lo, best_lo[n])
        rows.append(ProfileRow(n=n, lower=run_lo, upper=run_up,
                               exact=False, witness=run_wit))
    return ProfileTable(rows=rows, p=p)
