"""Vertex cuts: exact epsilon-cuts, a spectral heuristic, and the iterated
halving procedure that turns 1/2-cuts into s-cuts.

All component-size comparisons are exact: a set is an s-cut (s = num/den)
iff den * |component| <= num * |V| for every remaining component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .graphs import Graph, connected_components, induced_subgraph, mask_set
from .spectral import fiedler_vector

DEFAULT_CUT_BUDGET = 5_000_000


@dataclass
class CutResult:
    epsilon: Fraction
    cut_set: frozenset
    size: int
    exact: bool
    # Subsets the exact cut kernel examined (summed over the halving's cuts).
    examined: int = 0


def is_cut_set(G: Graph, S, s: Fraction) -> bool:
    """Whether every component of G - S has at most s |V| vertices; S must
    name vertices of G."""
    n = G.vertex_count
    return all(s.denominator * len(comp) <= s.numerator * n
               for comp in connected_components(G, S))


def _result(G: Graph, s: Fraction, S, exact: bool,
            examined: int = 0) -> CutResult:
    S = frozenset(S)
    if not is_cut_set(G, S, s):
        raise AssertionError("produced set fails the exact cut validation")
    return CutResult(epsilon=s, cut_set=S, size=len(S), exact=exact,
                     examined=examined)


def _heuristic_cut_set(G: Graph, s: Fraction) -> frozenset:
    """Spectral bisection plus greedy removal; always returns a valid set."""
    n = G.vertex_count
    removed: set[int] = set()
    while True:
        comps = [c for c in connected_components(G, removed)
                 if s.denominator * len(c) > s.numerator * n]
        if not comps:
            break
        comp = sorted(max(comps, key=len))
        H = induced_subgraph(G, comp)
        if H.vertex_count == 1:
            removed.add(comp[0])
            continue
        order = np.argsort(fiedler_vector(H))
        half = H.vertex_count // 2
        left = set(int(v) for v in order[:half])
        # Internal boundary of the right side separates the two halves.
        sep = {v for v in range(H.vertex_count) if v not in left
               and any(u in left for u in H.neighbors[v])}
        if not sep:
            sep = {int(order[half])}
        removed.update(comp[v] for v in sep)
    # Greedy minimality pass.
    for v in sorted(removed):
        trial = removed - {v}
        if is_cut_set(G, trial, s):
            removed = trial
    return frozenset(removed)


def cut(G: Graph, s, mode: str = "exact",
        budget: int = DEFAULT_CUT_BUDGET) -> CutResult:
    """Minimum (exact) or valid (heuristic) s-cut of G.

    Exact mode searches subsets by increasing cardinality and raises a
    BudgetError advising the heuristic when the subset budget runs out.
    """
    s = Fraction(s)
    if not (0 < s <= 1):
        raise ValueError("s must be in (0, 1]")
    n = G.vertex_count
    if n == 0:
        return CutResult(s, frozenset(), 0, True)
    if mode == "exact":
        mask, examined = kernels.min_cut_exact(
            G.neighbor_masks, n, s.numerator, s.denominator, n, budget)
        return _result(G, s, mask_set(mask), exact=True, examined=examined)
    if mode == "heuristic":
        return _result(G, s, _heuristic_cut_set(G, s), exact=False)
    raise ValueError(f"unknown mode {mode!r}")


def iterated_halving_cut(G: Graph, s, budget: int = DEFAULT_CUT_BUDGET) -> CutResult:
    """Build an s-cut (s <= 1/2) by repeated exact 1/2-cuts.

    Stage j brings every component below |V|/2^j: components are packed into
    groups no larger than the previous level's bound, and each group still
    above the target is 1/2-cut. Exact-cut budget errors propagate.
    """
    s = Fraction(s)
    if not (0 < s <= Fraction(1, 2)):
        raise ValueError("s must be in (0, 1/2]")
    n = G.vertex_count
    if n == 0:
        return CutResult(s, frozenset(), 0, True)
    levels = 1
    while Fraction(1, 2 ** levels) > s:
        levels += 1
    half = Fraction(1, 2)
    chosen: set[int] = set()
    first = cut(G, half, "exact", budget=budget)
    chosen.update(first.cut_set)
    examined = first.examined
    for j in range(2, levels + 1):
        prev_cap = Fraction(n, 2 ** (j - 1))
        target = Fraction(n, 2 ** j)
        comps = sorted(connected_components(G, chosen), key=len, reverse=True)
        groups: list[set[int]] = []
        for comp in comps:
            for group in groups:
                if len(group) + len(comp) <= prev_cap:
                    group |= comp
                    break
            else:
                groups.append(set(comp))
        for group in groups:
            if len(group) <= target:
                continue
            group = sorted(group)
            inner = cut(induced_subgraph(G, group), half, "exact",
                        budget=budget)
            chosen.update(group[v] for v in inner.cut_set)
            examined += inner.examined
    return _result(G, s, chosen, exact=False, examined=examined)
