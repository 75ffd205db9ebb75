"""Separation and Poincare profiles of finite host graphs.

Both exact profiles are one sup over the connected induced subgraphs with at
most n vertices, taken by one driver, ``_sup_rows``; each profile only says
how to evaluate the subgraphs of one size. Removing edges never increases a
half-cut or an L^p constant (balls shrink, so gradients shrink pointwise),
and disconnected subgraphs contribute 0, so the sup is attained on
connected induced ones.

The connected subsets are enumerated size by size as numpy arrays
(``_connected_subsets``), in the order of ``kernels.connected_subsets``
restricted to each size. That enumeration is a depth-first search whose
state is (subset, candidates, excluded): a state's children take its
candidates in increasing order, each child adding its earlier siblings to
its excluded set and the new vertex's neighbours at or above the root to its
candidates, and a subset is output when its state is entered, so the order
is pre-order. A level here is all the states of one size, built from the
previous level parent by parent, each parent's children in that same order.
In pre-order, two subsets of one size are ordered as their ancestors are
at the first size where those differ: two children of one parent, ordered
by that parent's candidates. A level orders them the same way, since it
keeps its parents' order and lists each parent's children in candidate
order; so each level is the pre-order restricted to its size.

``_subgraphs`` relabels each subgraph in sorted vertex order, so translated
copies of one shape (in a grid, say) give the same key: the tuple of
relabelled neighbour masks. It computes the keys of one size as numpy passes
and yields only the distinct ones, each with the first subgraph, in
enumeration order, that has it; the driver evaluates each of them once. This
is exact because the key is the evaluator's whole input: it is all the
kernels get, and the p = 2 gap and degree are computed from it. An
evaluation is a (lower, upper) pair; row n holds the largest of each over
the subgraphs with at most n vertices, and its witness is the first
subgraph, in enumeration order, that strictly raises the upper value of its
size. A later subgraph with a key already evaluated can do neither: the
first one raised lo and up to at least its values, or they were already
there, and rows only grow.

The driver prunes exactly. It visits the keys by increasing size, in order
of first appearance within a size, so while it is at size m the running row
values lo and up are max(row(m - 1), best of size m so far). A subgraph
whose lower end is at most lo and upper end at most up changes no row: it
raises neither maximum, and as it does not strictly raise up it is not a
witness either. The evaluator is handed lo and up and may answer None for
such a subgraph after deciding only that, with a threshold form of its
kernel (see ``kernels``).

A key's half-cut is the least size of a set C whose removal leaves
components of at most m // 2 vertices each; a key with such a set of at most
t = int(up) vertices cannot raise a row. Before the keys of one size are
visited, one array pass over them, in chunks of ``_chunk_rows(m)`` keys,
takes each key's least boundary cut (``_boundary_cuts``): over the prefix
sets P = {0..j-1} and the suffix sets P = {m-j..m-1}, 1 <= j <= m // 2, the
outer boundary C = N(P) \\ P wherever the rest, m - j - |C| vertices, is at
most m // 2. Removing C leaves no edge between P and the rest, so every
component lies in P or in the rest, and C is such a set. The pass also
takes e - m + 2, e the key's edge count: a connected key has cycle rank
c = e - m + 1, and at most c + 1 vertices form such a set. Removing a
vertex that lies on a cycle lowers the cycle rank by at least 1 (two of its
neighbours stay connected, so it splits its component into at most
deg - 1 parts), so at most c removals leave a forest. At most one tree of
that forest has more than m // 2 vertices, and removing its centroid leaves
parts of at most half its size. A key whose least such bound is at most t
is therefore answered None with no kernel call. The driver visits only the
keys whose bound exceeds t at the start of the size: within a size t only
grows, so a key whose bound is at most t then is at most t at its visit.
Every other key gets one cut search over the sizes t..m: a cut of exactly t
vertices means it cannot raise a row, and a larger first cut is the half-cut
itself. Keys wider than 63 bits skip the pass and are all searched.

Both bracket ends are nondecreasing in the majored constant h: at p = 2
the lower end comes from lambda2 and not from h, and the upper end is
min(sqrt(2) h2mod, 2 sqrt(h)); at every other p they are
majored_lp_lower(h, p) and h (p = 1) or 2 h^(1/p). So a bracket taken at
any ratio of a set the Cheeger kernel searches bounds the key's own, and
if it is within both rows the key changes none. Before the keys of one
size are visited, one array pass over them, in chunks of ``_chunk_rows(m)``
keys, takes such a ratio per key, the least over its prefix and suffix sets
(``_majored_bounds``), and at p = 2 each key's lambda2 from one stacked
``eigh`` (``spectral.lambda2_stack``). A key whose bracket at that bound is
within the rows is skipped with no kernel call.

Every other key gets one Cheeger search with a stop: the largest ratio a/b
a set of the key can have (``_ratios``) whose bracket is within both rows,
found by bisection (``_largest_within``), the same test as the skip. The
kernel ends at the first set whose ratio is at most a/b; the key's minimum
is at most that ratio, so its bracket is within the rows and the search is
final. A search that does not stop runs in full and returns the key's own
minimum. At p = 2 the lambda2 end depends on no ratio: when it exceeds lo,
no ratio is within, and the search has no stop.

The float bracket is monotone over these ratios as well, so the skips and
the stops are exact in floats. At p = 2, sqrt and min are monotone and
correctly rounded. At every other p, products are correctly rounded, and
two distinct majored ratios at most m <= 22, with denominators at most 11,
differ by a factor of at least 1 + 1/2662, so their p-th roots differ by a
relative 3.7e-4 / p, far more than the sub-ulp error of ``pow`` for p up
to ``_PRUNE_MAX_P``; a smaller ratio never gets a larger float upper end.
Above that p nothing is pruned and nothing stops.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import kernels
from .cheeger import (EXACT_LIMIT, _mask_to_set, certified_lp_lower,
                      majored_lp_lower, validate_exponent)
from .errors import BudgetError, ExactSearchInfeasible
from .graphs import Graph, induced_subgraph
from .spectral import lambda2_stack
# Not called here; kept as a module attribute, since the benchmark tracer
# rebinds lambda2 in every module that imported it and its test checks this
# one.
from .spectral import lambda2  # noqa: F401

DEFAULT_SUBGRAPH_BUDGET = 300_000
DEFAULT_CUT_BUDGET = 2_000_000
# A level is built, and its keys computed, in chunks of at most this many
# host-vertex bits: 2,048 subsets or parents on at most 16 vertices, 910 on
# grid 6x6; the distinct keys of a size go through the evaluators' array
# pre-passes in chunks of at most this many members, 2,048 keys of at most 16
# members.
_CHUNK_BITS = 1 << 15
# The largest p at which the float bracket is monotone in h (module docstring).
_PRUNE_MAX_P = 1e9


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


def _chunk_rows(n: int) -> int:
    """Rows of one chunk of subsets of a host of n vertices, or of keys of
    n members (``_CHUNK_BITS``)."""
    return max(1, _CHUNK_BITS // max(n, 16))


def _words(masks, W: int) -> np.ndarray:
    """The vertex masks as rows of W uint64 words, lowest word first."""
    data = b"".join(mask.to_bytes(8 * W, "little") for mask in masks)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(-1, W)


def _vertex_bits(words: np.ndarray, n: int) -> np.ndarray:
    """One uint8 per host vertex 0..n-1 for each row of words."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


def _subset_int(words: np.ndarray) -> int:
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """The indices, increasing, of the first occurrence of each distinct row
    of keys: for uint rows, the head of each run of equal rows in a stable
    argsort of the rows as one void value each, which keeps equal rows in
    index order; for rows of Python ints, a dict from each row to its first
    index."""
    if keys.dtype == object:
        first: dict[tuple, int] = {}
        for i, key in enumerate(map(tuple, keys.tolist())):
            first.setdefault(key, i)
        return np.fromiter(first.values(), dtype=np.intp, count=len(first))
    rows = np.ascontiguousarray(keys)
    rows = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    return np.sort(order[head])


def _connected_subsets(G: Graph, n_max: int, budget: int) -> list:
    """The subsets of each size m = 1..n_max of a connected induced
    subgraph, in increasing m, up to the last size that has any: the subsets
    of m vertices, in ``kernels.connected_subsets`` order restricted to that
    size, as a (k, W) array of uint64 words, W = ceil(n / 64), lowest word
    first.

    A level is the (subset, candidates, excluded) states of one size, each
    with its root, its least vertex: the states the enumeration's depth-first
    search holds (module docstring). Every level is built before any is
    returned, keeping only its subsets, so that BudgetError is raised, as the
    kernels raise it, before any subset is evaluated: before a level is
    built, when the subsets of it and of the smaller sizes number more than
    budget."""
    n = G.vertex_count
    W = (n + 63) // 64 or 1
    unit = _words((1 << v for v in range(n)), W)
    below = _words(((1 << v) - 1 for v in range(n)), W)
    nbr = _words(G.neighbor_masks, W)
    # Level 1: each vertex alone, its candidates the neighbours above it.
    level = unit, nbr & ~below & ~unit, np.zeros_like(unit), np.arange(n)
    levels, total, size = [], 0, n
    for m in range(1, min(n_max, n) + 1):
        if not size:
            break
        total += size
        if total > budget:
            raise BudgetError(f"connected-subgraph enumeration exceeded "
                              f"budget of {budget}")
        if m > 1:
            level = _next_level(level, size, unit, below, nbr)
        levels.append(level[0])
        size = int(np.bitwise_count(level[1]).sum())
    return levels


def _next_level(level, size: int, unit, below, nbr):
    """The next level: the size children of the states of level, by parent
    and, within a parent, by increasing added vertex v. Each child adds v
    to its subset, its parent's candidates below v (its earlier siblings)
    to its excluded set, and v's neighbours at or above the root to its
    candidates. The parents are taken in chunks of ``_chunk_rows(n)``, each
    writing its children into the next rows."""
    subsets, cands, excluded, roots = level
    new = [np.empty((size, subsets.shape[1]), dtype=np.uint64)
           for _ in range(3)] + [np.empty(size, dtype=np.intp)]
    end = 0
    step = _chunk_rows(len(unit))
    for start in range(0, len(subsets), step):
        chunk = _vertex_bits(cands[start:start + step], len(unit))
        parent, v = np.nonzero(chunk)
        parent += start
        child, cand, exc, root = (array[end:end + len(v)] for array in new)
        end += len(v)
        np.bitwise_or(subsets[parent], unit[v], out=child)
        np.take(roots, parent, out=root, mode="clip")
        np.take(cands, parent, axis=0, out=cand, mode="clip")
        np.bitwise_and(cand, below[v], out=exc)
        exc |= excluded[parent]
        cand |= nbr[v] & ~below[root]
        cand &= ~(child | exc)
    return new


def _subgraphs(G: Graph, n_max: int, budget: int):
    """Yield (m, subsets, keys) for each size m = 1..n_max of a connected
    induced subgraph, in increasing m: the distinct keys of that size in
    order of first appearance in ``kernels.connected_subsets`` order, as a
    (k, m) array, and the first subset of each, as a (k, W) array of words
    (``_connected_subsets``). A key lists, per member in increasing order,
    its neighbours as a mask over member positions; member u of the subset S
    is at position popcount(S & ((1 << u) - 1)). The keys of a size are
    built chunk by chunk (``_chunk_keys``) in the narrowest unsigned type
    that holds m bits, uint8 up to uint64, and above 64 members as Python
    ints in an object array; one ``_first_rows`` call over all of them
    picks the first occurrences."""
    n = G.vertex_count
    # Neighbour lists padded with n, the index of an all-zero row.
    width = max([1] + [len(row) for row in G.neighbors])
    nbrs = np.full((width, n), n, dtype=np.intp)
    for u, row in enumerate(G.neighbors):
        nbrs[:len(row), u] = row
    levels = _connected_subsets(G, n_max, budget)
    step = _chunk_rows(n)
    for m in range(1, len(levels) + 1):
        # Freed once its keys are taken, so that the key passes of the
        # larger sizes hold only the subsets still to come.
        subsets, levels[m - 1] = levels[m - 1], None
        kind = np.min_scalar_type((1 << m) - 1)
        keys = np.concatenate([
            _chunk_keys(subsets[start:start + step], m, nbrs, kind)
            for start in range(0, len(subsets), step)])
        first = _first_rows(keys)
        subsets, keys = subsets[first], keys[first]
        yield m, subsets, keys


def _chunk_keys(subsets: np.ndarray, m: int, nbrs: np.ndarray, kind):
    """The (c, m) keys of a chunk of c subsets of m vertices: each subset
    unpacked to one bit per host vertex, the positions as the running count
    of those bits, each vertex's column bit_v << position_v, each vertex's
    entry as the OR of its neighbours' columns, and the members' entries
    selected by the bits. The passes run on (n, c) arrays, so each
    neighbour gather copies whole rows."""
    width, n = nbrs.shape
    bits = _vertex_bits(subsets, n)
    pos = np.cumsum(bits.T, axis=0, dtype=np.uint8 if m < 256 else None)
    pos -= bits.T
    # Row n stays 0: the zero row the padded lists point at.
    column = np.zeros((n + 1, len(bits)), dtype=kind)
    np.left_shift(bits.T, pos, out=column[:n], dtype=kind)
    entries = np.take(column, nbrs[0], axis=0)
    scratch = np.empty_like(entries)
    for d in range(1, width):
        entries |= np.take(column, nbrs[d], axis=0, out=scratch, mode="clip")
    return entries.T[bits.view(bool)].reshape(len(bits), m)


def _sup_rows(G: Graph, n_max: int, budget: int, evaluator,
              exact: bool) -> list[ProfileRow]:
    """Rows n = 1..n_max of the sup over connected induced subgraphs with at
    most n vertices of their (lower, upper) floats. evaluator(keys, lo, up)
    is called once per size with that size's (k, m) array of distinct keys
    and the running row values lo and up at its start, and returns (visit,
    evaluate): the indices, increasing, of the keys that may raise a row,
    and evaluate(i, lo, up), the floats of keys[i] or None when neither
    exceeds the running row values lo and up. Each visited key is evaluated
    once, with its first subset as the witness candidate."""
    rows: list[ProfileRow] = []
    lo, up, witness = 0.0, 0.0, None
    for m, subsets, keys in _subgraphs(G, n_max, budget):
        visit, evaluate = evaluator(keys, lo, up)
        for i in visit:
            value = evaluate(i, lo, up)
            if value is None:
                continue
            if value[0] > lo:
                lo = value[0]
            if value[1] > up:
                up, witness = value[1], _mask_to_set(_subset_int(subsets[i]))
        rows.append(ProfileRow(n=m, lower=lo, upper=up, exact=exact,
                               witness=witness))
        # Freed before the keys of the next size are built.
        del subsets, keys, visit, evaluate
    # Connected subgraphs of every size up to the largest exist, so only the
    # sizes above the largest component can be missing.
    rows += [ProfileRow(n=n, lower=lo, upper=up, exact=exact, witness=witness)
             for n in range(len(rows) + 1, n_max + 1)]
    return rows


def separation_profile_exact(G: Graph, n_max: int,
                             budget: int = DEFAULT_SUBGRAPH_BUDGET) -> ProfileTable:
    """Exact sep(n) = max half-cut over connected induced subgraphs, n <= n_max."""
    _validate_n_max(n_max)

    def half_cuts(keys, lo, up):
        m = keys.shape[1]
        # One array pre-pass over the keys: their least boundary cuts. The
        # row t = int(up) only grows within a size, so a key whose cut is
        # at most t now is never visited (module docstring).
        cuts = [math.inf] * len(keys)
        visit = range(len(keys)) if int(up) < m else ()
        if m <= 63 and visit:
            step = _chunk_rows(m)
            cuts = np.concatenate([
                _boundary_cuts(keys[start:start + step].astype(np.int64))
                for start in range(0, len(keys), step)])
            visit = np.flatnonzero(cuts > int(up)).tolist()
            cuts = cuts.tolist()

        def half_cut(i, lo, up):
            # lo == up: every half-cut value is its own lower and upper end.
            # A boundary cut of at most t, or a search from t vertices that
            # finds a cut of t, means the half-cut is at most t; otherwise
            # the search's first cut is the half-cut.
            t = int(up)
            if t >= m or cuts[i] <= t:
                return None
            mask, _ = kernels.min_cut_exact(keys[i].tolist(), m, 1, 2, m,
                                            DEFAULT_CUT_BUDGET, min_k=t)
            size = float(mask.bit_count())
            return None if size == t else (size, size)

        return visit, half_cut

    return ProfileTable(_sup_rows(G, min(n_max, G.vertex_count), budget,
                                  half_cuts, True))


def _hp_bracket(key, p: float, h_maj: float, gap=None):
    """Certified [lower, upper] for the sup-gradient L^p constant of the
    subgraph with neighbour masks key, from the float h_maj of its majored
    constant and, for p = 2, gap: the subgraph's lambda2 and maximum
    degree."""
    m = len(key)
    if m == 2:
        return 2.0, 2.0  # two connected vertices form K2; h_p(K2) = 2
    if p == 2:
        lam, deg = gap
        h2mod = math.sqrt(2.0 * lam)
        lower = h2mod / math.sqrt(deg) if deg else 0.0
        upper = min(math.sqrt(2.0) * h2mod, 2.0 * math.sqrt(h_maj))
        return lower, upper
    upper = h_maj if p == 1 else 2.0 * h_maj ** (1.0 / p)
    return majored_lp_lower(h_maj, p), upper


def _prefix_suffix_sets(masks: np.ndarray):
    """For a stack (k, m) of neighbour masks, yield (j, A, reach, rest) for
    the prefix set A = {0..j-1} and then the suffix set A = {m-j..m-1} of
    each j = 1..m // 2: A as a mask, and per row the OR of the neighbour
    masks of A's members (reach) and of the other members (rest). Two OR
    accumulations, forward and reversed, give them all."""
    m = masks.shape[1]
    prefix = np.bitwise_or.accumulate(masks, axis=1)
    suffix = np.bitwise_or.accumulate(masks[:, ::-1], axis=1)[:, ::-1]
    for j in range(1, m // 2 + 1):
        low, high = (1 << j) - 1, ((1 << j) - 1) << (m - j)
        yield j, low, prefix[:, j - 1], suffix[:, j]
        yield j, high, suffix[:, m - j], prefix[:, m - j - 1]


def _majored_bounds(masks: np.ndarray) -> np.ndarray:
    """For each row of a stack (k, m), m >= 2, of neighbour masks, the least
    majored ratio over the prefix sets {0..j-1} and the suffix sets
    {m-j..m-1}, 1 <= j <= m/2: an upper bound on the majored constant that is
    itself the ratio of a set the Cheeger kernel searches.

    A set's count is its outer boundary plus its members adjacent to the
    rest. The ratios count/j are compared as floats: division is correctly
    rounded, so equal ratios give equal floats and a smaller ratio never
    gives a larger float, and the least float is the float of the least
    ratio."""
    best = np.full(len(masks), np.inf)
    for j, A, reach, rest in _prefix_suffix_sets(masks):
        count = np.bitwise_count(reach & ~A) + np.bitwise_count(rest & A)
        np.minimum(best, count / j, out=best)
    return best


def _boundary_cuts(masks: np.ndarray) -> np.ndarray:
    """For each row of a stack (k, m) of neighbour masks of connected keys,
    the least of e - m + 2, e the row's edge count, and the size of the
    outer boundary C = N(A) \\ A of each prefix or suffix set A of
    j <= m // 2 members whose rest, m - j - |C| members, is at most m // 2.
    Removing that many vertices, suitably chosen, leaves components of at
    most m // 2 members each (module docstring)."""
    m = masks.shape[1]
    edges = np.bitwise_count(masks).sum(axis=1, dtype=np.int64) // 2
    best = (edges - m + 2).astype(float)  # the cycle rank plus 1
    for j, A, reach, _ in _prefix_suffix_sets(masks):
        cut = np.bitwise_count(reach & ~A)
        # The rest, m - j - |C| members, is at most m // 2.
        np.minimum(best, np.where(cut >= (m + 1) // 2 - j, cut, np.inf),
                   out=best)
    return best


@lru_cache(maxsize=EXACT_LIMIT)
def _ratios(m: int) -> tuple[tuple[int, int], ...]:
    """The distinct majored ratios a/b a set of an m-vertex key can have,
    count a <= m and size 1 <= b <= m // 2, in increasing order and lowest
    terms."""
    return tuple((r.numerator, r.denominator) for r in sorted(
        {Fraction(a, b) for b in range(1, m // 2 + 1) for a in range(m + 1)}))


def _largest_within(m: int, within) -> Optional[tuple[int, int]]:
    """The largest of ``_ratios(m)`` whose float passes within, or None when
    none does. within holds on a prefix of them (module docstring), so a
    bisection asks it at most 8 times, m <= 22."""
    ratios = _ratios(m)
    i = bisect_left(ratios, True, key=lambda r: not within(r[0] / r[1]))
    return ratios[i - 1] if i else None


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

    def scaled_brackets(keys, run_lo, run_up):
        m = keys.shape[1]
        if m < 2:
            return range(len(keys)), lambda i, run_lo, run_up: (0.0, 0.0)
        # One array pre-pass over the keys: their majored bounds, and at
        # p = 2 their lambda2 and maximum degree. Above _PRUNE_MAX_P nothing
        # is pruned.
        prune = p <= _PRUNE_MAX_P
        bounds, gaps, step = [], [], _chunk_rows(m)
        for start in range(0, len(keys), step) if prune else ():
            masks = keys[start:start + step].astype(np.int64)
            bounds += _majored_bounds(masks).tolist()
            if p == 2:
                gaps += zip(lambda2_stack(masks).tolist(),
                            np.bitwise_count(masks).max(axis=1).tolist())

        def scaled_bracket(i, run_lo, run_up):
            key, gap = keys[i], gaps[i] if gaps else None

            def within(h):
                lo, up = _hp_bracket(key, p, h, gap)
                return m * lo <= run_lo and m * up <= run_up

            stop = None
            if prune:
                if within(bounds[i]):
                    return None
                stop = _largest_within(m, within)
            num, size, _ = kernels.cheeger_exhaustive(
                key.tolist(), m, kernels.MODE_MAJORED, stop=stop)
            if stop and num * stop[1] <= stop[0] * size:
                return None  # stopped at a set within the rows
            lo, up = _hp_bracket(key, p, num / size, gap)
            return m * lo, m * up

        return range(len(keys)), scaled_bracket

    return ProfileTable(_sup_rows(G, n_max, budget, scaled_brackets, False),
                        p)


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
