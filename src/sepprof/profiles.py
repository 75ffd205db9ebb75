"""Separation and Poincare profiles of finite host graphs.

Both exact profiles are one sup over the connected induced subgraphs with at
most n vertices, taken by one driver, ``_sup_rows``; each profile only says
how to evaluate the subgraphs of one size. Removing edges never increases a
half-cut or an L^p constant (balls shrink, so gradients shrink pointwise),
and disconnected subgraphs contribute 0, so the sup is attained on
connected induced ones.

The connected subsets are enumerated size by size as numpy arrays
(``_connected_subsets``, which ``kernels.connected_subsets`` also returns),
each size in the pre-order of a depth-first search restricted to that size.
The search's state is (subset, candidates, excluded), and its roots are the
vertices in increasing order, each alone with its neighbours above it as
candidates: a state's children take its candidates in increasing order,
each child adding its earlier siblings to its excluded set and the new
vertex's neighbours at or above the root to its candidates, and a subset is
output when its state is entered. A level here is all the states of one
size, built from the previous level parent by parent, each parent's
children in that same order. In pre-order, two subsets of one size are
ordered as their ancestors are at the first size where those differ: two
children of one parent, ordered by that parent's candidates. A level
orders them the same way, since it keeps its parents' order and lists each
parent's children in candidate order; so each level is the pre-order
restricted to its size.

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

The driver prunes exactly, and in one place. It visits the keys by
increasing size, in order of first appearance within a size, so while it is
at size m the running row values lo and up are max(row(m - 1), best of size
m so far). A subgraph whose lower end is at most lo and upper end at most up
changes no row: it raises neither maximum, and as it does not strictly raise
up it is not a witness either. So, per size, an evaluator returns one array
pre-pass over the keys, in chunks of ``_chunk_rows(m)`` keys: a bound on
each key's lower end and one on its upper end. The driver visits only the
keys whose bounds exceed the running rows at the start of the size, and
rechecks each one when it reaches it, since lo and up grow within a size.
A visited key is evaluated with lo and up; the evaluator may answer None
when a threshold form of its kernel (see ``kernels``) shows that it cannot
raise them.

A key's half-cut is the least size of a set C whose removal leaves
components of at most m // 2 vertices each; removing every member is such a
set, so m bounds it. The separation pre-pass bounds it further below 64
members by each key's least boundary cut (``_boundary_cuts``): over the
prefix sets P = {0..j-1} and the suffix sets P = {m-j..m-1}, 1 <= j <= m // 2,
the outer boundary C = N(P) \\ P wherever the rest, m - j - |C| vertices, is
at most m // 2. Removing C leaves no edge between P and the rest, so every
component lies in P or in the rest, and C is such a set. The pass also takes
e - m + 2, e the key's edge count: a connected key has cycle rank
c = e - m + 1, and at most c + 1 vertices form such a set. Removing a vertex
that lies on a cycle lowers the cycle rank by at least 1 (two of its
neighbours stay connected, so it splits its component into at most deg - 1
parts), so at most c removals leave a forest. At most one tree of that
forest has more than m // 2 vertices, and removing its centroid leaves parts
of at most half its size. Both ends of a half-cut are the half-cut, and the
rows are integers, so a visited key's bound exceeds t = int(up), and t < m.
It gets one cut search over the sizes t..m: a cut of exactly t vertices
means it cannot raise a row, and a larger first cut is the half-cut itself.

Both bracket ends are nondecreasing in the majored constant h: at p = 2
the lower end comes from lambda2 and not from h, and the upper end is
min(sqrt(2) h2mod, 2 sqrt(h)); at every other p they are
majored_lp_lower(h, p) and h (p = 1) or 2 h^(1/p). The Poincare evaluator
reads them from one table per size and exponent (``_bracket_table``): m
times each end at each float of ``_ratios(m)``, made nondecreasing by
running maxima, then +inf for "no bound". At p = 2 the table holds 0 and
2 m sqrt(h), and each use takes the max with the key's own m lower end and
the min with its m sqrt(2) h2mod cap, both exact. A running maximum bounds
the floats of the bracket at its ratio and at every smaller one, however
``pow`` rounds; so the entry at the ratio of any set the Cheeger kernel
searches bounds the key's bracket, the entry at its least ratio. The
pre-pass takes the entry at each key's least prefix or suffix ratio
(``_majored_bounds``), and at p = 2 each key's lambda2 from one stacked
``eigh`` (``spectral.lambda2_stack``). A visited key gets one Cheeger
search whose stop is the ratio of the last entry within both rows (the
entries within are a prefix, ``_entries_within``; at p = 2 none is within
when the key's own lower end exceeds lo). A search that ends at its stop
leaves the key within the rows; one that runs in full returns the key's
least ratio, whose entry is its bracket. So the pruning and the stops are
exact at every p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import kernels
from .cheeger import EXACT_LIMIT, majored_lp_lower, validate_exponent
from .errors import BudgetError, ExactSearchInfeasible
from .graphs import Graph, mask_set, mask_words, word_masks
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

    def value(self, n: int) -> ProfileRow:
        for row in self.rows:
            if row.n == n:
                return row
        raise KeyError(n)


def _validate_n_max(n_max: int) -> None:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")


def _chunk_rows(n: int) -> int:
    """Rows of one chunk of subsets of a host of n vertices, or of keys of
    n members (``_CHUNK_BITS``)."""
    return max(1, _CHUNK_BITS // max(n, 16))


def _vertex_bits(words: np.ndarray, n: int) -> np.ndarray:
    """One uint8 per host vertex 0..n-1 for each row of words."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """The indices, increasing, of the first occurrence of each distinct row
    of keys: for uint rows, the head of each run of equal rows in a stable
    argsort of the rows as one void value each, which keeps equal rows in
    index order, each row compared with the one before it in sorted order,
    chunk by chunk; for rows of Python ints, a dict from each row to its
    first index. Not ``diagonal._first_equal``'s lexsort: on these rows
    the void argsort is faster and smaller (on a 2-vCPU VM the toy
    separation table, Q3 at kappa 2 and n 32, took 1.37-1.45 s and 52 MB,
    against 1.95-1.98 s and 68 MB with lexsort)."""
    if keys.dtype == object:
        first: dict[tuple, int] = {}
        for i, key in enumerate(map(tuple, keys.tolist())):
            first.setdefault(key, i)
        return np.fromiter(first.values(), dtype=np.intp, count=len(first))
    rows = np.ascontiguousarray(keys)
    rows = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
    order = np.argsort(rows, kind="stable")
    head = np.ones(len(order), dtype=bool)
    step = _chunk_rows(keys.shape[1])
    for start in range(1, len(order), step):
        ranked = rows[order[start - 1:start + step]]
        head[start:start + step] = ranked[1:] != ranked[:-1]
    return np.sort(order[head])


def _connected_subsets(masks, n: int, n_max: int, budget: int) -> list:
    """The subsets of each size m = 1..n_max of a connected induced
    subgraph of the graph of n vertices with neighbour masks masks, in
    increasing m, up to the last size that has any: the subsets of m
    vertices, in the depth-first search's pre-order restricted to that size
    (module docstring), as a (k, W) array of uint64 words, W = ceil(n / 64),
    lowest word first (``graphs.mask_words``).

    A level is the (subset, candidates, excluded) states of one size, each
    with its root, its least vertex: the states the enumeration's depth-first
    search holds (module docstring). Every level is built before any is
    returned, keeping only its subsets, so that BudgetError is raised before
    any subset is evaluated: before a level is built, when the subsets of it
    and of the smaller sizes number more than budget."""
    W = (n + 63) // 64 or 1
    unit = mask_words((1 << v for v in range(n)), W)
    below = mask_words(((1 << v) - 1 for v in range(n)), W)
    nbr = mask_words(masks, W)
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
    order of first appearance in enumeration order, as a (k, m) array, and
    the first subset of each, as a (k, W) array of words
    (``_connected_subsets``). A key lists, per member in increasing order,
    its neighbours as a mask over member positions; member u of the subset S
    is at position popcount(S & ((1 << u) - 1)). The keys of a size are
    built chunk by chunk (``_chunk_keys``) in the narrowest unsigned type
    that holds m bits, uint8 up to uint64, and above 64 members as Python
    ints in an object array, into one array for the size; one
    ``_first_rows`` call over it picks the first occurrences, which are
    moved to the front of that array."""
    n = G.vertex_count
    # Neighbour lists padded with n, the index of an all-zero row.
    width = max([1] + [len(row) for row in G.neighbors])
    nbrs = np.full((width, n), n, dtype=np.intp)
    for u, row in enumerate(G.neighbors):
        nbrs[:len(row), u] = row
    levels = _connected_subsets(G.neighbor_masks, n, n_max, budget)
    step = _chunk_rows(n)
    for m in range(1, len(levels) + 1):
        # Freed once its keys are taken, so that the key passes of the
        # larger sizes hold only the subsets still to come.
        subsets, levels[m - 1] = levels[m - 1], None
        kind = np.min_scalar_type((1 << m) - 1)
        keys = np.empty((len(subsets), m), dtype=kind)
        for start in range(0, len(subsets), step):
            keys[start:start + step] = _chunk_keys(
                subsets[start:start + step], m, nbrs, kind)
        first = _first_rows(keys)
        # Each chunk of first occurrences moves down in place: first is
        # increasing, so first[j] >= j and no later chunk reads those rows.
        for start in range(0, len(first), step):
            at = first[start:start + step]
            keys[start:start + len(at)] = keys[at]
        subsets, keys = subsets[first], keys[:len(first)]
        yield m, subsets, keys
        # Dropped before the next size's keys are built, as the driver
        # drops its own.
        del subsets, keys


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
    most n vertices of their (lower, upper) floats. evaluator(keys) is
    called once per size with that size's (k, m) array of distinct keys and
    returns (lower, upper, evaluate): two float arrays of k bounds on each
    key's lower and upper value, and evaluate(i, lo, up), the floats of
    keys[i], or None when neither exceeds the running row values lo and up.
    Only a key whose bounds exceed the running rows is evaluated (module
    docstring), once, with its first subset as the witness candidate."""
    rows: list[ProfileRow] = []
    lo, up, witness = 0.0, 0.0, None
    for m, subsets, keys in _subgraphs(G, n_max, budget):
        lower, upper, evaluate = evaluator(keys)
        visit = np.flatnonzero((lower > lo) | (upper > up))
        for i, low, high in zip(visit.tolist(), lower[visit].tolist(),
                                upper[visit].tolist()):
            if low <= lo and high <= up:
                continue
            value = evaluate(i, lo, up)
            if value is None:
                continue
            if value[0] > lo:
                lo = value[0]
            if value[1] > up:
                (mask,) = word_masks(subsets[i:i + 1])
                up, witness = value[1], mask_set(mask)
        rows.append(ProfileRow(n=m, lower=lo, upper=up, exact=exact,
                               witness=witness))
        # Freed before the keys of the next size are built.
        del subsets, keys, lower, upper, evaluate
    # Connected subgraphs of every size up to the largest exist, so only the
    # sizes above the largest component can be missing.
    rows += [ProfileRow(n=n, lower=lo, upper=up, exact=exact, witness=witness)
             for n in range(len(rows) + 1, n_max + 1)]
    return rows


def separation_profile_exact(G: Graph, n_max: int,
                             budget: int = DEFAULT_SUBGRAPH_BUDGET) -> ProfileTable:
    """Exact sep(n) = max half-cut over connected induced subgraphs, n <= n_max."""
    _validate_n_max(n_max)

    def half_cuts(keys):
        m = keys.shape[1]
        # One array pre-pass over the keys: m, or below 64 members their
        # least boundary cut or cycle-rank bound (module docstring).
        cuts = np.full(len(keys), float(m))
        step = _chunk_rows(m)
        for start in range(0, len(keys), step) if m <= 63 else ():
            chunk = cuts[start:start + step]
            np.minimum(chunk, _boundary_cuts(
                keys[start:start + step].astype(np.int64)), out=chunk)

        def half_cut(i, lo, up):
            # A search from t = int(up) < m vertices that finds a cut of t
            # raises no row; otherwise its first cut is the half-cut.
            mask, _ = kernels.min_cut_exact(keys[i].tolist(), m, 1, 2, m,
                                            DEFAULT_CUT_BUDGET, min_k=int(up))
            size = float(mask.bit_count())
            return size, size

        return cuts, cuts, half_cut

    return ProfileTable(_sup_rows(G, min(n_max, G.vertex_count), budget,
                                  half_cuts, True))


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


@lru_cache(maxsize=4 * EXACT_LIMIT)
def _bracket_table(m: int, p: float):
    """(h, lower, upper) for keys of m >= 2 members at exponent p: the
    floats of ``_ratios(m)``, increasing, and m times the lower and upper
    bracket ends at each, each end made nondecreasing by a running maximum,
    then a +inf entry in all three for "no bound". At p = 2 the lower end is
    0 and the upper end 2 m sqrt(h), for the key's own lambda2 ends to be
    combined with (module docstring). Read-only, since it is shared."""
    h = np.array([a / b for a, b in _ratios(m)])
    if m == 2:
        lower = upper = np.full(len(h), 2.0)  # K2, whose h_p is 2
    elif p == 2:
        lower, upper = np.zeros(len(h)), 2.0 * np.sqrt(h)
    else:
        lower = majored_lp_lower(h, p)
        upper = h if p == 1 else 2.0 * np.float_power(h, 1.0 / p)
    table = [np.append(end, np.inf) for end in (
        h, np.maximum.accumulate(m * lower), np.maximum.accumulate(m * upper))]
    for column in table:
        column.flags.writeable = False
    return tuple(table)


def _entries_within(table, lo: float, up: float) -> int:
    """How many entries of a ``_bracket_table`` have their lower end at most
    lo and their upper end at most up: both ends are nondecreasing, so they
    are a prefix of the table."""
    _, lower, upper = table
    return int(min(np.searchsorted(lower, lo, "right"),
                   np.searchsorted(upper, up, "right")))


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
            f"{EXACT_LIMIT}; use a smaller n_max")

    def scaled_brackets(keys):
        m, k = keys.shape[1], len(keys)
        if m < 2:
            return np.zeros(k), np.zeros(k), None
        table = h, lower, upper = _bracket_table(m, p)
        # One array pre-pass over the keys: the entry at each key's majored
        # bound, and at p = 2 each key's own lower end and upper cap.
        at = np.empty(k, dtype=np.intp)
        own_lo, cap = np.zeros(k), np.full(k, np.inf)
        step = _chunk_rows(m)
        for start in range(0, k, step):
            masks = keys[start:start + step].astype(np.int64)
            at[start:start + step] = np.searchsorted(h, _majored_bounds(masks))
            if p == 2 and m > 2:
                h2mod = np.sqrt(2.0 * lambda2_stack(masks))
                degree = np.bitwise_count(masks).max(axis=1).astype(float)
                own_lo[start:start + step] = m * (h2mod / np.sqrt(degree))
                cap[start:start + step] = m * (math.sqrt(2.0) * h2mod)

        def scaled_bracket(i, run_lo, run_up):
            within = _entries_within(table, run_lo, run_up) \
                if own_lo[i] <= run_lo else 0
            stop = _ratios(m)[within - 1] if within else None
            num, size, _ = kernels.cheeger_exhaustive(
                keys[i].tolist(), m, kernels.MODE_MAJORED, stop=stop)
            if stop and num * stop[1] <= stop[0] * size:
                return None  # stopped at a set within the rows
            j = np.searchsorted(h, num / size)
            return (max(float(lower[j]), float(own_lo[i])),
                    min(float(upper[j]), float(cap[i])))

        return (np.maximum(lower[at], own_lo), np.minimum(upper[at], cap),
                scaled_bracket)

    return ProfileTable(_sup_rows(G, n_max, budget, scaled_brackets, False))

