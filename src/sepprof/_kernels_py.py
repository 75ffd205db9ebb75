"""Pure-Python bitmask kernels.

Same contracts and the same results as the compiled versions in
``_kernels.c``: the first minimiser in DFS preorder, the same cut and the
same ``examined``. This module is the fallback selected at import time when
the extension is unavailable (or forced via SEPPROF_PURE_PY=1). Masks are
Python ints, so there is no 64-vertex limit here. Every argument is a plain
integer: ``min_cut_exact`` takes the component-size cap, not a fraction, and
``cheeger_exhaustive`` a stop ratio as a small numerator and denominator.

The large searches run as numpy array passes over the subset lattice and
the small ones as plain Python loops, because numpy's per-call cost loses on
small inputs: a full Cheeger search at n = 3 takes 260 us as arrays and 4 us
as a DFS, and the two meet between 9 and 10 vertices; a block of 16 cut
masks costs twice the scalar checks, a block of 2048 a quarter of them.

- ``cheeger_exhaustive`` without a stop on 10..24 vertices splits the
  vertices into a low and a high half and evaluates every (low subset, high
  subset) pair in chunks of at most 4096 (``_cheeger_array``). Stopped
  searches and smaller graphs take the DFS (``_cheeger_dfs``).
- ``min_cut_exact`` on at most 64 vertices checks its first 256 subsets one
  at a time and the rest of the same enumeration in blocks of at most 2048
  masks (``_components_ok_block``). Above 64 vertices it stays scalar.
"""

from itertools import chain, combinations, islice
from math import lcm

import numpy as np

# Boundary modes for cheeger_exhaustive.
MODE_PLAIN = 0
MODE_MAJORED = 1
MODE_EDGE = 2

# Vertex counts of the Cheeger array path. At 24 vertices a half has 12, so
# one high-half row of low subsets fits in a chunk.
_CHEEGER_ARRAY_MIN_N = 10
_CHEEGER_ARRAY_MAX_N = 24
_CHUNK = 1 << 12
# The cut search checks this many subsets one at a time before switching to
# blocks; most calls end within them. Blocks need masks that fit in uint64.
_CUT_SCALAR = 256
_CUT_BLOCK = 2048
_CUT_BLOCK_MAX_N = 64


class _Stop(Exception):
    """Ends a stopped Cheeger search from inside its recursion."""


def cheeger_exhaustive(masks, n, mode, stop_num=0, stop_den=0):
    """Minimize boundary(A)/|A| over non-empty A with 2|A| <= n.

    Returns (boundary_count, size, subset_mask) for the first minimizer in
    DFS preorder of the sorted vertex tuples (lexicographic order, a prefix
    before its extensions). boundary_count is |external|, |majored| or the
    crossing-edge count depending on mode; masks are those of an undirected
    graph without self-loops.

    With stop_den > 0 the search ends at the first new best whose ratio is
    at most stop_num/stop_den and returns it: that is the first subset in
    lexicographic order at or below the stop. When no subset gets there, or
    with stop_den == 0, the result is the full minimizer. The stop is tested
    only on a new best, so the search pays nothing per subset for it.
    """
    if not stop_den and _CHEEGER_ARRAY_MIN_N <= n <= _CHEEGER_ARRAY_MAX_N:
        return _cheeger_array(masks, n, mode)
    return _cheeger_dfs(masks, n, mode, stop_num, stop_den)


def _cheeger_dfs(masks, n, mode, stop_num=0, stop_den=0):
    """cheeger_exhaustive as a DFS over the subsets in preorder.

    The majored count adds the inner boundary A & N(V - A) to the external
    one. The DFS extends A only by vertices above its largest member, so
    when v has just been added, V - A is the passed-over vertices below v
    plus everything above v, and N(V - A) = skipped | suffix[v + 1]: skipped
    is the union of the masks of the passed-over vertices and suffix[v] the
    union of masks[v:].
    """
    max_size = n // 2
    if max_size == 0:
        return (0, 0, 0)
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] | masks[v]
    best_num, best_size, best_mask = 1, 0, 0  # size 0 means +infinity

    def rec(a_mask, size, union, cross, skipped, start):
        nonlocal best_num, best_size, best_mask
        size += 1
        for v in range(start, n):
            m = masks[v]
            new_a = a_mask | 1 << v
            new_union = union | m
            if mode == MODE_EDGE:
                new_cross = cross - (m & a_mask).bit_count() \
                    + (m & ~new_a).bit_count()
                num = new_cross
            else:
                new_cross = 0
                num = (new_union & ~new_a).bit_count()
                if mode == MODE_MAJORED:
                    num += ((skipped | suffix[v + 1]) & new_a).bit_count()
            if num * best_size < best_num * size:
                best_num, best_size, best_mask = num, size, new_a
                if stop_den and num * stop_den <= stop_num * size:
                    raise _Stop
            if size < max_size:
                rec(new_a, size, new_union, new_cross, skipped, v + 1)
            skipped |= m

    try:
        rec(0, 0, 0, 0, 0, 0)
    except _Stop:
        pass
    return (best_num, best_size, best_mask)


def _half_tables(masks, lo, hi):
    """For every subset s of the vertices lo..hi-1, indexed by s >> lo: the
    union of their masks, their degree sum and their internal edge count,
    built by doubling."""
    size = 1 << (hi - lo)
    sets = np.arange(size, dtype=np.int64) << lo
    union = np.zeros(size, np.int64)
    degree = np.zeros(size, np.int64)
    inner = np.zeros(size, np.int64)
    for i, v in enumerate(range(lo, hi)):
        b = 1 << i
        m = masks[v]
        union[b:2 * b] = union[:b] | m
        degree[b:2 * b] = degree[:b] + m.bit_count()
        inner[b:2 * b] = inner[:b] + np.bitwise_count(sets[:b] & m)
    return union, degree, inner


def _first_in_preorder(cand):
    """The first of these distinct masks in DFS preorder of sorted vertex
    tuples: narrow to the smallest next vertex, round by round, until one is
    left or one equals the common prefix (a prefix comes first)."""
    prefix = 0
    while cand.size > 1:
        rest = cand ^ prefix
        if not rest.all():
            return prefix
        low = rest & -rest
        bit = low.min()
        cand = cand[low == bit]
        prefix |= int(bit)
    return int(cand[0])


def _cheeger_array(masks, n, mode):
    """cheeger_exhaustive without a stop, as array passes.

    A = low | high << h, with low a subset of the h = ceil(n/2) low vertices
    and high one of the others. The low subsets are sorted by size, so for a
    high subset of k vertices the admissible low ones (|A| <= n // 2) are a
    prefix. Ratios are compared exactly as the integer key
    num * (lcm(1..n//2) // size), below 24 * 12 * 27720 at n = 24.
    """
    h = (n + 1) // 2
    max_size = n // 2
    scale = lcm(*range(1, max_size + 1))
    lo_union, lo_degree, lo_inner = _half_tables(masks, 0, h)
    hi_union, hi_degree, hi_inner = _half_tables(masks, h, n)
    lo_count = np.bitwise_count(np.arange(1 << h))
    order = np.concatenate([np.flatnonzero(lo_count == j)
                            for j in range(h + 1)])
    lo_sets = order.astype(np.int64)
    lo_size = np.bitwise_count(lo_sets).astype(np.int64)
    ends = np.searchsorted(lo_size, np.arange(max_size + 1), side="right")
    hi_sets = np.arange(1 << (n - h), dtype=np.int64)
    hi_size = np.bitwise_count(hi_sets)
    if mode == MODE_EDGE:
        # crossing edges = degree sum - 2 * internal edges; the internal
        # edges between the halves are hi_bits @ cross, where cross[j, s]
        # counts the neighbours of vertex h + j in low subset s.
        lo_base = (lo_degree - 2 * lo_inner)[order]
        hi_base = hi_degree - 2 * hi_inner
        cross = np.stack([np.bitwise_count(lo_sets & masks[v])
                          for v in range(h, n)]).astype(np.int64)
        hi_bits = (hi_sets[:, None] >> np.arange(n - h)) & 1
    else:
        lo_out = lo_union[order]
        # N(V - A) is the union over the complements in both halves.
        lo_in = lo_union[((1 << h) - 1) ^ lo_sets]
        hi_in = hi_union[::-1]
    best_key, best_mask = None, 0
    for k in range(n - h + 1):
        cols = slice(1 if k == 0 else 0, ends[max_size - k])
        c_sets = lo_sets[cols]
        width = c_sets.size
        weight = scale // (k + lo_size[cols])
        rows_k = hi_sets[hi_size == k]
        step = max(1, _CHUNK // width)
        for r0 in range(0, rows_k.size, step):
            t = rows_k[r0:r0 + step]
            if mode == MODE_EDGE:
                num = lo_base[cols] + hi_base[t][:, None] \
                    - 2 * (hi_bits[t] @ cross[:, cols])
            else:
                a = c_sets | (t << h)[:, None]
                num = np.bitwise_count((lo_out[cols] | hi_union[t][:, None])
                                       & ~a)
                if mode == MODE_MAJORED:
                    num = num + np.bitwise_count(
                        (lo_in[cols] | hi_in[t][:, None]) & a)
            key = num * weight
            low = key.min()
            if best_key is not None and low > best_key:
                continue
            r, c = np.divmod(np.flatnonzero(key == low), width)
            cand = c_sets[c] | t[r] << h
            if best_key is not None and low == best_key:
                cand = np.append(cand, best_mask)
            best_key, best_mask = low, _first_in_preorder(cand)
    size = best_mask.bit_count()
    return (int(best_key) // (scale // size), size, best_mask)


def _components_ok(masks, full, cut_mask, cap):
    # Every component of the graph minus cut_mask must have at most cap vertices.
    rem = full & ~cut_mask
    while rem:
        low = rem & -rem
        comp = low
        frontier = low
        while frontier:
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                nxt |= masks[bit.bit_length() - 1]
                frontier ^= bit
            frontier = nxt & rem & ~comp
            comp |= frontier
        if comp.bit_count() > cap:
            return False
        rem &= ~comp
    return True


def _byte_tables(masks, n):
    """Neighbour unions by byte: row j, entry b is the union of the masks of
    the vertices 8j + i for the bits i of b."""
    tables = np.zeros(((n + 7) // 8, 256), np.uint64)
    for v in range(n):
        j, b = v // 8, 1 << v % 8
        tables[j, b:2 * b] = tables[j, :b] | masks[v]
    return tables


def _components_ok_block(tables, full, cuts, cap):
    """_components_ok for each of the uint64 masks in cuts: grow the
    component of the lowest remaining vertex, for every mask at once, until
    each mask has failed or has at most cap vertices left."""
    shifts = np.arange(tables.shape[0], dtype=np.uint64) * np.uint64(8)
    flat = tables.ravel()
    offsets = np.arange(0, flat.size, 256, dtype=np.uint64)
    ok = np.zeros(cuts.size, bool)
    idx = np.arange(cuts.size)
    rem = np.uint64(full) & ~cuts
    while idx.size:
        small = np.bitwise_count(rem) <= cap
        ok[idx[small]] = True
        idx, rem = idx[~small], rem[~small]
        comp = rem & -rem
        while True:
            grown = np.bitwise_or.reduce(
                flat[((comp[:, None] >> shifts) & np.uint64(255)) + offsets],
                axis=1) & rem | comp
            if np.array_equal(grown, comp):
                break
            comp = grown
        fits = np.bitwise_count(comp) <= cap
        idx, rem = idx[fits], (rem ^ comp)[fits]
    return ok


def min_cut_exact(masks, n, cap, max_k, budget, min_k=0):
    """Smallest S of min_k..max_k vertices with all components of G-S of at
    most cap vertices.

    Increasing-cardinality search from size min_k, lexicographic within each
    size. Returns (mask, examined); mask is -1 if no cut of size min_k..max_k
    exists and -2 if the budget on examined subsets ran out first. The subset
    past the budget counts as examined but is not checked, so that result is
    (-2, max(budget, 0) + 1).
    """
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    subsets = map(sum, chain.from_iterable(
        combinations(bits, k)
        for k in range(max(min_k, 0), min(max_k, n) + 1)))
    scalar = _CUT_SCALAR if n <= _CUT_BLOCK_MAX_N else None
    examined = 0
    for mask in islice(subsets, scalar):
        examined += 1
        if examined > budget:
            return (-2, examined)
        if _components_ok(masks, full, mask, cap):
            return (mask, examined)
    if scalar is None:
        return (-1, examined)
    tables = None
    while True:
        block = np.fromiter(
            islice(subsets, max(0, min(_CUT_BLOCK, budget - examined))),
            np.uint64)
        if not block.size:
            break
        if tables is None:
            tables = _byte_tables(masks, n)
        hit = np.flatnonzero(_components_ok_block(tables, full, block, cap))
        if hit.size:
            return (int(block[hit[0]]), examined + int(hit[0]) + 1)
        examined += block.size
    if next(subsets, None) is not None:
        return (-2, examined + 1)
    return (-1, examined)


def connected_subsets(masks, n, max_size, budget):
    """All masks of connected induced subgraphs with 1..max_size vertices.

    Each subset is produced once; the order is deterministic (roots in
    increasing order, candidates consumed lowest-bit first). Returns None if
    more than ``budget`` subsets would be produced.
    """
    out = []
    if max_size < 1:
        return out
    for root in range(n):
        allowed = ~((1 << root) - 1)  # vertices >= root
        # A frame is the rest of one subset's loop over its candidates:
        # (subset, size, candidates left, vertices excluded). Each new subset
        # is entered at once, and the rest of its parent's loop, with the
        # taken candidate excluded, is pushed, so the order is depth first.
        # The first frame is the empty set with the root as its candidate.
        stack = [(0, 0, 1 << root, 0)]
        while stack:
            s_mask, size, cand, exc = stack.pop()
            while cand and size < max_size:
                low = cand & -cand
                cand ^= low
                new_s = s_mask | low
                out.append(new_s)
                if len(out) > budget:
                    return None
                if cand:
                    stack.append((s_mask, size, cand, exc | low))
                v = low.bit_length() - 1
                s_mask, size = new_s, size + 1
                cand = (cand | (masks[v] & allowed)) & ~new_s & ~exc
    return out
