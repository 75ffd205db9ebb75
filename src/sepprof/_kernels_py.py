"""Pure-Python bitmask kernels: the exhaustive Cheeger search and the exact
cut search.

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
as a DFS, and the two meet between 9 and 10 vertices.

- ``cheeger_exhaustive`` without a stop on 10..24 vertices splits the
  vertices into a low half LOW and a high half HIGH and evaluates the (low
  subset, high subset) pairs in chunks of at most 4096 (``_cheeger_array``),
  skipping, exactly, the pairs that cannot reach the best ratio so far.
  Stopped searches and smaller graphs take the DFS (``_cheeger_dfs``).
- ``min_cut_exact`` checks its first 256 subsets one at a time, and the
  rest of the same enumeration in blocks, each within one size: the first
  takes 2048 subsets and each next one twice as many as the last, up to
  16384, but a block ends early at the end of a size and at the budget.
  Where a block ends moves neither the first cut nor ``examined``. A block
  is built with numpy as columns of vertex indices (``_LexRows``), and is
  checked bit-sliced (``_first_cut``): one uint64 plane per vertex, bit i
  for the i-th subset of the block, so one gather of the neighbours' planes
  grows a component in every subset at once. Vertex indices have no width
  limit, so every vertex count takes this path. The check of one subset
  (``_components_ok``) fails as soon as a component grows past the cap, and
  passes once at most cap vertices are left.

The half bounds of ``_cheeger_array``. Write A = c | t, with c its part in
LOW and t its part in HIGH. Each mode's count of A is at least
hi_bound[t] + lo_bound[c], where each term counts only within its own half:

- plain: |N(t) & HIGH - t|, the outer boundary of t within HIGH;
- majored: that, plus |t & N(HIGH - t)|, the members of t with a neighbour in
  HIGH - t;
- edge: the edges from t to HIGH - t;

and lo_bound[c] the same within LOW. Each of these sets is a part of the
set that A's count counts: N(t) - t and N(c) - c meet HIGH and LOW in parts
of N(A) - A, t & N(HIGH - t) is a part of A & N(V - A), and the edges from t
to HIGH - t leave A. The two halves are disjoint, so the two parts are, and
the terms add. With scale // |A| the weight of A, the key of the pair is
then at least (hi_bound[t] + lo_bound[c]) * (scale // (k + j)) for |t| = k
and |c| = j. Before the high subsets of k vertices are scored, a row t is
dropped when that bound, with lo_bound[c] replaced by least[j], the least
lo_bound over the low subsets of j vertices, is above the best key so far
for every admissible j; then a column c is dropped when its bound, with
hi_bound[t] replaced by the least hi_bound of the rows kept, is above it.

This is exact, ties included. A pair is dropped only when a lower bound of
its key is strictly above the best key so far, and the best key never
rises, so the dropped pair's key is above the final minimum: it neither is
a minimiser nor ties one. Every pair whose key equals the final minimum is
scored, so ``_first_in_preorder`` picks the first minimiser from the same
candidates as the full pass, and the result does not move.
"""

from itertools import chain, combinations, islice
from math import comb, lcm

import numpy as np

from .graphs import mask_set

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
# blocks; most calls end within them. The blocks grow from _CUT_LANES_MIN to
# _CUT_LANES_MAX subsets (lanes), and the table of tail subsets they are
# built from holds at most _CUT_TAIL_MAX.
_CUT_SCALAR = 256
_CUT_LANES_MIN = 1 << 11
_CUT_LANES_MAX = 1 << 14
_CUT_TAIL_MAX = 1 << 12


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


def _pair_counts(mode, rows, cols):
    """The boundary counts of A = c | t << h for every row t and column c of
    a block, from the halves' tables gathered at the rows and the columns."""
    if mode == MODE_EDGE:
        (base, bits), (c_base, c_cross) = rows, cols
        return c_base + base[:, None] - 2 * (bits @ c_cross)
    (high, out, inside), (c_sets, c_out, c_in) = rows, cols
    a = c_sets | high[:, None]
    num = np.bitwise_count((c_out | out[:, None]) & ~a)
    if mode == MODE_MAJORED:
        num = num + np.bitwise_count((c_in | inside[:, None]) & a)
    return num


def _own_half_counts(mode, sets, out, inside, half):
    """The part of each subset's boundary count that lies in its own half,
    for the plain and majored modes: from its table (sets, out, inside), the
    outer boundary within half and, when majored, the members with a
    neighbour in the rest of half."""
    count = np.bitwise_count(out & (half ^ sets)).astype(np.int64)
    if mode == MODE_MAJORED:
        count += np.bitwise_count(inside & sets)
    return count


def _cheeger_array(masks, n, mode):
    """cheeger_exhaustive without a stop, as array passes.

    A = low | high << h, with low a subset of the h = ceil(n/2) low vertices
    and high one of the others. The low subsets are sorted by size, so for a
    high subset of k vertices the admissible low ones (|A| <= n // 2) are a
    prefix. Ratios are compared exactly as the integer key
    num * (lcm(1..n//2) // size), below 24 * 12 * 27720 at n = 24.

    Before the high subsets of k vertices are scored, the rows (high
    subsets) and then the columns (low subsets) that cannot reach the best
    key so far are dropped, by the half bounds of the module docstring.
    """
    h = (n + 1) // 2
    max_size = n // 2
    scale = lcm(*range(1, max_size + 1))
    # unit[s] = scale // s, the weight of a set of s vertices.
    unit = scale // np.maximum(np.arange(max_size + 1), 1)
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
        col_tables, row_tables = (lo_base, cross), (hi_base, hi_bits)
        # A half's own crossing edges: all but those to the other half (the
        # last low subset is the whole low half).
        lo_bound = lo_base - cross.sum(axis=0)
        hi_bound = hi_base - hi_bits @ cross[:, -1]
    else:
        # N(V - A) is the union over the complements in both halves.
        lo_in = lo_union[((1 << h) - 1) ^ lo_sets]
        col_tables = (lo_sets, lo_union[order], lo_in)
        row_tables = (hi_sets << h, hi_union, hi_union[::-1])
        lo_bound = _own_half_counts(mode, *col_tables, (1 << h) - 1)
        hi_bound = _own_half_counts(mode, *row_tables,
                                    (1 << n) - (1 << h))
    # least[j]: the least lo_bound of a low subset of j vertices.
    least = np.minimum.reduceat(lo_bound[:ends[-1]], np.r_[0, ends[:-1]])
    best_key, best_mask = None, 0
    for k in range(n - h + 1):
        cols = slice(1 if k == 0 else 0, ends[max_size - k])
        weight = unit[k + lo_size[cols]]
        rows_k = hi_sets[hi_size == k]
        if best_key is not None:
            # Keep a row if some low size j lets it reach best_key, and then
            # a column if it reaches best_key with the kept rows' least
            # bound. Both compare with <=, so a pair that ties best_key is
            # scored; the column with the least bound of the size j that
            # kept a row is kept, so some column always is.
            reach = (hi_bound[rows_k][:, None] + least[:max_size - k + 1]) \
                * unit[k:]
            rows_k = rows_k[reach.min(axis=1) <= best_key]
            if not rows_k.size:
                continue
            keep = (lo_bound[cols] + hi_bound[rows_k].min()) * weight \
                <= best_key
            if not keep.all():
                cols, weight = np.flatnonzero(keep) + cols.start, weight[keep]
        c_sets = lo_sets[cols]
        col_data = [x[..., cols] for x in col_tables]
        width = c_sets.size
        step = max(1, _CHUNK // width)
        for r0 in range(0, rows_k.size, step):
            t = rows_k[r0:r0 + step]
            key = _pair_counts(mode, [x[t] for x in row_tables],
                               col_data) * weight
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
    """Whether every component of the graph minus cut_mask has at most cap
    vertices. It fails as soon as a component grows past cap, and passes
    once at most cap vertices are left to grow."""
    rem = full & ~cut_mask
    left = rem.bit_count()
    while left > cap:
        comp = frontier = rem & -rem
        size = 1
        while size <= cap:
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                nxt |= masks[bit.bit_length() - 1]
                frontier ^= bit
            frontier = nxt & rem & ~comp
            if not frontier:
                break
            comp |= frontier
            size += frontier.bit_count()
        else:
            return False
        rem ^= comp
        left -= size
    return True


def _neighbour_index(masks, n):
    """Row v lists v and its neighbours, padded with n, a vertex no lane
    has."""
    rows = [[v, *sorted(mask_set(m))] for v, m in enumerate(masks)]
    index = np.full((n, max(map(len, rows), default=1)), n, np.intp)
    for v, row in enumerate(rows):
        index[v, :len(row)] = row
    return index


def _join(prefixes, tail, counts, start, stop):
    """Lanes start..stop-1 of the joined subsets, as columns of vertex
    indices: each column of prefixes (increasing vertices) followed, in
    turn, by every column of tail (all d-subsets of range(n), lexicographic)
    above its last vertex. Those are the last counts[a] columns of tail for
    a last vertex a, so the joined subsets are in lexicographic order."""
    ends = np.cumsum(counts[prefixes[-1]])
    lane = np.arange(start, stop)
    p = np.searchsorted(ends, lane, side="right")
    out = np.empty((prefixes.shape[0] + tail.shape[0], lane.size),
                   prefixes.dtype)
    np.take(prefixes, p, axis=1, out=out[:prefixes.shape[0]])
    np.take(tail, lane + (tail.shape[1] - ends)[p], axis=1,
            out=out[prefixes.shape[0]:])
    return out


def _tail_counts(n, d):
    """counts[a]: the d-subsets of range(n) above vertex a."""
    return np.array([comb(n - 1 - a, d) for a in range(n)], np.intp)


def _extend_tail(tail, n, k):
    """tail, the table of all d-subsets of range(n) as columns in
    lexicographic order, extended one size at a time while d < k - 1 and
    the next table holds at most _CUT_TAIL_MAX subsets. A (d+1)-subset is
    its first vertex f joined to a d-subset above f."""
    while (d := tail.shape[0]) < k - 1 and comb(n, d + 1) <= _CUT_TAIL_MAX:
        tail = _join(np.arange(n - d, dtype=tail.dtype)[None], tail,
                     _tail_counts(n, d), 0, comb(n, d + 1))
    return tail


class _LexRows:
    """The k-subsets of range(n) in lexicographic order, from rank skip on,
    handed out in blocks of columns of vertex indices. A subset is a prefix
    of k - d vertices from itertools and a column of tail, the table of all
    d-subsets, so only the prefixes are made one at a time in Python."""

    def __init__(self, n, k, skip, tail):
        d = tail.shape[0]
        self.tail = tail
        self.counts = _tail_counts(n, d)
        # Subsets per prefix, on average: how many prefixes a block needs.
        self.per_prefix = comb(n, k) / comb(n - d, k - d)
        self.prefixes = combinations(range(n - d), k - d)
        self.pending = np.empty((k - d, 0), tail.dtype)
        self.skip = skip

    def take(self, count):
        """The next count subsets; the caller stays within the size."""
        need = self.skip + count
        ends = np.cumsum(self.counts[self.pending[-1]])
        while not ends.size or ends[-1] < need:
            have = int(ends[-1]) if ends.size else 0
            more = np.fromiter(chain.from_iterable(islice(
                self.prefixes, int((need - have) / self.per_prefix) + 1)),
                self.pending.dtype).reshape(-1, self.pending.shape[0]).T
            self.pending = np.concatenate([self.pending, more], axis=1)
            ends = np.cumsum(self.counts[self.pending[-1]])
        block = _join(self.pending, self.tail, self.counts, self.skip, need)
        done = np.searchsorted(ends, need, side="right")
        self.skip = need - (int(ends[done - 1]) if done else 0)
        self.pending = self.pending[:, done:]
        return block


def _lane_planes(n, rows):
    """The uint64 planes of the lanes in rows: bit i of plane v says that
    vertex v remains in lane i, that is, is not in column i. No vertex
    remains in the lanes that pad the last word."""
    k, lanes = rows.shape
    width = -(-lanes // 64) * 64
    keep = np.ones((n, width), bool)
    keep[:, lanes:] = False
    flat = keep.reshape(-1)
    lane = np.arange(lanes)
    for col in rows:
        flat[col * np.intp(width) + lane] = False
    return np.packbits(keep, axis=1, bitorder="little").view(np.uint64)


def _first_cut(nbrs, cap, rows):
    """Index of the first column of rows (the vertices of one cut each)
    that leaves no component of more than cap vertices, or -1.

    Bit-sliced: lane i is column i, and bit i of plane v says vertex v
    remains in lane i, one uint64 word per 64 lanes. Each round takes every
    undecided lane's lowest remaining vertex and grows its component, in
    every lane at once, by one gather of the planes of each vertex's closed
    neighbourhood (nbrs) and an OR per step, until no lane grows. A lane
    fails on a component above cap and passes once at most cap vertices
    remain. The lanes that pad the last word cut every vertex, so they
    pass, and are trimmed before the hit search.
    """
    n = nbrs.shape[0]
    k, lanes = rows.shape
    rem = _lane_planes(n, rows)
    words = np.arange(rem.shape[1])
    fail = np.zeros(rem.shape[1], np.uint64)
    # Vertices left in each lane, while it is undecided.
    left = np.full(rem.shape[1] * 64, n - k)
    left[lanes:] = 0
    count_type = np.min_scalar_type(n)
    while True:
        live = left > cap
        if not live.any():
            break
        rem &= np.packbits(live, bitorder="little").view(np.uint64)
        # Drop the words whose lanes are all decided.
        busy = rem.any(axis=0)
        if not busy.all():
            rem, words = rem[:, busy], words[busy]
            left = left.reshape(-1, 64)[busy].ravel()
        comp = rem.copy()
        comp[1:] &= ~np.bitwise_or.accumulate(rem[:-1], axis=0)
        planes = np.zeros((n + 1, rem.shape[1]), np.uint64)
        while True:
            planes[:n] = comp
            grown = np.bitwise_or.reduce(np.take(planes, nbrs, axis=0), axis=1)
            grown &= rem
            if np.array_equal(grown, comp):
                break
            comp = grown
        size = np.unpackbits(comp.view(np.uint8), axis=1,
                             bitorder="little").sum(axis=0, dtype=count_type)
        big = size > cap
        fail[words] |= np.packbits(big, bitorder="little").view(np.uint64)
        left = left - size
        left[big] = 0
        rem ^= comp
    passed = np.flatnonzero(~np.unpackbits(
        fail.view(np.uint8), bitorder="little")[:lanes].astype(bool))
    return int(passed[0]) if passed.size else -1


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
    sizes = range(max(min_k, 0), min(max_k, n) + 1)
    bits = [1 << v for v in range(n)]
    subsets = map(sum, chain.from_iterable(
        combinations(bits, k) for k in sizes))
    examined = 0
    for mask in islice(subsets, _CUT_SCALAR):
        examined += 1
        if examined > budget:
            return (-2, examined)
        if _components_ok(masks, full, mask, cap):
            return (mask, examined)
    if examined < _CUT_SCALAR:
        return (-1, examined)
    # Blocks of lanes, each within one size: lanes doubles after every block
    # up to _CUT_LANES_MAX, and a block ends early at the end of a size and
    # at the budget.
    nbrs = _neighbour_index(masks, n)
    # Vertex indices in the smallest type that holds them.
    tail = np.empty((0, 1), np.min_scalar_type(n))
    lanes = _CUT_LANES_MIN
    before = 0
    for k in sizes:
        after = before + comb(n, k)
        if after > examined:
            tail = _extend_tail(tail, n, k)
            rows = _LexRows(n, k, examined - before, tail)
        while examined < after:
            if examined >= budget:
                return (-2, examined + 1)
            block = rows.take(min(lanes, after - examined, budget - examined))
            hit = _first_cut(nbrs, cap, block)
            if hit >= 0:
                return (sum(1 << int(v) for v in block[:, hit]),
                        examined + hit + 1)
            examined += block.shape[1]
            lanes = min(2 * lanes, _CUT_LANES_MAX)
        before = after
    return (-1, examined)
