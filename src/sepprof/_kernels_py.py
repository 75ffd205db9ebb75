"""Pure-Python bitmask kernels.

Same contracts and the same enumeration order as the compiled versions in
``_kernels.c``; this module is the fallback selected at import time when the
extension is unavailable (or forced via SEPPROF_PURE_PY=1). Masks are Python
ints, so there is no 64-vertex limit here. Every argument is a plain integer:
``min_cut_exact`` takes the component-size cap, not a fraction, and
``cheeger_exhaustive`` a stop ratio as a small numerator and denominator.
"""

from itertools import combinations

# Boundary modes for cheeger_exhaustive.
MODE_PLAIN = 0
MODE_MAJORED = 1
MODE_EDGE = 2


class _Stop(Exception):
    """Ends a stopped Cheeger search from inside its recursion."""


def cheeger_exhaustive(masks, n, mode, stop_num=0, stop_den=0):
    """Minimize boundary(A)/|A| over non-empty A with 2|A| <= n.

    Returns (boundary_count, size, subset_mask) for the first minimizer in
    lexicographic subset order. boundary_count is |external|, |majored| or
    the crossing-edge count depending on mode.

    With stop_den > 0 the search ends at the first new best whose ratio is
    at most stop_num/stop_den and returns it: that is the first subset in
    lexicographic order at or below the stop. When no subset gets there, or
    with stop_den == 0, the result is the full minimizer. The stop is tested
    only on a new best, so the search pays nothing per subset for it.

    The majored count adds the inner boundary A & N(V - A) to the external
    one. The DFS extends A only by vertices above its largest member, so
    when v has just been added, V - A is the passed-over vertices below v
    plus everything above v, and N(V - A) = skipped | suffix[v + 1]: skipped
    is the union of the masks of the passed-over vertices and suffix[v] the
    union of masks[v:]. This needs symmetric masks (an undirected graph).
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


def min_cut_exact(masks, n, cap, max_k, budget, min_k=0):
    """Smallest S of min_k..max_k vertices with all components of G-S of at
    most cap vertices.

    Increasing-cardinality search from size min_k, lexicographic within each
    size. Returns (mask, examined); mask is -1 if no cut of size min_k..max_k
    exists and -2 if the budget on examined subsets ran out first.
    """
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    examined = 0
    for k in range(max(min_k, 0), min(max_k, n) + 1):
        for combo in combinations(bits, k):
            examined += 1
            if examined > budget:
                return (-2, examined)
            mask = sum(combo)
            if _components_ok(masks, full, mask, cap):
                return (mask, examined)
    return (-1, examined)


def connected_subsets(masks, n, max_size, budget):
    """All masks of connected induced subgraphs with 1..max_size vertices.

    Each subset is produced once; the order is deterministic (roots in
    increasing order, candidates consumed lowest-bit first). Returns None if
    more than ``budget`` subsets would be produced.
    """
    out = []

    def rec(s_mask, size, cand, exc, allowed):
        out.append(s_mask)
        if len(out) > budget:
            return False
        if size == max_size:
            return True
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            new_s = s_mask | low
            new_cand = (cand | (masks[v] & allowed)) & ~new_s & ~exc
            if not rec(new_s, size + 1, new_cand, exc, allowed):
                return False
            exc |= low
        return True

    if max_size < 1:
        return out
    for root in range(n):
        allowed = ~((1 << root) - 1)  # vertices >= root
        bit = 1 << root
        if not rec(bit, 1, masks[root] & allowed & ~bit, 0, allowed):
            return None
    return out
