"""The connected-subset enumeration as a depth-first search: the order
oracle for ``kernels.connected_subsets`` and the profiles' level pass, and
the subset source of the profile tests' reference loops."""


def dfs_connected_subsets(masks, n, max_size, budget):
    """All masks of connected induced subgraphs with 1..max_size vertices.

    Each subset is produced once, in pre-order (roots in increasing order,
    candidates consumed lowest-bit first). Returns None if more than
    ``budget`` subsets would be produced.
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
