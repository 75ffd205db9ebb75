"""Backend parity and brute-force oracles for the bitmask kernels."""

import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepprof import _kernels_py, kernels
from sepprof.cuts import is_cut_set
from sepprof.errors import BudgetError
from sepprof.graphs import (Graph, build_family, connected_components,
                            induced_subgraph, subdivide)

from reference_subsets import dfs_connected_subsets

BACKENDS = ("compiled", "python")


def require(backend, backends):
    if backend not in backends:
        pytest.skip(f"{backend} backend unavailable")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 9))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1]),
        max_size=2 * n))
    return Graph(n, edges)


def brute_cheeger(G, mode):
    """Independent oracle: itertools over all admissible subsets."""
    from sepprof.cheeger import boundary_count

    n = G.vertex_count
    best = None
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << v for v in combo)
            num = boundary_count(G, mask, mode)
            if best is None or num * best[1] < best[0] * size:
                best = (num, size)
    return best


def brute_cheeger_first(G, mode):
    """Oracle for the full kernel triple: the first minimizer, taking the
    admissible subsets in the DFS order of their sorted vertex tuples."""
    from sepprof.cheeger import boundary_count

    n = G.vertex_count
    combos = sorted(combo for size in range(1, n // 2 + 1)
                    for combo in itertools.combinations(range(n), size))
    best = (0, 0, 0)
    for combo in combos:
        mask = sum(1 << v for v in combo)
        num = boundary_count(G, mask, mode)
        if best[1] == 0 or num * best[1] < best[0] * len(combo):
            best = (num, len(combo), mask)
    return best


@st.composite
def tie_heavy_graphs(draw, min_n=1, max_n=12):
    """Graphs on min_n..max_n vertices: random sparse or dense ones, and
    symmetric ones (empty, complete, cycles) where many subsets tie."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(["random", "dense", "empty", "complete",
                                 "cycle"]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "random":
        edges = draw(st.sets(st.sampled_from(pairs), max_size=n)) \
            if pairs else set()
    elif kind == "dense":
        edges = [e for e in pairs if draw(st.integers(0, 3))]
    elif kind == "empty":
        edges = []
    elif kind == "complete":
        edges = pairs
    else:
        edges = [(v, (v + 1) % n) for v in range(n)] if n >= 3 else []
    return Graph(n, edges)


@pytest.mark.parametrize("backend", BACKENDS)
@given(G=tie_heavy_graphs())
def test_cheeger_witness_is_first_minimizer(backends, backend, G):
    require(backend, backends)
    for mode_name, mode in (("plain", kernels.MODE_PLAIN),
                            ("majored", kernels.MODE_MAJORED),
                            ("edge", kernels.MODE_EDGE)):
        got = kernels.cheeger_exhaustive(
            G.neighbor_masks, G.vertex_count, mode, backend=backend)
        assert got == brute_cheeger_first(G, mode_name)


_MODES = (("plain", kernels.MODE_PLAIN), ("majored", kernels.MODE_MAJORED),
          ("edge", kernels.MODE_EDGE))


@given(G=tie_heavy_graphs(2, 12))
def test_cheeger_array_is_first_minimizer(G):
    for mode_name, mode in _MODES:
        assert _kernels_py._cheeger_array(
            G.neighbor_masks, G.vertex_count, mode) \
            == brute_cheeger_first(G, mode_name)


@st.composite
def pruned_hosts(draw):
    """Hosts on 10..16 vertices: grids, subdivided cycles and K4, on which
    the array search's half bounds drop pairs in their own vertex order, and
    tie-heavy graphs. Each has its vertices optionally shuffled, so that the
    minimisers and their ties fall in either half."""
    kind = draw(st.sampled_from(["grid", "cycle", "K4", "ties"]))
    if kind == "grid":
        G = draw(st.sampled_from([build_family("grid", r, c)
                                  for r, c in ((2, 5), (2, 6), (3, 4), (2, 7),
                                               (3, 5), (2, 8), (4, 4))]))
    elif kind == "cycle":
        G = draw(st.sampled_from([subdivide(build_family("cycle", m), kappa)
                                  for m, kappa in ((3, 3), (3, 4), (4, 2),
                                                   (5, 2), (4, 3))]))
    elif kind == "K4":
        G = subdivide(build_family("complete", 4), 2)
    else:
        G = draw(tie_heavy_graphs(10, 16))
    n = G.vertex_count
    perm = draw(st.one_of(st.just(list(range(n))), st.permutations(range(n))))
    return Graph(n, [(perm[u], perm[v]) for u, v in G.edges])


# A 12-cycle, relabelled, whose first minimiser in plain mode has a high
# half whose row bound equals the best key so far: dropping rows on a tie
# would return a later minimiser.
@example(G=Graph(12, [(0, 6), (0, 8), (1, 5), (1, 10), (2, 4), (2, 7), (3, 9),
                      (3, 11), (4, 8), (5, 9), (6, 11), (7, 10)]))
@settings(max_examples=60)
@given(G=pruned_hosts())
def test_cheeger_array_matches_dfs(G):
    masks, n = G.neighbor_masks, G.vertex_count
    for _, mode in _MODES:
        assert _kernels_py.cheeger_exhaustive(masks, n, mode) \
            == _kernels_py._cheeger_dfs(masks, n, mode)


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def test_cheeger_array_skips_pairs_on_grid45(monkeypatch):
    """The half bounds leave far fewer (row, column) pairs to score than
    the sum_{s=1}^{10} C(20, s) admissible subsets of grid 4x5, and the
    result does not move."""
    G = build_family("grid", 4, 5)
    masks, n = G.neighbor_masks, G.vertex_count
    full = sum(math.comb(n, s) for s in range(1, n // 2 + 1))
    score = _kernels_py._pair_counts
    scored = []

    def counting(mode, rows, cols):
        counts = score(mode, rows, cols)
        scored.append(counts.size)
        return counts

    monkeypatch.setattr(_kernels_py, "_pair_counts", counting)
    for _, mode in _MODES:
        scored.clear()
        assert _kernels_py._cheeger_array(masks, n, mode) \
            == _kernels_py._cheeger_dfs(masks, n, mode)
        assert 0 < sum(scored) < full


@pytest.mark.parametrize("G,modes", [
    (Graph(18, []), _MODES),
    (build_family("complete", 18), _MODES),
    (build_family("cycle", 18), _MODES),
    (_random_graph(20, 0.2, 1), _MODES),
    (build_family("grid", 2, 11), _MODES[1:2]),  # 22 vertices: 1.7 s a mode
], ids=["empty18", "complete18", "cycle18", "random20", "grid2x11"])
def test_cheeger_array_matches_dfs_large(G, modes):
    masks, n = G.neighbor_masks, G.vertex_count
    for _, mode in modes:
        assert _kernels_py.cheeger_exhaustive(masks, n, mode) \
            == _kernels_py._cheeger_dfs(masks, n, mode)


def lex_subsets(n, max_size):
    """Non-empty subsets of range(n) with at most max_size members, as
    sorted tuples in lexicographic order: the Cheeger kernel's DFS order."""
    def rec(prefix, start):
        if len(prefix) == max_size:
            return
        for v in range(start, n):
            yield prefix + (v,)
            yield from rec(prefix + (v,), v + 1)
    return rec((), 0)


def brute_cheeger_stopped(G, mode, stop):
    """Oracle for the stop form: the first admissible subset, in DFS order,
    whose ratio is at most a/b for stop = (a, b); without one, the full
    search's triple."""
    from sepprof.cheeger import boundary_count

    for combo in lex_subsets(G.vertex_count, G.vertex_count // 2):
        mask = sum(1 << v for v in combo)
        num = boundary_count(G, mask, mode)
        if Fraction(num, len(combo)) <= Fraction(*stop):
            return (num, len(combo), mask)
    return brute_cheeger_first(G, mode)


# Stop pairs (a, b) of plain integers, b >= 1: in lowest terms or not, and
# with a or b beyond the counts and sizes an n-vertex search compares.
stops = st.tuples(st.integers(0, 14), st.integers(1, 12))


@pytest.mark.parametrize("backend", BACKENDS)
@given(G=tie_heavy_graphs(), stop=stops)
def test_cheeger_stop_is_first_set_at_or_below(backends, backend, G, stop):
    require(backend, backends)
    n = G.vertex_count
    for mode_name, mode in _MODES:
        got = kernels.cheeger_exhaustive(G.neighbor_masks, n, mode,
                                         backend=backend, stop=stop)
        assert got == brute_cheeger_stopped(G, mode_name, stop)
        full = kernels.cheeger_exhaustive(G.neighbor_masks, n, mode,
                                          backend=backend)
        if got[1] == 0 or Fraction(got[0], got[1]) > Fraction(*stop):
            assert got == full  # no set reaches the stop
        else:
            assert full[0] * got[1] <= got[0] * full[1]


@given(small_graphs(), stops)
def test_backend_parity_cheeger_stop(backends, G, stop):
    require("compiled", backends)
    for _, mode in _MODES:
        assert len({kernels.cheeger_exhaustive(
            G.neighbor_masks, G.vertex_count, mode, backend=backend,
            stop=stop) for backend in backends}) == 1


def brute_min_cut(G, num, den):
    n = G.vertex_count
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            rest = [v for v in range(n) if v not in combo]
            comps = connected_components(induced_subgraph(G, rest))
            if all(den * len(c) <= num * n for c in comps):
                return size
    raise AssertionError("removing everything is always valid")


def brute_connected_subsets(G, max_size):
    n = G.vertex_count
    out = set()
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(n), size):
            sub = induced_subgraph(G, combo)
            if len(connected_components(sub)) == 1:
                out.add(sum(1 << v for v in combo))
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode_name,mode", [
    ("plain", kernels.MODE_PLAIN),
    ("majored", kernels.MODE_MAJORED),
    ("edge", kernels.MODE_EDGE),
])
def test_cheeger_matches_bruteforce(backends, backend, mode_name, mode):
    require(backend, backends)
    for g in (build_family("cycle", 8), build_family("path", 7),
              build_family("grid", 2, 4), build_family("complete", 5)):
        num, size, mask = kernels.cheeger_exhaustive(
            g.neighbor_masks, g.vertex_count, mode, backend=backend)
        oracle = brute_cheeger(g, mode_name)
        assert num * oracle[1] == oracle[0] * size
        assert mask.bit_count() == size


@given(small_graphs())
def test_backend_parity_cheeger(backends, G):
    require("compiled", backends)
    for mode in (0, 1, 2):
        a = kernels.cheeger_exhaustive(G.neighbor_masks, G.vertex_count, mode,
                                       backend="compiled")
        b = kernels.cheeger_exhaustive(G.neighbor_masks, G.vertex_count, mode,
                                       backend="python")
        assert a == b


@given(small_graphs(), st.one_of(
    st.sampled_from([(1, 2), (1, 3), (2, 3)]),
    st.tuples(st.integers(1, 2 ** 200), st.integers(1, 2 ** 200)),
    st.floats(0, 1, exclude_min=True).map(
        lambda x: (Fraction(x).numerator, Fraction(x).denominator))))
def test_backend_parity_and_oracle_min_cut(backends, G, frac):
    num, den = frac
    results = {}
    for backend in backends:
        mask, examined = kernels.min_cut_exact(
            G.neighbor_masks, G.vertex_count, num, den, G.vertex_count,
            10 ** 7, backend=backend)
        results[backend] = (mask, examined)
    assert len(set(results.values())) == 1
    mask = results["python"][0]
    cut_set = [v for v in range(G.vertex_count) if mask >> v & 1]
    assert is_cut_set(G, cut_set, Fraction(num, den))
    assert len(cut_set) == brute_min_cut(G, num, den)


@given(small_graphs(), st.integers(1, 6))
def test_backend_parity_and_oracle_subsets(backends, G, max_size):
    """The enumeration is the reference DFS's stably sorted by size, and
    its set is the brute-force one, whatever backend is named."""
    want = sorted(dfs_connected_subsets(G.neighbor_masks, G.vertex_count,
                                        max_size, 10 ** 7),
                  key=int.bit_count)
    for backend in backends:
        assert kernels.connected_subsets(
            G.neighbor_masks, G.vertex_count, max_size, 10 ** 7,
            backend=backend) == want
    assert set(want) == brute_connected_subsets(G, max_size)
    assert len(want) == len(set(want))


@given(small_graphs(), st.sampled_from([(1, 2), (1, 3), (2, 3), (1, 9)]))
def test_min_cut_from_min_k(backends, G, frac):
    """A search from size t gives the full answer when that is at least t;
    at size t alone it finds a cut exactly when the answer is at most t."""
    num, den = frac
    masks, n = G.neighbor_masks, G.vertex_count
    for t in range(n + 1):
        results = {}
        for backend in backends:
            full = kernels.min_cut_exact(masks, n, num, den, n, 10 ** 7,
                                         backend=backend)
            level = kernels.min_cut_exact(masks, n, num, den, t, 10 ** 7,
                                          backend=backend, min_k=t)
            above = kernels.min_cut_exact(masks, n, num, den, n, 10 ** 7,
                                          backend=backend, min_k=t)
            results[backend] = (full, level, above)
        assert len(set(results.values())) == 1
        (full, _), (level, _), (above, _) = results["python"]
        answer = full.bit_count()
        assert (level >= 0) == (answer <= t)
        if level >= 0:
            cut_set = [v for v in range(n) if level >> v & 1]
            assert len(cut_set) == t
            assert is_cut_set(G, cut_set, Fraction(num, den))
        if answer >= t:
            assert above == full


def test_min_cut_budget_error():
    g = build_family("grid", 4, 4)
    with pytest.raises(BudgetError, match="heuristic"):
        kernels.min_cut_exact(g.neighbor_masks, 16, 1, 4, 16, budget=5)


def test_connected_subsets_budget_error():
    g = build_family("grid", 3, 4)
    with pytest.raises(BudgetError):
        kernels.connected_subsets(g.neighbor_masks, 12, 12, budget=10)


def test_deep_subset_enumeration_ends_at_its_budget():
    """A subset grows one vertex per step, so on a long path the enumeration
    goes 1,500 sizes deep; it still ends in the budget error."""
    g = build_family("path", 1500)
    with pytest.raises(BudgetError):
        kernels.connected_subsets(g.neighbor_masks, 1500, 1500, budget=5000)


def test_large_graphs_fall_back_to_python():
    # 70 vertices exceeds the compiled 64-bit mask limit
    g = build_family("cycle", 70)
    mask, _ = kernels.min_cut_exact(g.neighbor_masks, 70, 1, 2, 70, 10 ** 6)
    assert mask.bit_count() == 2


def test_min_cut_denominator_beyond_64_bits(backends):
    # den * |component| does not fit in 64 bits; the cap is 0, so only
    # removing all 12 vertices is a cut, found after all 4096 subsets.
    g = build_family("grid", 3, 4)
    for backend in backends:
        assert kernels.min_cut_exact(g.neighbor_masks, 12, 1, 2 ** 62, 12,
                                     10 ** 6, backend=backend) == (4095, 4096)


def test_budget_beyond_64_bits(backends):
    masks = build_family("grid", 3, 4).neighbor_masks
    for backend in backends:
        assert kernels.min_cut_exact(masks, 12, 1, 2, 12, 2 ** 100,
                                     backend=backend) \
            == kernels.min_cut_exact(masks, 12, 1, 2, 12, 10 ** 6,
                                     backend=backend)
        assert kernels.connected_subsets(masks, 12, 3, 2 ** 100,
                                         backend=backend) \
            == kernels.connected_subsets(masks, 12, 3, 10 ** 6,
                                         backend=backend)
        with pytest.raises(BudgetError):
            kernels.min_cut_exact(masks, 12, 1, 2, 12, -2 ** 100,
                                  backend=backend)
        with pytest.raises(BudgetError):
            kernels.connected_subsets(masks, 12, 3, -2 ** 100,
                                      backend=backend)


@st.composite
def wide_graphs(draw):
    """Paths or cycles on 63 or 64 vertices plus a few chords, so that the
    top bit of a 64-bit mask is a vertex."""
    n = draw(st.sampled_from([63, 64]))
    edges = {(v, v + 1) for v in range(n - 1)}
    if draw(st.booleans()):
        edges.add((0, n - 1))
    edges |= draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1]), max_size=4))
    return Graph(n, edges)


@settings(max_examples=15)
@given(wide_graphs(), st.sampled_from([(1, 2), (1, 3), (2, 3), (1, 64)]),
       st.integers(0, 2))
def test_min_cut_wide_graphs(backends, G, frac, max_k):
    num, den = frac
    n = G.vertex_count
    results = {
        backend: kernels.min_cut_exact(G.neighbor_masks, n, num, den, max_k,
                                       10 ** 7, backend=backend)
        for backend in backends
    }
    assert len(set(results.values())) == 1
    mask = results["python"][0]
    if mask >= 0:
        cut_set = [v for v in range(n) if mask >> v & 1]
        assert len(cut_set) <= max_k
        assert is_cut_set(G, cut_set, Fraction(num, den))


@settings(max_examples=15)
@given(wide_graphs(), st.integers(1, 3))
def test_connected_subsets_wide_graphs(backends, G, max_size):
    lists = [kernels.connected_subsets(G.neighbor_masks, G.vertex_count,
                                       max_size, 10 ** 7, backend=backend)
             for backend in backends]
    assert all(out == lists[0] for out in lists)
    out = lists[0]
    assert out == sorted(dfs_connected_subsets(
        G.neighbor_masks, G.vertex_count, max_size, 10 ** 7),
        key=int.bit_count)
    assert len(out) == len(set(out))
    assert any(mask >> 63 & 1 for mask in out) == (G.vertex_count == 64)
    for mask in out:
        verts = [v for v in range(G.vertex_count) if mask >> v & 1]
        assert len(verts) <= max_size
        assert len(connected_components(induced_subgraph(G, verts))) == 1


@settings(max_examples=15)
@given(wide_graphs(), st.sampled_from([(1, 2), (1, 3), (2, 3), (1, 64)]),
       st.integers(0, 2))
def test_min_cut_min_k_wide_graphs(backends, G, frac, t):
    num, den = frac
    masks, n = G.neighbor_masks, G.vertex_count
    results = {
        backend: tuple(kernels.min_cut_exact(masks, n, num, den, max_k,
                                             10 ** 7, backend=backend,
                                             min_k=min_k)
                       for min_k, max_k in ((0, 2), (t, t), (t, 2)))
        for backend in backends
    }
    assert len(set(results.values())) == 1
    (full, _), (level, _), (above, _) = results["python"]
    if level >= 0:
        assert level.bit_count() == t
        cut_set = [v for v in range(n) if level >> v & 1]
        assert is_cut_set(G, cut_set, Fraction(num, den))
    if full >= 0:
        assert (level >= 0) == (full.bit_count() <= t)
        if full.bit_count() >= t:
            assert above == full


@settings(max_examples=15)
@given(wide_graphs(), st.sampled_from(_MODES),
       st.sampled_from([(1, 1), (2, 1), (5, 2), (3, 1)]))
def test_cheeger_stop_wide_graphs(backends, G, mode, stop):
    """On 63 and 64 vertices the full search is out of reach, but the DFS
    meets a path prefix with a small ratio within a few sets, so a stop
    ends it there: the same set on both backends, and the first one in
    lexicographic order at or below the stop."""
    from sepprof.cheeger import boundary_count

    mode_name, mode = mode
    n = G.vertex_count
    results = {kernels.cheeger_exhaustive(G.neighbor_masks, n, mode,
                                          backend=backend, stop=stop)
               for backend in backends}
    assert len(results) == 1
    num, size, mask = results.pop()
    assert Fraction(num, size) <= Fraction(*stop) and mask.bit_count() == size
    assert boundary_count(G, mask, mode_name) == num
    for checked, combo in enumerate(lex_subsets(n, n // 2)):
        assert checked < 100
        subset = sum(1 << v for v in combo)
        if subset == mask:
            break
        assert Fraction(boundary_count(G, subset, mode_name), len(combo)) \
            > Fraction(*stop)


def bfs_components_ok(masks, full, cut_mask, cap):
    """The component check that grows every component in full before it
    compares its size with cap: the reference for the kernel's early
    exits."""
    rem = full & ~cut_mask
    while rem:
        comp = frontier = rem & -rem
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


@settings(max_examples=200)
@given(st.one_of(small_graphs(), tie_heavy_graphs(1, 14)).flatmap(
    lambda G: st.tuples(
        st.just(G),
        st.integers(0, (1 << G.vertex_count) - 1),
        st.integers(0, G.vertex_count + 1))))
def test_components_ok_matches_full_bfs(case):
    G, cut_mask, cap = case
    masks, n = G.neighbor_masks, G.vertex_count
    full = (1 << n) - 1
    left = n - cut_mask.bit_count()
    # cap = 0, a cap at or above the vertices left, and the drawn one.
    for c in (0, left, left + 1, max(left - 1, 0), cap):
        assert _kernels_py._components_ok(masks, full, cut_mask, c) \
            == bfs_components_ok(masks, full, cut_mask, c)


def scalar_min_cut(masks, n, cap, max_k, budget, min_k=0):
    """The exact cut search one subset at a time, with the scalar component
    check: the reference for the kernel's block path."""
    full = (1 << n) - 1
    examined = 0
    for k in range(max(min_k, 0), min(max_k, n) + 1):
        for combo in itertools.combinations(range(n), k):
            examined += 1
            if examined > budget:
                return (-2, examined)
            mask = sum(1 << v for v in combo)
            if _kernels_py._components_ok(masks, full, mask, cap):
                return (mask, examined)
    return (-1, examined)


def schedule_ends():
    """The end of the kernel's scalar head and the ends of its blocks in a
    search that no size end or budget cuts short, in subsets examined, up to
    the end of the first block of _CUT_LANES_MAX lanes."""
    ends, lanes = [_kernels_py._CUT_SCALAR], _kernels_py._CUT_LANES_MIN
    while True:
        ends.append(ends[-1] + lanes)
        if lanes == _kernels_py._CUT_LANES_MAX:
            return ends
        lanes *= 2


def kernel_blocks(n, min_k, max_k, stop):
    """The kernel's blocks up to stop subsets examined, as (start, end)
    pairs: after the scalar head, lanes doubles from _CUT_LANES_MIN up to
    _CUT_LANES_MAX after every block, and a block takes lanes subsets but
    ends early at the end of a size and at stop."""
    sizes = range(max(min_k, 0), min(max_k, n) + 1)
    blocks, start = [], _kernels_py._CUT_SCALAR
    lanes = _kernels_py._CUT_LANES_MIN
    for size_end in itertools.accumulate(math.comb(n, k) for k in sizes):
        while start < min(size_end, stop):
            end = min(start + lanes, size_end, stop)
            blocks.append((start, end))
            start = end
            lanes = min(2 * lanes, _kernels_py._CUT_LANES_MAX)
    return blocks


# Budgets at, one before and one past the end of the scalar head and of each
# block while the blocks grow, in a search that no size end cuts short.
SWITCH_BUDGETS = (0,) + tuple(end + d for end in schedule_ends()
                              for d in (-1, 0, 1))


def _budgeted(result, budget):
    """The result under a smaller budget: subset budget + 1 is never
    checked."""
    return result if result[1] <= budget else (-2, budget + 1)


@settings(max_examples=30)
@given(st.integers(12, 18).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from([0.1, 0.2, 0.35, 0.6]), st.integers(0, 99),
    st.integers(0, n), st.integers(-1, 3), st.integers(0, 3))))
def test_min_cut_blocks_match_scalar_loop(case):
    n, p, seed, cap, min_k, extra = case
    masks = _random_graph(n, p, seed).neighbor_masks
    max_k = max(min_k, 0) + extra
    full = scalar_min_cut(masks, n, cap, max_k, 10 ** 7, min_k)
    for budget in SWITCH_BUDGETS + (10 ** 7,):
        if budget < full[1]:
            assert scalar_min_cut(masks, n, cap, max_k, budget, min_k) \
                == _budgeted(full, budget)
        assert _kernels_py.min_cut_exact(masks, n, cap, max_k, budget,
                                         min_k) == _budgeted(full, budget)


def test_min_cut_blocks_past_the_first_block():
    """A cut found past the first block and an exhausted search that spans
    several blocks, with the exact examined counts, also at budgets on and
    around each block end."""
    grid = build_family("grid", 4, 5).neighbor_masks
    found = scalar_min_cut(grid, 20, 5, 20, 10 ** 7)
    assert found[1] > 256 + 2048 and found[0] >= 0
    none = scalar_min_cut(grid, 20, 0, 4, 10 ** 7)
    assert none == (-1, 1 + 20 + 190 + 1140 + 4845)
    for ref, cap, max_k in ((found, 5, 20), (none, 0, 4)):
        ends = tuple(end + d for _, end in kernel_blocks(20, 0, max_k, ref[1])
                     for d in (-1, 0, 1))
        for budget in SWITCH_BUDGETS + ends:
            assert _kernels_py.min_cut_exact(grid, 20, cap, max_k, budget) \
                == _budgeted(ref, budget)


@pytest.mark.parametrize("budget", [10 ** 7, 10000])
def test_min_cut_block_widths(monkeypatch, budget):
    """The blocks the search hands to _first_cut: after the end of a size
    the next block keeps doubling, so on grid 4x5 at cap 5 the block after
    the end of size 3 takes 4096 subsets. The last block holds the first
    cut, or ends at the budget."""
    grid = build_family("grid", 4, 5).neighbor_masks
    widths = []
    first_cut = _kernels_py._first_cut

    def recorded(nbrs, cap, rows):
        widths.append(rows.shape[1])
        return first_cut(nbrs, cap, rows)

    monkeypatch.setattr(_kernels_py, "_first_cut", recorded)
    mask, examined = _kernels_py.min_cut_exact(grid, 20, 5, 20, budget)
    blocks = kernel_blocks(20, 0, 20, budget)[:len(widths)]
    assert widths == [end - start for start, end in blocks]
    assert widths[:3] == [1351 - 256, 4096, 6196 - 5447]
    start, end = blocks[-1]
    if mask >= 0:
        assert start < examined <= end
    else:
        assert (mask, examined, end) == (-2, budget + 1, budget)


def hub_graph(n, k):
    """n - k independent vertices and k hubs joined to every other vertex.
    With cap 1, removing the hubs leaves single vertices, and every other
    set of at most k vertices leaves a hub joined to n - k - 1 >= 1 more:
    the only cut is the last k-subset in lexicographic order."""
    hubs = range(n - k, n)
    return Graph(n, [(u, h) for h in hubs for u in range(h)])


@pytest.mark.parametrize("n,k", [(16, 4), (17, 3), (19, 4), (20, 5)])
def test_min_cut_last_lane_of_a_ragged_block(n, k):
    """The only cut is the last real lane of a block whose lane count is
    not a multiple of 64, so the lanes that pad its last word follow it;
    they cut every vertex and must never be reported, neither when the cut
    is in the block nor when the budget ends the block just before it."""
    masks = hub_graph(n, k).neighbor_masks
    last = sum(math.comb(n, j) for j in range(k + 1))
    start, end = kernel_blocks(n, 0, k, last)[-1]
    assert end == last and (end - start) % 64
    hubs = sum(1 << h for h in range(n - k, n))
    assert scalar_min_cut(masks, n, 1, k, 10 ** 7) == (hubs, last)
    assert _kernels_py.min_cut_exact(masks, n, 1, k, 10 ** 7) == (hubs, last)
    assert _kernels_py.min_cut_exact(masks, n, 1, n, 10 ** 7) == (hubs, last)
    assert _kernels_py.min_cut_exact(masks, n, 1, k, last - 1) \
        == (-2, last)
    assert _kernels_py.min_cut_exact(masks, n, 1, k - 1, 10 ** 7) \
        == (-1, last - math.comb(n, k))


def test_min_cut_none_across_blocks_and_sizes():
    """A search with no cut that runs through several blocks of two sizes,
    the last one ending with the search, not on the schedule."""
    n, k = 20, 5
    masks = hub_graph(n, k).neighbor_masks
    size_ends = list(itertools.accumulate(math.comb(n, j) for j in range(k)))
    total = size_ends[-1]
    blocks = kernel_blocks(n, 0, k - 1, total)
    sizes = {bisect.bisect_right(size_ends, start) for start, _ in blocks}
    assert len(blocks) >= 3 and len(sizes) == 2
    assert scalar_min_cut(masks, n, 1, k - 1, 10 ** 7) == (-1, total)
    for budget in SWITCH_BUDGETS + (total - 1, total, 10 ** 7):
        assert _kernels_py.min_cut_exact(masks, n, 1, k - 1, budget) \
            == _budgeted((-1, total), budget)


@settings(max_examples=15)
@given(wide_graphs(), st.integers(0, 3), st.integers(0, 2))
def test_min_cut_blocks_wide_graphs(G, cap, min_k):
    """Graphs on 63 and 64 vertices, so that the last vertex has bit 63."""
    masks, n = G.neighbor_masks, G.vertex_count
    full = scalar_min_cut(masks, n, cap, 2, 10 ** 7, min_k)
    for budget in SWITCH_BUDGETS + (10 ** 7,):
        assert _kernels_py.min_cut_exact(masks, n, cap, 2, budget, min_k) \
            == _budgeted(full, budget)


# The first budgets of SWITCH_BUDGETS, to keep the scalar reference short.
_WIDE_LIMIT = 6401


@pytest.mark.parametrize("G", [
    build_family("path", 70), build_family("cycle", 65),
    build_family("grid", 9, 9)], ids=["path70", "cycle65", "grid9x9"])
@pytest.mark.parametrize("frac", [(1, 2), (1, 3), (1, 4)])
def test_min_cut_blocks_beyond_64_vertices(G, frac):
    """Above 64 vertices the compiled kernel takes no graph, and the block
    path serves them as it does smaller ones: lanes are vertex indices, not
    64-bit masks."""
    masks, n = G.neighbor_masks, G.vertex_count
    cap = frac[0] * n // frac[1]
    ref = scalar_min_cut(masks, n, cap, n, _WIDE_LIMIT)
    for budget in (b for b in SWITCH_BUDGETS if b <= _WIDE_LIMIT):
        assert _kernels_py.min_cut_exact(masks, n, cap, n, budget) \
            == _budgeted(ref, budget)
    if ref[0] >= 0:
        cut_set = [v for v in range(n) if ref[0] >> v & 1]
        assert is_cut_set(G, cut_set, Fraction(*frac))
