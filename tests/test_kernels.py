"""Backend parity and brute-force oracles for the bitmask kernels."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepprof import kernels
from sepprof.cuts import is_cut_set
from sepprof.errors import BudgetError
from sepprof.graphs import Graph, build_family, connected_components, induced_subgraph

BACKENDS = ("compiled", "python")


@pytest.fixture(scope="module")
def backends(compiled_kernels):
    """Kernel backends under test. "compiled" routes to the build from
    source for this module's tests when a C compiler exists."""
    saved = kernels._compiled
    if compiled_kernels is not None:
        kernels._compiled = compiled_kernels
    try:
        yield kernels.available_backends()
    finally:
        kernels._compiled = saved


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
def tie_heavy_graphs(draw):
    """Graphs on 1..12 vertices: random sparse or dense ones, and symmetric
    ones (empty, complete, cycles) where many subsets tie."""
    n = draw(st.integers(1, 12))
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
    lists = {
        backend: kernels.connected_subsets(
            G.neighbor_masks, G.vertex_count, max_size, 10 ** 7,
            backend=backend)
        for backend in backends
    }
    values = list(lists.values())
    assert all(v == values[0] for v in values)
    assert set(values[0]) == brute_connected_subsets(G, max_size)
    assert len(values[0]) == len(set(values[0]))


def test_min_cut_budget_error():
    g = build_family("grid", 4, 4)
    with pytest.raises(BudgetError, match="heuristic"):
        kernels.min_cut_exact(g.neighbor_masks, 16, 1, 4, 16, budget=5)


def test_connected_subsets_budget_error():
    g = build_family("grid", 3, 4)
    with pytest.raises(BudgetError):
        kernels.connected_subsets(g.neighbor_masks, 12, 12, budget=10)


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
    assert len(out) == len(set(out))
    assert any(mask >> 63 & 1 for mask in out) == (G.vertex_count == 64)
    for mask in out:
        verts = [v for v in range(G.vertex_count) if mask >> v & 1]
        assert len(verts) <= max_size
        assert len(connected_components(induced_subgraph(G, verts))) == 1
