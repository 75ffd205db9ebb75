"""Backend parity and brute-force oracles for the bitmask kernels."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepprof import kernels
from sepprof.errors import BudgetError
from sepprof.graphs import Graph, build_family, connected_components, induced_subgraph

BACKENDS = kernels.available_backends()


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
def test_cheeger_witness_is_first_minimizer(backend, G):
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
def test_cheeger_matches_bruteforce(backend, mode_name, mode):
    for g in (build_family("cycle", 8), build_family("path", 7),
              build_family("grid", 2, 4), build_family("complete", 5)):
        num, size, mask = kernels.cheeger_exhaustive(
            g.neighbor_masks, g.vertex_count, mode, backend=backend)
        oracle = brute_cheeger(g, mode_name)
        assert num * oracle[1] == oracle[0] * size
        assert mask.bit_count() == size


@given(small_graphs())
def test_backend_parity_cheeger(G):
    if len(BACKENDS) < 2:
        pytest.skip("compiled backend unavailable")
    for mode in (0, 1, 2):
        a = kernels.cheeger_exhaustive(G.neighbor_masks, G.vertex_count, mode,
                                       backend="compiled")
        b = kernels.cheeger_exhaustive(G.neighbor_masks, G.vertex_count, mode,
                                       backend="python")
        assert a == b


@given(small_graphs(), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
def test_backend_parity_and_oracle_min_cut(G, frac):
    num, den = frac
    results = {}
    for backend in BACKENDS:
        mask, examined = kernels.min_cut_exact(
            G.neighbor_masks, G.vertex_count, num, den, G.vertex_count,
            10 ** 7, backend=backend)
        results[backend] = (mask, examined)
    assert len(set(results.values())) == 1
    mask = results[BACKENDS[0]][0]
    assert mask.bit_count() == brute_min_cut(G, num, den)


@given(small_graphs(), st.integers(1, 6))
def test_backend_parity_and_oracle_subsets(G, max_size):
    lists = {
        backend: kernels.connected_subsets(
            G.neighbor_masks, G.vertex_count, max_size, 10 ** 7,
            backend=backend)
        for backend in BACKENDS
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
