import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepprof.bounds import (CompressionTable, MonotoneTable, ScaleFunction,
                            SphereTable, check_condition, compression_function,
                            poincare_upper_bound, rearrange, rearrange_steps,
                            rho_delta)
from sepprof.graphs import Graph, bfs_distances, build_family, is_connected


def test_compression_identity_on_path():
    g = build_family("path", 8)
    table = compression_function(g, np.arange(8, dtype=float), 1)
    assert table.values == tuple(float(t) for t in range(8))
    assert table.lipschitz == 1.0 and not table.rescaled


def test_compression_constant_map():
    g = build_family("path", 5)
    table = compression_function(g, np.zeros(5), 2)
    assert all(v == 0.0 for v in table.values)


def test_compression_grid_l1():
    g = build_family("grid", 5, 5)
    table = compression_function(g, np.array(g.labels, dtype=float), 1)
    assert all(table.values[t] == float(t) for t in range(table.max_t + 1))


def test_compression_rescales_and_logs():
    g = build_family("path", 4)
    table = compression_function(g, 3.0 * np.arange(4, dtype=float), 1)
    assert table.rescaled and table.lipschitz == 3.0
    assert table.values[1] == pytest.approx(1.0)


def test_compression_skips_infinite_distances():
    g = Graph(4, [(0, 1), (2, 3)])
    table = compression_function(g, np.array([0.0, 1.0, 5.0, 6.0]), 1)
    assert table.max_t == 1


def test_compression_rejects_partial_or_non_finite_embedding():
    g = build_family("path", 4)
    for f in ([0.0, 1.0, 2.0], [0.0, math.nan, 2.0, 3.0],
              [0.0, math.inf, 2.0, 3.0]):
        with pytest.raises(ValueError, match="every vertex a finite point"):
            compression_function(g, f, 1)


def test_compression_table_monotone_enforced():
    with pytest.raises(ValueError):
        CompressionTable(values=(0.0, 2.0, 1.0), p=1)
    with pytest.raises(ValueError):
        CompressionTable(values=(1.0, 2.0), p=1)


def pair_loop_compression(G, f, p):
    """compression_function as a loop over vertex pairs."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    n = G.vertex_count
    dist = [bfs_distances(G, v) for v in range(n)]
    lip = 0.0
    for u, v in G.edges:
        lip = max(lip, float(np.sum(np.abs(f[u] - f[v]) ** p) ** (1.0 / p)))
    scale = 1.0 / lip if lip > 1.0 else 1.0
    finite = [int(dist[u][v]) for u in range(n) for v in range(u + 1, n)
              if dist[u][v] != math.inf]
    max_t = max(finite, default=0)
    mins = [math.inf] * (max_t + 1)
    for u in range(n):
        for v in range(u + 1, n):
            if dist[u][v] != math.inf:
                emb = scale * float(
                    np.sum(np.abs(f[u] - f[v]) ** p) ** (1.0 / p))
                mins[int(dist[u][v])] = min(mins[int(dist[u][v])], emb)
    values = [0.0] * (max_t + 1)
    running = math.inf
    for t in range(max_t, 0, -1):
        running = min(running, mins[t])
        values[t] = 0.0 if running == math.inf else running
    return CompressionTable(values=tuple(values), p=p, lipschitz=lip,
                            rescaled=lip > 1.0)


def pair_loop_sigma(G):
    """SphereTable.from_graph's sphere counts as a loop over vertex pairs."""
    n = G.vertex_count
    dist = [bfs_distances(G, v) for v in range(n)]
    diam = int(max(d for row in dist for d in row if d != math.inf))
    sigma = [0] * (diam + 1)
    for x in range(n):
        counts = [0] * (diam + 1)
        for y in range(n):
            if dist[x][y] != math.inf:
                counts[int(dist[x][y])] += 1
        sigma = [max(a, b) for a, b in zip(sigma, counts)]
    return tuple(sigma)


def test_compression_function_matches_pair_loop(seeded_graphs):
    rng = np.random.default_rng(19)
    assert not all(map(is_connected, seeded_graphs))
    for G in seeded_graphs:
        for p in (1, 2, 3):
            for dim in (1, 3):
                # spread 3 forces the rescaling, spread 0.3 mostly not
                for spread in (0.3, 3.0):
                    f = spread * rng.standard_normal((G.vertex_count, dim))
                    table = compression_function(G, f, p)
                    assert repr(table) == repr(pair_loop_compression(G, f, p))
                    assert type(table.lipschitz) is float
                    assert type(table.rescaled) is bool


def test_sphere_table_matches_pair_loop(seeded_graphs):
    for G in seeded_graphs:
        sigma = SphereTable.from_graph(G).sigma
        assert sigma == pair_loop_sigma(G)
        assert all(type(s) is int for s in sigma)


def test_sphere_table_rejects_empty_graph():
    with pytest.raises(ValueError, match="at least one vertex"):
        SphereTable.from_graph(Graph(0, []))


def test_sphere_table_from_graph():
    g = build_family("cycle", 8)
    table = SphereTable.from_graph(g)
    assert table.sigma == (1, 2, 2, 2, 1)
    assert table.degree_bound == 2
    assert table.K(5) == 2
    assert table.K(100) == 4


def test_upper_bound_closed_form():
    sig = SphereTable(sigma=tuple(2 ** n for n in range(8)))
    rho = CompressionTable(values=tuple(float(n) for n in range(8)), p=1)
    assert poincare_upper_bound(16, 1, sig, rho) == pytest.approx(1024 / 34)


def test_upper_bound_zero_compression_unbounded():
    sig = SphereTable(sigma=(1, 2, 4))
    rho = CompressionTable(values=(0.0, 0.0, 0.0), p=1)
    assert math.isinf(poincare_upper_bound(6, 1, sig, rho))


def test_upper_bound_coverage_error():
    sig = SphereTable(sigma=(1, 2, 4, 8, 16))
    rho = CompressionTable(values=(0.0, 1.0), p=1)
    with pytest.raises(ValueError, match="covers"):
        poincare_upper_bound(30, 1, sig, rho)


def test_exponential_form_small_n_branch():
    sig = SphereTable(sigma=(1, 3, 9))
    rho = CompressionTable(values=(0.0, 1.0, 2.0, 3.0), p=1)
    assert poincare_upper_bound(5, 1, sig, rho, "exponential") == 30.0
    big = poincare_upper_bound(100, 1, sig, rho, "exponential")
    assert big == pytest.approx(2 ** 1 * 3 ** 3 * 100 / rho.rho(
        math.log(100) / (2 * math.log(3))))


def test_rearrange_figure():
    s = [n + 1 for n in range(10)]
    steps = list(rearrange_steps([1, 2, 1, 3, 2, 3], s))
    assert steps[1] == [1, 2, 3, 1, 2, 3]
    final = rearrange([1, 2, 1, 3, 2, 3], s)
    assert sum(final) == 12
    # prefix of s, one slack entry, zeros after
    i0 = next(i for i in range(len(final)) if final[i] != s[i])
    assert all(v == 0 for v in final[i0 + 1:])


def test_rearrange_fixed_point():
    s = [2, 3, 4, 5]
    assert rearrange([2, 3, 0, 0], s) == [2, 3, 0, 0]


def test_rearrange_rejects_overfull():
    with pytest.raises(ValueError):
        rearrange([3], [2])


@given(st.integers(0, 2 ** 31 - 1))
def test_rearrange_lemma_inequality(seed):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(3, 9))
    s = [int(rng.integers(1, 7)) for _ in range(length)]
    h = [int(rng.integers(0, sv + 1)) for sv in s]
    rho = np.sort(rng.random(length))
    total = sum(h)
    before = sum(hv * rv for hv, rv in zip(h, rho))
    acc = 0
    for k in range(length):
        acc += s[k]
        if acc > total:
            break
        assert before >= sum(s[i] * rho[i] for i in range(k + 1)) - 1e-12
    # per-step audit: the weighted sum never increases
    weights = [sum(hv * rv for hv, rv in zip(step, rho))
               for step in rearrange_steps(h, s)]
    assert all(b <= a + 1e-12 for a, b in zip(weights, weights[1:]))
    assert sum(rearrange(h, s)) == total


def test_rho_delta_values_and_domain():
    scale = ScaleFunction(ks=(3, 9), ls=(2, 6))
    assert rho_delta(scale, 6) == 3.0
    assert rho_delta(scale, 17.9) == pytest.approx(17.9 / 2)
    assert rho_delta(scale, 18) == 9.0
    assert rho_delta(scale, 53.9) == 9.0
    with pytest.raises(ValueError):
        rho_delta(scale, 5)
    with pytest.raises(ValueError):
        rho_delta(scale, 54)


def test_rho_delta_monotonicity_audit():
    scale = ScaleFunction(ks=(2, 5, 11), ls=(1, 4, 9))
    xs = [2 + 0.1 * i for i in range(int((99 - 2) / 0.1))]
    vals = [rho_delta(scale, x) for x in xs]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    ratios = [x / v for x, v in zip(xs, vals)]
    assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_scale_function_validation():
    with pytest.raises(ValueError):
        ScaleFunction(ks=(3, 3), ls=(1, 2))
    with pytest.raises(ValueError):
        ScaleFunction(ks=(0, 1), ls=(1, 2))


def test_monotone_table_inverse():
    table = MonotoneTable.sample(lambda x: x ** 2, [0.5 * i for i in range(1, 40)])
    for y in (1.0, 5.0, 111.0):
        assert table.inverse(y) == pytest.approx(math.sqrt(y), rel=1e-2)
    with pytest.raises(ValueError):
        table.inverse(1e9)


def test_compression_rho1_below_lipschitz():
    g = build_family("grid", 3, 3)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((9, 2))
    table = compression_function(g, f, 2)
    assert table.values[1] <= 1.0 + 1e-12  # rescaled tables are 1-Lipschitz
    raw = compression_function(g, np.arange(9, dtype=float) * 0.1, 1)
    assert raw.values[1] <= raw.lipschitz + 1e-12


def test_conditions_examples():
    dom = [10 ** (0.01 * i) for i in range(-200, 1301)]
    grid = [10 ** (0.5 * i) for i in range(2, 13)]
    sqrt_rep = check_condition(MonotoneTable.sample(math.sqrt, dom), "S_ab",
                               alpha=0.0, beta=2.0, C=1.0, grid=grid)
    assert sqrt_rep.passed and sqrt_rep.checked == len(grid)
    log_dom = [10 ** (0.01 * i) for i in range(100, 601)]
    log_rep = check_condition(
        MonotoneTable.sample(lambda x: math.log(1 + x), log_dom), "SSL",
        C=2.0, grid=[5.0 + 0.5 * i for i in range(17)])
    assert log_rep.passed and log_rep.checked >= 5
    id_rep = check_condition(MonotoneTable.sample(lambda x: x, dom), "SSL",
                             C=2.0, grid=grid)
    assert not id_rep.passed and id_rep.worst_x == max(grid)
