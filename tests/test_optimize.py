"""The whole-array L^p gradients against the per-vertex loops they replaced.

The loops below are the former implementations, kept as oracles: the
vectorized code must return the same bits, so that every witness, value and
report byte stays as it was.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sepprof import optimize, spectral
from sepprof.cheeger import WeightedMetricGraph
from sepprof.graphs import Graph, build_family

# ---------------------------------------------------------------------------
# Oracles: the per-vertex loops


def oracle_balls(Z: WeightedMetricGraph, radius):
    r = math.floor(radius)
    n = Z.graph.vertex_count
    return [np.array([y for y in range(n) if Z.dist[x][y] <= r], dtype=int)
            for x in range(n)]


def oracle_sup_rows(f, balls, p):
    n, d = f.shape
    u = np.zeros(n)
    for x in range(n):
        ball = balls[x]
        if len(ball) < 2:
            continue
        sub = f[ball]
        if d == 1:
            u[x] = float(sub.max() - sub.min())
        else:
            diffs = sub[:, None, :] - sub[None, :, :]
            u[x] = float(np.max(np.sum(np.abs(diffs) ** p, axis=2)) ** (1.0 / p))
    return u


def oracle_sup_subgrad(f, balls, nu, p):
    g = np.zeros_like(f)
    n, d = f.shape
    for x in range(n):
        ball = balls[x]
        if len(ball) < 2:
            continue
        sub = f[ball]
        if d == 1:
            hi = ball[int(np.argmax(sub[:, 0]))]
            lo = ball[int(np.argmin(sub[:, 0]))]
        else:
            diffs = np.sum(np.abs(sub[:, None, :] - sub[None, :, :]) ** p, axis=2)
            i, j = np.unravel_index(int(np.argmax(diffs)), diffs.shape)
            hi, lo = ball[i], ball[j]
        delta = f[hi] - f[lo]
        grad = p * np.sign(delta) * np.abs(delta) ** (p - 1)
        g[hi] += nu[x] * grad
        g[lo] -= nu[x] * grad
    return g


def oracle_modified_pow(f, neighbors, nu, p):
    total = 0.0
    for x in range(f.shape[0]):
        nbrs = neighbors[x]
        if len(nbrs):
            total += nu[x] * float(np.sum(np.abs(f[x] - f[list(nbrs)]) ** p))
    return total


def oracle_modified_subgrad(f, neighbors, nu, p):
    g = np.zeros_like(f)
    for x in range(f.shape[0]):
        for y in neighbors[x]:
            delta = f[x] - f[y]
            grad = nu[x] * p * np.sign(delta) * np.abs(delta) ** (p - 1)
            g[x] += grad
            g[y] -= grad
    return g


def oracle_lambda_infinity_ratio(G, f):
    f = np.asarray(f, dtype=float)
    n = G.vertex_count
    num = 0.0
    for i in range(n):
        nbrs = G.neighbors[i]
        if nbrs:
            d = f[i] - f[list(nbrs)]
            num += float(np.max(d * d))
    num /= n
    centered = f - f.mean()
    den = 2.0 * float(centered @ centered) / n
    return 2.0 * num / den


def oracle_lambda_infinity_upper(G, restarts, seed):
    n = G.vertex_count
    rng = np.random.default_rng(seed)
    nbr_idx = [np.array(G.neighbors[i], dtype=int) for i in range(n)]

    def objective(f):
        total = 0.0
        for i in range(n):
            if len(nbr_idx[i]):
                d = f[i] - f[nbr_idx[i]]
                total += float(np.max(d * d))
        return total

    def subgradient(f):
        g = np.zeros(n)
        for i in range(n):
            if len(nbr_idx[i]) == 0:
                continue
            d = f[i] - f[nbr_idx[i]]
            j = nbr_idx[i][int(np.argmax(d * d))]
            g[i] += 2.0 * (f[i] - f[j])
            g[j] -= 2.0 * (f[i] - f[j])
        return g

    def project(f):
        f = f - f.mean()
        norm = np.linalg.norm(f)
        return f / norm if norm > 1e-12 else None

    starts = [spectral.fiedler_vector(G)]
    starts += [rng.standard_normal(n) for _ in range(max(0, restarts - 1))]
    best_val, best_f = np.inf, None
    for f0 in starts:
        f = project(np.asarray(f0, dtype=float))
        if f is None:
            continue
        cur_val, cur_f = objective(f), f.copy()
        for t in range(1, 201):
            g = subgradient(f)
            norm = np.linalg.norm(g)
            if norm > 0:
                stepped = project(f - g / (norm * np.sqrt(t)))
                if stepped is None:
                    break
                f = stepped
            val = objective(f)
            if val < cur_val:
                cur_val, cur_f = val, f.copy()
        if cur_val < best_val:
            best_val, best_f = cur_val, cur_f
    return oracle_lambda_infinity_ratio(G, best_f), best_f


# ---------------------------------------------------------------------------
# Inputs


def irregular_graph() -> Graph:
    """A hub of degree 10, a pendant path, a triangle and an isolated vertex:
    unequal degrees, rows long enough for numpy's pairwise summation, and an
    empty neighbour list and singleton ball."""
    edges = [(0, v) for v in range(1, 11)]
    edges += [(1, 2), (2, 3), (10, 11), (11, 12), (12, 13), (4, 5), (5, 6),
              (6, 4)]
    return Graph(15, edges)


GRAPHS = {
    "grid": build_family("grid", 4, 5),
    "hypercube": build_family("hypercube", 4),
    "cycle": build_family("cycle", 9),
    "path": build_family("path", 7),
    "irregular": irregular_graph(),
}
METRICS = {name: WeightedMetricGraph(G) for name, G in GRAPHS.items()}


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(GRAPHS)))
    d = draw(st.sampled_from([1, 2, 3]))
    p = draw(st.sampled_from([1, 1.5, 2, 3]))
    radius = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = GRAPHS[name].vertex_count
    f = rng.standard_normal((n, d))
    if draw(st.booleans()):
        f = np.round(2 * f)  # few distinct values: ties in every ball
    nu = rng.uniform(0.5, 2.0, n)
    return name, f, nu, p, radius


def same_bits(a, b):
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Tests


@settings(max_examples=150)
@given(cases())
def test_sup_gradient_matches_loops(case):
    name, f, nu, p, radius = case
    Z = METRICS[name]
    balls = Z.balls(radius)
    loops = oracle_balls(Z, radius)
    same_bits(optimize.sup_gradient_rows(f, balls, p),
              oracle_sup_rows(f, loops, p))
    same_bits(optimize.sup_gradient_subgrad(f, balls, nu, p),
              oracle_sup_subgrad(f, loops, nu, p))


@settings(max_examples=150)
@given(cases())
def test_sup_gradient_objective_matches_loops(case):
    name, f, nu, p, radius = case
    Z = METRICS[name]
    loops = oracle_balls(Z, radius)
    numer_pow, numer_subgrad = optimize.sup_gradient_objective(
        Z.balls(radius), nu, p)
    same_bits(numer_pow(f), float(nu @ (oracle_sup_rows(f, loops, p) ** p)))
    same_bits(numer_subgrad(f), oracle_sup_subgrad(f, loops, nu, p))


@pytest.mark.parametrize("d", [1, 2])
def test_sup_gradient_objective_recomputes_for_other_arrays(d):
    Z = METRICS["irregular"]
    loops = oracle_balls(Z, 2)
    rng = np.random.default_rng(d)
    nu = rng.uniform(0.5, 2.0, 15)
    numer_pow, numer_subgrad = optimize.sup_gradient_objective(
        Z.balls(2), nu, 1.5)

    def value(f):
        return float(nu @ (oracle_sup_rows(f, loops, 1.5) ** 1.5))

    f = rng.standard_normal((15, d))
    for g in [f.copy(), -f] + [rng.standard_normal((15, d)) for _ in range(8)]:
        numer_pow(f)
        same_bits(numer_subgrad(g), oracle_sup_subgrad(g, loops, nu, 1.5))
        same_bits(numer_pow(g), value(g))
        same_bits(numer_subgrad(f), oracle_sup_subgrad(f, loops, nu, 1.5))
        same_bits(numer_pow(f), value(f))
    for _ in range(8):
        # Freed unless the memo holds it, and then g may get its id.
        temp = rng.standard_normal((15, d))
        numer_pow(temp)
        del temp
        g = rng.standard_normal((15, d))
        same_bits(numer_subgrad(g), oracle_sup_subgrad(g, loops, nu, 1.5))


def test_minimize_quotient_keeps_iterates_and_call_order():
    """The memo contract: each subgradient is asked for at the array the
    objective saw last, and no array either callable saw changes later."""
    Z = METRICS["grid"]
    nu = np.random.default_rng(0).uniform(0.5, 2.0, 20)
    numer_pow, numer_subgrad = optimize.sup_gradient_objective(
        Z.balls(1), nu, 1.5)
    seen = []

    def objective(f):
        seen.append((f, f.tobytes()))
        return numer_pow(f)

    def subgradient(f):
        assert f is seen[-1][0]
        assert all(g.tobytes() == data for g, data in seen)
        return numer_subgrad(f)

    starts = list(np.random.default_rng(1).standard_normal((3, 20, 1)))
    optimize.minimize_quotient(objective, subgradient, nu, 1.5, starts,
                               iters=40)
    assert len(seen) == 3 * 41
    assert all(g.tobytes() == data for g, data in seen)


@settings(max_examples=150)
@given(st.integers(1, 6), st.sampled_from([None, 1, 2, 3]),
       st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_scatter_pairs_matches_loop(n, d, m, seed):
    rng = np.random.default_rng(seed)
    plus, minus = rng.integers(0, n, m), rng.integers(0, n, m)
    shape = (m,) if d is None else (m, d)
    # Magnitudes far apart, so that another order of addition shows in the
    # bits; few vertices, so that indices repeat.
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    expected = np.zeros((n,) + shape[1:])
    for k in range(m):
        expected[plus[k]] += v[k]
        expected[minus[k]] -= v[k]
    same_bits(optimize.scatter_pairs(n, plus, minus, v), expected)


@settings(max_examples=150)
@given(cases())
def test_modified_gradient_matches_loops(case):
    name, f, nu, p, _ = case
    G = GRAPHS[name]
    nbrs = optimize.NeighborIndex(G.neighbors)
    value = optimize.modified_gradient_pow(f, nbrs, nu, p)
    assert type(value) is np.float64
    same_bits(value, oracle_modified_pow(f, G.neighbors, nu, p))
    same_bits(optimize.modified_gradient_subgrad(f, nbrs, nu, p),
              oracle_modified_subgrad(f, G.neighbors, nu, p))


@settings(max_examples=150)
@given(cases())
def test_lambda_infinity_ratio_matches_loop(case):
    name, f, _, _, _ = case
    G = GRAPHS[name]
    assume(np.ptp(f[:, 0]) > 0)  # the ratio is undefined at a constant
    same_bits(spectral.lambda_infinity_ratio(G, f[:, 0]),
              oracle_lambda_infinity_ratio(G, f[:, 0]))


def test_balls_are_padded_with_first_member():
    Z = METRICS["irregular"]
    balls = Z.balls(1.7)
    assert balls.shape == (15, 11)  # the hub's ball: itself and 10 neighbours
    for x, ball in enumerate(oracle_balls(Z, 1)):
        assert list(balls[x, :len(ball)]) == list(ball)
        assert (balls[x, len(ball):] == ball[0]).all()
    assert (balls[14] == 14).all()  # isolated: a singleton ball


def test_modified_gradient_without_edges_is_python_zero():
    G = Graph(3, [])
    f = np.arange(3.0)[:, None]
    nbrs = optimize.NeighborIndex(G.neighbors)
    value = optimize.modified_gradient_pow(f, nbrs, np.ones(3), 2)
    same_bits(value, oracle_modified_pow(f, G.neighbors, np.ones(3), 2))
    same_bits(optimize.modified_gradient_subgrad(f, nbrs, np.ones(3), 2),
              np.zeros((3, 1)))


@pytest.mark.parametrize("name,gradient,d,p,radius", [
    ("grid", "sup", 1, 1, 1),
    ("grid", "sup", 2, 3, 2),
    ("irregular", "sup", 1, 1.5, 2),
    ("hypercube", "modified", 1, 1.5, 1),
    ("irregular", "modified", 3, 3, 1),
])
def test_minimize_quotient_same_witness(name, gradient, d, p, radius):
    G, Z = GRAPHS[name], METRICS[name]
    n = G.vertex_count
    nu = np.random.default_rng(0).uniform(0.5, 2.0, n)
    if gradient == "sup":
        balls, loops = Z.balls(radius), oracle_balls(Z, radius)
        new = optimize.sup_gradient_objective(balls, nu, p)
        old = (lambda f: float(nu @ (oracle_sup_rows(f, loops, p) ** p)),
               lambda f: oracle_sup_subgrad(f, loops, nu, p))
    else:
        nbrs = optimize.NeighborIndex(G.neighbors)
        new = (lambda f: optimize.modified_gradient_pow(f, nbrs, nu, p),
               lambda f: optimize.modified_gradient_subgrad(f, nbrs, nu, p))
        old = (lambda f: oracle_modified_pow(f, G.neighbors, nu, p),
               lambda f: oracle_modified_subgrad(f, G.neighbors, nu, p))
    starts = list(np.random.default_rng(1).standard_normal((3, n, d)))
    val_new, f_new = optimize.minimize_quotient(*new, nu, p, starts, iters=60)
    val_old, f_old = optimize.minimize_quotient(*old, nu, p, starts, iters=60)
    same_bits(val_new, val_old)
    same_bits(f_new, f_old)


@pytest.mark.parametrize("name", ["grid", "irregular"])
def test_lambda_infinity_upper_same_witness(name):
    G = GRAPHS[name]
    value, witness = spectral.lambda_infinity_upper(G, restarts=3, seed=5)
    value_old, witness_old = oracle_lambda_infinity_upper(G, 3, 5)
    same_bits(value, value_old)
    same_bits(witness, witness_old)


@pytest.mark.parametrize("radius", [1, 3])
def test_sup_gradient_in_row_chunks(monkeypatch, radius):
    monkeypatch.setattr(optimize, "PAIR_CHUNK", 100)  # a few balls per chunk
    Z = METRICS["grid"]
    rng = np.random.default_rng(radius)
    f = rng.standard_normal((20, 2))
    nu = rng.uniform(0.5, 2.0, 20)
    balls, loops = Z.balls(radius), oracle_balls(Z, radius)
    same_bits(optimize.sup_gradient_rows(f, balls, 1.5),
              oracle_sup_rows(f, loops, 1.5))
    same_bits(optimize.sup_gradient_subgrad(f, balls, nu, 1.5),
              oracle_sup_subgrad(f, loops, nu, 1.5))
