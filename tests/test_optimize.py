"""The whole-array L^p gradients and the batched optimizer loop against the
per-vertex loops and the one-start-at-a-time loops they replaced.

The loops below are the former implementations, kept as oracles: the
vectorized code must return the same bits, so that every witness, value and
report byte stays as it was.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sepprof import cheeger, optimize, spectral
from sepprof.cheeger import WeightedMetricGraph, _starts
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
    starts = [spectral.fiedler_vector(G)]
    starts += [rng.standard_normal(n) for _ in range(max(0, restarts - 1))]
    best_f = oracle_lambda_infinity_loop(G, starts)[1]
    return oracle_lambda_infinity_ratio(G, best_f), best_f


def oracle_lambda_infinity_loop(G, starts):
    """The former private loop of lambda_infinity_upper, one start at a
    time; returns (best objective, best f, starts that collapsed)."""
    n = G.vertex_count
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

    best_val, best_f, collapsed = np.inf, None, 0
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
                    collapsed += 1
                    break
                f = stepped
            val = objective(f)
            if val < cur_val:
                cur_val, cur_f = val, f.copy()
        if cur_val < best_val:
            best_val, best_f = cur_val, cur_f
    return best_val, best_f, collapsed


def oracle_project_sphere(f, nu, p):
    f = f - (nu @ f) / nu.sum()
    norm = float((nu @ np.sum(np.abs(f) ** p, axis=1)) ** (1.0 / p))
    if norm < 1e-12:
        return None
    return f / norm


def oracle_minimize_quotient(numer_pow, numer_subgrad, nu, p, starts, iters):
    """The former optimizer loop, one start at a time; returns (best
    objective, best f, starts that collapsed)."""
    best_val, best_f, collapsed = np.inf, None, 0
    for f0 in starts:
        f = oracle_project_sphere(np.asarray(f0, dtype=float), nu, p)
        if f is None:
            continue
        cur_val, cur_f = numer_pow(f), f.copy()
        for t in range(1, iters + 1):
            g = numer_subgrad(f)
            norm = np.linalg.norm(g)
            if norm > 1e-15:
                stepped = oracle_project_sphere(f - g / (norm * np.sqrt(t)),
                                                nu, p)
                if stepped is None:
                    collapsed += 1
                    break
                f = stepped
            val = numer_pow(f)
            if val < cur_val:
                cur_val, cur_f = val, f.copy()
        if cur_val < best_val:
            best_val, best_f = cur_val, cur_f
    return best_val, best_f, collapsed


def oracle_widest_pairs(F, p):
    """The former full search over all B * B pairs of each row of F (m, B,
    d): the largest sum of |differences|^p and the first (i, j) reaching it
    in row-major order."""
    m, B, d = F.shape
    S = np.sum(np.abs(F[:, :, None, :] - F[:, None, :, :]) ** p, axis=3)
    at = S.reshape(m, B * B).argmax(axis=1)
    i, j = np.divmod(at, B)
    return S[np.arange(m), i, j], i, j


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


@st.composite
def stacked_cases(draw):
    """A case whose f is the first row of a stack of 1 to 4 functions, each
    further row rounded (ties) or not."""
    name, f, nu, p, radius = draw(cases())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [f]
    for _ in range(draw(st.integers(0, 3))):
        g = rng.standard_normal(f.shape)
        rows.append(np.round(2 * g) if draw(st.booleans()) else g)
    return name, np.array(rows), nu, p, radius


def same_bits(a, b):
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def sup_oracles_for(Z, nu, p, radius):
    """The sup-gradient (numer_pow, numer_subgrad) on Z as per-vertex loops
    on one function."""
    loops = oracle_balls(Z, radius)
    return (lambda f: float(nu @ (oracle_sup_rows(f, loops, p) ** p)),
            lambda f: oracle_sup_subgrad(f, loops, nu, p))


def sup_oracles(name, nu, p, radius):
    return sup_oracles_for(METRICS[name], nu, p, radius)


def modified_oracles(name, nu, p):
    G = GRAPHS[name]
    return (lambda f: oracle_modified_pow(f, G.neighbors, nu, p),
            lambda f: oracle_modified_subgrad(f, G.neighbors, nu, p))


def same_rows(objective, oracles, F):
    """A batched (numer_pow, numer_subgrad) on the stack F gives, row by
    row, the bits of the one-function oracles."""
    values, subgrads = objective[0](F), objective[1](F)
    assert values.shape == (len(F),) and subgrads.shape == F.shape
    for r, f in enumerate(F):
        same_bits(float(values[r]), float(oracles[0](f)))
        same_bits(subgrads[r], oracles[1](f))


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
@given(stacked_cases())
def test_sup_gradient_objective_matches_loops(case):
    name, F, nu, p, radius = case
    same_rows(optimize.sup_gradient_objective(METRICS[name].balls(radius),
                                              nu, p),
              sup_oracles(name, nu, p, radius), F)


def random_balls(rng, m, B, n, overlap=False):
    """An (m, B) ball matrix over n vertices: ball x has 1 to B distinct
    members, padded with its first. With ``overlap``, every ball after the
    first is the first with at most one member swapped, so that neighbouring
    balls share most of their pairs."""
    balls = np.empty((m, B), dtype=np.intp)
    base = rng.choice(n, B, replace=False)
    for x in range(m):
        if overlap:  # the first ball's members, at most one swapped
            members = base.copy()
            if x and rng.random() < 0.5:
                members[rng.integers(B)] = rng.choice(
                    np.setdiff1d(np.arange(n), base))
            size = B - int(rng.integers(0, 2))
        else:
            size = int(rng.integers(1, B + 1))
            members = rng.choice(n, size, replace=False)
        balls[x] = members[0]
        balls[x, :size] = members[:size]
    return balls


def pair_chunk_limits(B, m, d):
    """PAIR_CHUNK as is, below one ball, two balls (below one row), one row
    and one ball (whole rows) and two rows and one ball (a run of three rows
    crosses a chunk border)."""
    entries = B * (B - 1) // 2 * d
    return [optimize.PAIR_CHUNK, entries - 1, 2 * entries, (m + 1) * entries,
            (2 * m + 1) * entries]


class TakeSpy:
    """np.take with the size of every output, and the index arrays of
    those gathering from (a view of) F, in call order."""

    def __init__(self, F):
        self.F, self.sizes, self.from_F = F, [], []
        self.real = np.take

    def __call__(self, a, indices, *args, **kwargs):
        out = self.real(a, indices, *args, **kwargs)
        self.sizes.append(out.size)
        if np.shares_memory(a, self.F):
            self.from_F.append((np.asarray(indices).ravel(), out.size))
        return out


@settings(max_examples=150)
@given(st.integers(2, 8), st.integers(1, 8), st.sampled_from([2, 3]),
       st.sampled_from([1, 1.5, 2, 3]), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.booleans(), st.integers(0, 4))
def test_widest_pairs_matches_full_search(B, m, d, p, seed, mixed, overlap,
                                          chunk):
    """The search over each chunk's distinct pairs against the one over all
    B * B pairs of each ball, on balls of unequal sizes with pads, balls
    that share most of their pairs, and values with many ties, including
    rows where every pair is at 0; with one ball matrix for every row, one p
    or one p per row in runs, and PAIR_CHUNK as is or cut below one ball,
    below one row, or so that runs cross chunk borders. No gather holds more
    than PAIR_CHUNK entries unless one ball alone has more."""
    rng = np.random.default_rng(seed)
    R, n = int(rng.integers(1, 6)), B + 3
    F = rng.standard_normal((R, n, d))
    F = np.round(F) if rng.random() < 0.5 else F
    F[:, 0] = F[:, 1] = F[:, 2]  # some balls below are all one value
    balls = random_balls(rng, m, B, n, overlap)
    if not overlap:
        balls[0] = [0, 1, 2][:B] + [0] * max(0, B - 3)
    if mixed:  # runs of equal p, some of several rows
        p = np.repeat(rng.choice([1, 1.5, 2, 3], R), rng.integers(1, 4, R))[:R]
    limit = pair_chunk_limits(B, m, d)[chunk]
    spy = TakeSpy(F)
    with mock.patch.object(optimize, "PAIR_CHUNK", limit):
        tables = optimize._stack_index(balls, F.shape, p)[2]
    with mock.patch.object(optimize.np, "take", spy):
        top, i, j = optimize._widest_pairs(F, tables)
    assert max(spy.sizes) <= max(limit, B * (B - 1) // 2 * d)
    ps = [p] * R if np.ndim(p) == 0 else p.tolist()
    expected = [oracle_widest_pairs(F[r, balls], ps[r]) for r in range(R)]
    top_all, i_all, j_all = (np.concatenate(c) for c in zip(*expected))
    same_bits(top, top_all)
    same_bits(i, i_all.astype(np.intp))
    same_bits(j, j_all.astype(np.intp))


@pytest.mark.parametrize("own_balls", [False, True])
@pytest.mark.parametrize("chunk", range(5))
def test_widest_pairs_differences_each_distinct_pair_once(own_balls, chunk):
    """On grid balls of radius 2, where neighbouring balls share most of
    their pairs, the difference gathers of each chunk, a (lo, hi) couple in
    chunk order, hold that chunk's distinct unordered member pairs, pads'
    (y, y) included, each once, times d and the chunk's rows. A chunk holds
    whole rows, or balls of one row, of one exponent run, as many slots
    (ball, pair) as PAIR_CHUNK // d allows, or one ball; no gather holds
    more than PAIR_CHUNK entries unless one ball alone has more. One ball
    matrix per row has no pair tables at d > 1: it raises ValueError."""
    R, d = 4, 2
    n, balls = 20, METRICS["grid"].balls(2)
    m, B = balls.shape
    P = B * (B - 1) // 2
    rng = np.random.default_rng(chunk)
    F = rng.standard_normal((R, n, d))
    p = [1.5, 3.0, 3.0, 3.0]
    if own_balls:
        balls = np.array([balls[rng.permutation(m)] for _ in range(R)])
        with pytest.raises(ValueError, match="needs d = 1"):
            optimize._stack_index(balls, F.shape, p)
        return
    limit = pair_chunk_limits(B, m, d)[chunk]
    spy = TakeSpy(F)
    with mock.patch.object(optimize, "PAIR_CHUNK", limit):
        tables = optimize._stack_index(balls, F.shape, p)
        with mock.patch.object(optimize.np, "take", spy):
            optimize._widest_pairs(F, tables[2])
    per = max(1, limit // (P * d))
    rows, width = max(1, per // m), min(per, m)
    expected = []
    for first, stop in [(0, 1), (1, R)]:  # the runs of p
        for r in range(first, stop, rows):
            r1 = min(r + rows, stop)
            for x in range(0, m, width):
                pairs = {(min(y, z), max(y, z))
                         for ball in balls[x:x + width].tolist()
                         for k, y in enumerate(ball) for z in ball[k + 1:]}
                expected.append((pairs, (r1 - r) * d))
    assert len(spy.from_F) == 2 * len(expected)
    for (pairs, times), (lo, lo_size), (hi, hi_size) in zip(
            expected, spy.from_F[0::2], spy.from_F[1::2]):
        assert lo_size == hi_size == len(pairs) * times
        got = sorted(zip(np.minimum(lo, hi).tolist(),
                         np.maximum(lo, hi).tolist()))
        assert got == sorted(pairs)
    assert max(spy.sizes) <= max(limit, P * d)


@pytest.mark.parametrize("d", [1, 2])
def test_sup_gradient_objective_recomputes_for_other_arrays(d):
    Z = METRICS["irregular"]
    rng = np.random.default_rng(d)
    nu = rng.uniform(0.5, 2.0, 15)
    oracles = sup_oracles("irregular", nu, 1.5, 2)
    numer_pow, numer_subgrad = optimize.sup_gradient_objective(
        Z.balls(2), nu, 1.5)

    def check(F, values, subgrads):
        for r, f in enumerate(F):
            same_bits(float(values[r]), oracles[0](f))
            same_bits(subgrads[r], oracles[1](f))

    F = rng.standard_normal((2, 15, d))
    for G in [F.copy(), -F, F[::-1]] + [rng.standard_normal((2, 15, d))
                                        for _ in range(8)]:
        numer_pow(F)
        check(G, numer_pow(G), numer_subgrad(G))
        numer_pow(F)
        check(G, [oracles[0](g) for g in G], numer_subgrad(G))
        check(F, numer_pow(F), numer_subgrad(F))
    for _ in range(8):
        # Freed unless the memo holds it, and then G may get its id.
        temp = rng.standard_normal((2, 15, d))
        numer_pow(temp)
        del temp
        G = rng.standard_normal((2, 15, d))
        check(G, [oracles[0](g) for g in G], numer_subgrad(G))


@pytest.mark.parametrize("d", [1, 2])
def test_sup_gradient_objective_builds_tables_once_per_stack_height(d):
    """One objective on stacks of two heights, called in the optimizer's
    order (value, then subgradient) and out of it (a fresh array's
    subgradient first): every call gives the bits of a fresh objective and
    of the per-vertex loops. The objective builds one ``_stack_index`` per
    height, with pair tables only for d > 1; for d = 1 the subgradient
    reuses the widths of the ball pass."""
    Z = METRICS["grid"]
    rng = np.random.default_rng(d)
    nu = rng.uniform(0.5, 2.0, 20)
    balls = Z.balls(2)
    tall, short = (rng.standard_normal((R, 20, d)) for R in (4, 1))

    def alone(F):
        numer_pow, numer_subgrad = optimize.sup_gradient_objective(balls, nu,
                                                                   1.5)
        return numer_pow(F), numer_subgrad(F)

    stacks = [tall, short, tall, short]
    expected = [alone(F) for F in stacks]
    built, real = [], optimize._stack_index

    def stack_index(*args):
        built.append(real(*args))
        return built[-1]

    with mock.patch.object(optimize, "_stack_index", stack_index):
        numer_pow, numer_subgrad = optimize.sup_gradient_objective(balls, nu,
                                                                   1.5)
        for F, (values, subgrads) in zip(stacks, expected):
            same_bits(numer_pow(F), values)
            same_bits(numer_subgrad(F), subgrads)
            G = F.copy()
            same_bits(numer_subgrad(G), subgrads)
            same_bits(numer_pow(G), values)
        same_rows((numer_pow, numer_subgrad),
                  sup_oracles("grid", nu, 1.5, 2), tall)
    assert len(built) == 2
    assert all((pairs is None) == (d == 1) for _, _, pairs in built)


def test_minimize_quotient_keeps_iterates_and_call_order():
    """The memo contract: each subgradient is asked for at the stack the
    objective saw last, and no stack either callable saw changes later."""
    Z = METRICS["grid"]
    nu = np.random.default_rng(0).uniform(0.5, 2.0, 20)
    numer_pow, numer_subgrad = optimize.sup_gradient_objective(
        Z.balls(1), nu, 1.5)
    seen = []

    def objective(F):
        seen.append((F, F.tobytes()))
        return numer_pow(F)

    def subgradient(F):
        assert F is seen[-1][0]
        assert all(G.tobytes() == data for G, data in seen)
        return numer_subgrad(F)

    starts = list(np.random.default_rng(1).standard_normal((3, 20, 1)))
    optimize.minimize_quotient(objective, subgradient, nu, 1.5, starts,
                               iters=40)
    assert len(seen) == 41  # one objective call per step, for all 3 starts
    assert all(F.shape == (3, 20, 1) for F, _ in seen)
    assert all(G.tobytes() == data for G, data in seen)



def test_minimize_quotient_moves_starts_whose_squared_norm_overflows():
    """At p = 700 on grid 3x3 some of cheeger_lp's starts have a finite
    subgradient whose squared norm overflows; each start still takes its
    first step, a unit step, not a reprojection in place, with no numpy
    warning."""
    G = build_family("grid", 3, 3)
    nu, p = np.ones(9), 700.0
    numer_pow, numer_subgrad = optimize.sup_gradient_objective(
        WeightedMetricGraph(G).balls(1), nu, p)
    seen, overflowed = [], []

    def objective(F):
        seen.append(F)
        return numer_pow(F)

    def subgradient(F):
        G = numer_subgrad(F)
        flat = G.reshape(len(G), -1)
        with np.errstate(over="ignore"):
            overflowed.append(np.isinf(optimize.rowdot(flat, flat)))
        return G

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimize.minimize_quotient(objective, subgradient, nu, p,
                                   _starts(G, 1, 8, 0, nu), iters=1)
    assert overflowed[0].any() and len(seen) == 2
    assert seen[1].shape == seen[0].shape
    assert (np.abs(seen[1] - seen[0]).max(axis=(1, 2)) > 1e-3).all()

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
@given(st.integers(1, 6), st.sampled_from([None, 1, 2, 3]),
       st.integers(0, 12), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_scatter_rows_matches_scatter_pairs_per_row(n, d, m, R, seed):
    rng = np.random.default_rng(seed)
    plus, minus = rng.integers(0, n, (R, m)), rng.integers(0, n, (R, m))
    shape = (R, m) if d is None else (R, m, d)
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    out = optimize.scatter_rows(n, plus, minus, v)
    assert out.shape == (R, n) + shape[2:]
    for r in range(R):
        same_bits(out[r], optimize.scatter_pairs(n, plus[r], minus[r], v[r]))
    shared = optimize.scatter_rows(n, plus[0], minus[0], v)
    for r in range(R):
        same_bits(shared[r],
                  optimize.scatter_pairs(n, plus[0], minus[0], v[r]))


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
@given(stacked_cases())
def test_modified_gradient_objective_matches_loops(case):
    name, F, nu, p, _ = case
    objective = optimize.modified_gradient_objective(
        optimize.NeighborIndex(GRAPHS[name].neighbors), nu, p)
    same_rows(objective, modified_oracles(name, nu, p), F)
    # The subgradient alone, at a stack the objective has not seen.
    G = -F
    for r, g in enumerate(objective[1](G)):
        same_bits(g, modified_oracles(name, nu, p)[1](G[r]))


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


def batched_and_oracle(G, gradient, nu, p, radius, starts, iters):
    """(batched result, oracle result) of the optimizer on one input."""
    if gradient == "sup":
        loops = oracle_balls(WeightedMetricGraph(G), radius)
        new = optimize.sup_gradient_objective(
            WeightedMetricGraph(G).balls(radius), nu, p)
        old = (lambda f: float(nu @ (oracle_sup_rows(f, loops, p) ** p)),
               lambda f: oracle_sup_subgrad(f, loops, nu, p))
    else:
        new = optimize.modified_gradient_objective(
            optimize.NeighborIndex(G.neighbors), nu, p)
        old = (lambda f: oracle_modified_pow(f, G.neighbors, nu, p),
               lambda f: oracle_modified_subgrad(f, G.neighbors, nu, p))
    return (optimize.first_least(*optimize.minimize_quotient(
                *new, nu, p, starts, iters=iters)),
            oracle_minimize_quotient(*old, nu, p, starts, iters))


@pytest.mark.parametrize("name,gradient,d,p,radius", [
    ("grid", "sup", 1, 1, 1),
    ("grid", "sup", 2, 3, 2),
    ("grid", "sup", 3, 1.5, 6),
    ("path", "sup", 3, 2, 0),
    ("path", "sup", 1, 3, 4),
    ("cycle", "sup", 2, 1, 3),
    ("irregular", "sup", 1, 1.5, 2),
    ("irregular", "sup", 3, 1, 5),
    ("hypercube", "sup", 2, 2, 1),
    ("hypercube", "modified", 1, 1.5, 1),
    ("irregular", "modified", 3, 3, 1),
    ("grid", "modified", 2, 1, 1),
])
def test_minimize_quotient_same_witness(name, gradient, d, p, radius):
    n = GRAPHS[name].vertex_count
    nu = np.random.default_rng(0).uniform(0.5, 2.0, n)
    starts = list(np.random.default_rng(1).standard_normal((3, n, d)))
    (val, f), (val_old, f_old, _) = batched_and_oracle(
        GRAPHS[name], gradient, nu, p, radius, starts, 60)
    same_bits(val, float(val_old))
    same_bits(f, f_old)


TWO_EDGES = Graph(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("G,gradient,p,seed", [
    (build_family("path", 3), "sup", 2, 4),
    (build_family("path", 3), "modified", 2, 5),
    (build_family("cycle", 4), "sup", 1, 4),
    (build_family("cycle", 4), "modified", 2, 5),
    (TWO_EDGES, "modified", 2, 4),
    (TWO_EDGES, "sup", 2, 4),
])
def test_minimize_quotient_same_witness_when_starts_stop(G, gradient, p, seed):
    """On small hosts some steps land on a constant: such a start stops at
    its best iterate while the others go on, and a constant start is
    skipped. On the two disjoint edges a start constant on each edge has a
    zero subgradient and stays in place while the others step."""
    n = G.vertex_count
    rng = np.random.default_rng(seed)
    starts = [np.ones((n, 1))]
    if G is TWO_EDGES:
        starts.append(np.array([[1.0], [1.0], [-1.0], [-1.0]]))
    starts += [np.round(rng.standard_normal((n, 1))) for _ in range(4)]
    starts += [rng.standard_normal((n, 1)) for _ in range(4)]
    (val, f), (val_old, f_old, collapsed) = batched_and_oracle(
        G, gradient, np.ones(n), p, 1, starts, 60)
    assert 0 < collapsed < len(starts) - 1
    same_bits(val, float(val_old))
    same_bits(f, f_old)


def test_minimize_quotient_raises_when_no_start_survives():
    nu = np.ones(4)
    numer_pow, numer_subgrad = optimize.sup_gradient_objective(
        METRICS["path"].balls(1)[:4, :2] % 4, nu, 2)
    with pytest.raises(ValueError, match="no start survived projection"):
        optimize.minimize_quotient(numer_pow, numer_subgrad, nu, 2,
                                   [np.ones((4, 1)), np.zeros((4, 1))])
    with pytest.raises(ValueError, match="no start survived projection"):
        # Every norm underflows to 0 or overflows to inf.
        optimize.minimize_quotient(
            numer_pow, numer_subgrad, nu, 1e308,
            [np.array([[0.0], [0.0], [0.5], [-0.5]]),
             np.array([[0.0], [0.0], [3.0], [-3.0]])])


@pytest.mark.parametrize("name", ["grid", "irregular"])
def test_lambda_infinity_upper_same_witness(name):
    G = GRAPHS[name]
    value, witness = spectral.lambda_infinity_upper(G, restarts=3, seed=5)
    value_old, witness_old = oracle_lambda_infinity_upper(G, 3, 5)
    same_bits(value, value_old)
    same_bits(witness, witness_old)


def test_lambda_infinity_loop_same_witness_when_a_start_collapses():
    """On the 4-cycle, +-1/2 on two opposite edges is its own normalized
    subgradient, so the first step lands on 0 and that start stops."""
    G = build_family("cycle", 4)
    rng = np.random.default_rng(3)
    starts = [rng.standard_normal(4), np.array([0.5, 0.5, -0.5, -0.5]),
              np.ones(4), rng.standard_normal(4)]
    val_old, f_old, collapsed = oracle_lambda_infinity_loop(G, starts)
    assert collapsed == 1
    val, f = optimize.first_least(*optimize.minimize_quotient(
        *spectral.lambda_infinity_objective(optimize.NeighborIndex(
            G.neighbors)), None, 2, starts, project=spectral.unit_sphere,
        min_grad=0.0))
    same_bits(val, val_old)
    same_bits(f, f_old)


@settings(max_examples=100)
@given(cases())
def test_lambda_infinity_objective_matches_loops(case):
    name, f, _, _, _ = case
    G = GRAPHS[name]
    F = np.ascontiguousarray(f.T)  # d functions of n vertices
    objective, subgradient = spectral.lambda_infinity_objective(
        optimize.NeighborIndex(G.neighbors))
    values, subgrads = objective(F), subgradient(F)
    for r, g in enumerate(F):
        total, expected = 0.0, np.zeros(len(g))
        for i, nbrs in enumerate(G.neighbors):
            if nbrs:
                d = g[i] - g[list(nbrs)]
                total += float(np.max(d * d))
                j = nbrs[int(np.argmax(d * d))]
                expected[i] += 2.0 * (g[i] - g[j])
                expected[j] -= 2.0 * (g[i] - g[j])
        same_bits(float(values[r]), total)
        same_bits(subgrads[r], expected)


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
    F = rng.standard_normal((3, 20, 2))
    same_rows(optimize.sup_gradient_objective(balls, nu, 1.5),
              sup_oracles("grid", nu, 1.5, radius), F)


@st.composite
def scale_batches(draw):
    """A host, a measure, p and 1 to 5 scales, with repeats, scales below 1
    (every ball a singleton) and scales at or above the diameter (every ball
    a component)."""
    name = draw(st.sampled_from(sorted(GRAPHS)))
    n = GRAPHS[name].vertex_count
    diameter = max(x for row in METRICS[name].dist for x in row
                   if x < math.inf)
    pool = [0.25, 0.5, 1, 1.5, 2, 3, diameter, diameter + 0.5, 100]
    scales = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nu = rng.uniform(0.5, 2.0, n) if draw(st.booleans()) else None
    p = draw(st.sampled_from([1, 1.5, 2, 3]))
    return (WeightedMetricGraph(GRAPHS[name], nu), scales, p,
            draw(st.integers(0, 3)))


def same_witness(w, alone):
    same_bits(w.value, alone.value)
    same_bits(w.function_witness, alone.function_witness)


@settings(max_examples=20, deadline=None)
@given(scale_batches())
def test_scale_batch_gives_each_scale_its_bits_alone(case):
    Z, scales, p, seed = case
    batched = cheeger.scale_poincare_constants(Z, scales, p, restarts=2,
                                               seed=seed)
    alone = [cheeger.scale_poincare_constant(Z, a, p, restarts=2, seed=seed)
             for a in scales]
    assert len(batched) == len(scales)
    for w, w_alone in zip(batched, alone):
        same_witness(w, w_alone)


def test_scale_batch_keeps_bits_when_starts_stop(monkeypatch):
    """On the 4-cycle at p = 1 some starts of the scale-1 block stop on a
    constant mid-run, and one start is constant from the beginning; every
    scale of the batch still gets the bits it gets alone."""
    G = build_family("cycle", 4)
    Z, nu = WeightedMetricGraph(G), np.ones(4)
    rng = np.random.default_rng(4)
    starts = [np.ones((4, 1))]
    starts += [np.round(rng.standard_normal((4, 1))) for _ in range(4)]
    starts += [rng.standard_normal((4, 1)) for _ in range(4)]
    collapsed = oracle_minimize_quotient(
        *sup_oracles_for(Z, nu, 1, 1), nu, 1, starts, 200)[2]
    assert collapsed > 0
    monkeypatch.setattr(cheeger, "_starts", lambda *args: starts)
    scales = [2, 1, 0.5, 1]
    for w, a in zip(cheeger.scale_poincare_constants(Z, scales, 1), scales):
        same_witness(w, cheeger.scale_poincare_constant(Z, a, 1))


def test_one_ball_matrix_per_row_needs_d_1():
    """A stack of one ball matrix per row has widths for d = 1 only: at
    d > 1 the objective, and a batch of scales with unequal balls, raise
    ValueError. The same matrices at d = 1, and a batch that shares one
    matrix at d > 1, give each row or problem its bits alone."""
    Z = METRICS["grid"]
    rng = np.random.default_rng(5)
    nu = rng.uniform(0.5, 2.0, 20)
    balls = optimize.index_matrix([row for a in (1, 2) for row in Z.balls(a)])
    balls = np.repeat(balls.reshape(2, 20, -1), 2, axis=0)
    numer_pow, numer_subgrad = optimize.sup_gradient_objective(balls, nu, 1.5)
    for numer in numer_pow, numer_subgrad:
        with pytest.raises(ValueError, match="needs d = 1"):
            numer(rng.standard_normal((4, 20, 2)))
    F = rng.standard_normal((4, 20, 1))
    values, subgrads = numer_pow(F), numer_subgrad(F)
    for r, a in enumerate([1, 1, 2, 2]):
        oracles = sup_oracles("grid", nu, 1.5, a)
        same_bits(float(values[r]), oracles[0](F[r]))
        same_bits(subgrads[r], oracles[1](F[r]))

    def estimates(problems, d):
        return cheeger._lp_estimates(Z.graph, problems, "sup_scale", d, 2, 0,
                                     Z)

    with pytest.raises(ValueError, match="needs d = 1"):
        estimates([(1, 1.5), (2, 1.5)], 2)
    for problems, d in ([(1, 1.5), (2, 1.5)], 1), ([(2, 1.5), (2, 3)], 2):
        for w, problem in zip(estimates(problems, d), problems):
            same_witness(w, estimates([problem], d)[0])


# ---------------------------------------------------------------------------
# Stacks that mix exponents

# p - 1 is 2 at p = 3 and 0.5 at p = 1.5, where ``x ** scalar`` takes
# numpy's square and square-root fast paths; 1.5 comes back in a later run.
MIXED_PS = [1, 1.5, 2, 2.5, 3, 1.5]


def exponent_objective(gradient, nu, p, radius):
    if gradient == "sup":
        return optimize.sup_gradient_objective(METRICS["grid"].balls(radius),
                                               nu, p)
    return optimize.modified_gradient_objective(
        optimize.NeighborIndex(GRAPHS["grid"].neighbors), nu, p)


@pytest.mark.parametrize("gradient,radius", [("sup", 1), ("sup", 3),
                                             ("modified", 1)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_mixed_exponent_stack_gives_each_row_its_bits(gradient, radius, d):
    """The objective, subgradient and projection of a stack with one p per
    row, in runs of equal p, give each row the bits of a stack of that row
    alone with its scalar p."""
    rng = np.random.default_rng(d)
    nu = rng.uniform(0.5, 2.0, 20)
    ps = np.repeat(np.array(MIXED_PS, dtype=float), 2)
    F = (rng.standard_normal((len(ps), 20, d))
         * 10.0 ** rng.integers(-3, 4, (len(ps), 1, 1)))
    mixed = exponent_objective(gradient, nu, ps, radius)
    values, subgrads = mixed[0](F), mixed[1](F)
    projected, ok = optimize.sphere_projection(nu, ps)(F)
    for r, p in enumerate(ps.tolist()):
        alone = exponent_objective(gradient, nu, p, radius)
        row = F[r:r + 1]
        same_bits(float(values[r]), float(alone[0](row)[0]))
        same_bits(subgrads[r], alone[1](row)[0])
        projected_alone, ok_alone = optimize.sphere_projection(nu, p)(row)
        same_bits(projected[r], projected_alone[0])
        assert ok[r] == ok_alone[0]


@pytest.mark.parametrize("gradient,radius", [("sup", 1), ("sup", 3),
                                             ("modified", 1)])
@pytest.mark.parametrize("d", [1, 2])
def test_list_exponents_give_the_bits_of_an_array(gradient, radius, d):
    """p as a list of one exponent per row, ints among them, gives the
    objective, subgradient and projection the bits of the same p as a
    float array."""
    rng = np.random.default_rng(d)
    nu = rng.uniform(0.5, 2.0, 20)
    listed = [1, 1, 2, 2, 1.5, 3, 3]
    array = np.array(listed, dtype=float)
    F = rng.standard_normal((len(listed), 20, d))
    for from_list, from_array in zip(
            exponent_objective(gradient, nu, listed, radius),
            exponent_objective(gradient, nu, array, radius)):
        same_bits(from_list(F), from_array(F))
    for from_list, from_array in zip(optimize.sphere_projection(nu, listed)(F),
                                     optimize.sphere_projection(nu, array)(F)):
        same_bits(from_list, from_array)


def test_a_list_exponent_is_read_as_floats():
    """A list != list comparison gives one bool, so a list p once made a
    single run and took the first exponent for every row."""
    assert optimize.exponent_runs([1.0, 1.0, 2.0, 2.0], 4) == [(0, 2, 1.0),
                                                              (2, 4, 2.0)]
    expected = np.repeat([3.0, 9.0], 6).reshape(4, 3)
    X = np.full((4, 3), 3.0)
    same_bits(optimize._run_power(X, optimize.exponent_runs([1, 1, 2, 2],
                                                            len(X))),
              expected)


@pytest.mark.parametrize("gradient,scale", [("sup_scale", 1),
                                            ("sup_scale", 2),
                                            ("modified", 1)])
@pytest.mark.parametrize("d", [1, 3])
def test_cheeger_lps_equal_cheeger_lp(gradient, scale, d):
    G = GRAPHS["irregular"]
    together = cheeger.cheeger_lps(G, MIXED_PS, gradient, scale, d,
                                   restarts=2, seed=3)
    assert len(together) == len(MIXED_PS)
    for p, w in zip(MIXED_PS, together):
        alone = cheeger.cheeger_lp(G, p, gradient, scale, d, restarts=2,
                                   seed=3)
        same_witness(w, alone)
        assert (w.exact, w.certified_lower) == (alone.exact,
                                                alone.certified_lower)


@st.composite
def mixed_scale_batches(draw):
    """``scale_batches`` with one p per scale: the (scale, p) problems share
    balls across exponents and exponents across balls."""
    Z, scales, _, seed = draw(scale_batches())
    ps = draw(st.lists(st.sampled_from([1, 1.5, 2, 2.5, 3]),
                       min_size=len(scales), max_size=len(scales)))
    return Z, scales, ps, seed


@settings(max_examples=20, deadline=None)
@given(mixed_scale_batches())
def test_mixed_exponent_scale_batch_gives_each_problem_its_bits_alone(case):
    Z, scales, ps, seed = case
    batched = cheeger.scale_poincare_constants(Z, scales, ps, restarts=2,
                                               seed=seed)
    alone = [cheeger.scale_poincare_constant(Z, a, p, restarts=2, seed=seed)
             for a, p in zip(scales, ps)]
    assert len(batched) == len(scales)
    for w, w_alone in zip(batched, alone):
        same_witness(w, w_alone)


def test_scale_poincare_constants_takes_one_exponent_per_scale():
    Z = METRICS["path"]
    with pytest.raises(ValueError, match="one per scale"):
        cheeger.scale_poincare_constants(Z, [1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="p must be"):
        cheeger.scale_poincare_constants(Z, [1, 2], [1, 0.5])


def test_mixed_exponent_blocks_keep_their_bits_when_starts_stop(monkeypatch):
    """The 4-cycle starts of ``test_scale_batch_keeps_bits_when_starts_stop``
    in a stack of four exponents: the constant start fails projection in
    every block and stays frozen, some others stop mid-run, and each block
    still gets the bits it gets alone."""
    G = build_family("cycle", 4)
    Z = WeightedMetricGraph(G)
    rng = np.random.default_rng(4)
    starts = [np.ones((4, 1))]
    starts += [np.round(rng.standard_normal((4, 1))) for _ in range(4)]
    starts += [rng.standard_normal((4, 1)) for _ in range(4)]
    monkeypatch.setattr(cheeger, "_starts", lambda *args: starts)
    scales, ps = [2, 1, 0.5, 1, 1], [1, 1, 3, 1.5, 2.5]
    for w, a, p in zip(cheeger.scale_poincare_constants(Z, scales, ps),
                       scales, ps):
        same_witness(w, cheeger.scale_poincare_constant(Z, a, p))


def test_mixed_exponent_blocks_keep_their_bits_when_norms_overflow():
    """At p = 700 on grid 3x3 the subgradients of cheeger_lp's starts have
    squared norms that overflow, and are rescaled; the p = 2 block of the
    same stack, and each p = 700 block, keep the bits they get alone."""
    G = build_family("grid", 3, 3)
    Z, nu = WeightedMetricGraph(G), np.ones(9)
    starts = np.array(_starts(G, 1, 8, 0, nu))
    with np.errstate(over="ignore", invalid="ignore"):
        projected, _ = optimize.sphere_projection(nu, 700.0)(starts)
        flat = optimize.sup_gradient_objective(Z.balls(1), nu, 700.0)[1](
            projected).reshape(len(starts), -1)
        assert np.isinf(optimize.rowdot(flat, flat)).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scales, ps = [1, 1, 2], [2, 700, 700]
        for w, a, p in zip(cheeger.scale_poincare_constants(Z, scales, ps),
                           scales, ps):
            same_witness(w, cheeger.scale_poincare_constant(Z, a, p))


def test_batched_blocks_keep_their_bits_when_a_start_collapses():
    """The 4-cycle starts of the collapse test above, as the middle block
    of one stack: the start that lands on 0 at its first step freezes, the
    constant start has best value +inf, and each block gets the bits it
    gets alone."""
    G = build_family("cycle", 4)
    rng = np.random.default_rng(3)
    collapsing = [rng.standard_normal(4), np.array([0.5, 0.5, -0.5, -0.5]),
                  np.ones(4), rng.standard_normal(4)]
    other = [rng.standard_normal(4) for _ in range(3)]

    seen = []

    def run(starts):
        objective, subgradient = spectral.lambda_infinity_objective(
            optimize.NeighborIndex(G.neighbors))

        def recorded(F):
            seen.append(F)
            return objective(F)

        return optimize.minimize_quotient(
            recorded, subgradient, None, 2, starts,
            project=spectral.unit_sphere, min_grad=0.0)

    best_val, best_F = run(other + collapsing + other)
    assert best_val.shape == (10,) and best_F.shape == (10, 4)
    # Frozen rows stop moving: the collapsed start at its last iterate, the
    # constant one at 0.
    assert all((F[4] == seen[1][4]).all() and not F[5].any() for F in seen)
    for block, rows in ((other, slice(0, 3)), (collapsing, slice(3, 7)),
                        (other, slice(7, 10))):
        alone_val, alone_F = run(block)
        same_bits(best_val[rows], alone_val)
        same_bits(best_F[rows], alone_F)
    assert best_val[5] == np.inf
    val_old, f_old, collapsed = oracle_lambda_infinity_loop(G, collapsing)
    assert collapsed == 1
    val, f = optimize.first_least(best_val[3:7], best_F[3:7])
    same_bits(val, val_old)
    same_bits(f, f_old)


def test_first_least_takes_the_first_least_finite_value():
    F = np.arange(5.0)[:, None, None]
    val, f = optimize.first_least(np.array([np.inf, 2.0, np.nan, 1.0, 1.0]),
                                  F)
    same_bits(val, 1.0)
    assert f.tobytes() == F[3].tobytes()
    with pytest.raises(ValueError, match="no start reached a finite"):
        optimize.first_least(np.array([np.inf, np.nan]), F[:2])
