import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepprof import cheeger
from sepprof.cheeger import (WeightedMetricGraph, _FlipBoundary,
                             boundary_count, cheeger_combinatorial,
                             cheeger_lp, characteristic_witness,
                             lp_cheeger_ratio, p_variance,
                             scale_poincare_constant, set_ratio)
from sepprof.errors import ExactSearchInfeasible
from sepprof.graphs import Graph, build_family, cartesian_power
from sepprof.spectral import fiedler_vector, lambda2


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 10))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1]),
        max_size=2 * n))
    return Graph(n, edges)


def test_combinatorial_examples():
    assert cheeger_combinatorial(build_family("complete", 2)).value_exact == 1
    c8 = build_family("cycle", 8)
    assert cheeger_combinatorial(c8, "plain").value_exact == Fraction(1, 2)
    assert cheeger_combinatorial(c8, "majored").value_exact == 1
    assert cheeger_combinatorial(c8, "edge").value_exact == Fraction(1, 2)


def test_witness_reproduces_value():
    for mode in ("plain", "majored", "edge"):
        w = cheeger_combinatorial(build_family("grid", 3, 4), mode)
        assert set_ratio(build_family("grid", 3, 4), w.set_witness, mode) \
            == w.value_exact


def test_tiny_graph_convention():
    w = cheeger_combinatorial(Graph(1, []))
    assert w.value == 0 and w.set_witness == frozenset()


@given(graphs())
def test_majored_sandwich(G):
    h = cheeger_combinatorial(G).value_exact
    maj = cheeger_combinatorial(G, "majored").value_exact
    D = G.max_degree()
    assert h <= maj <= (D + 1) * h


def test_oversize_requires_flag():
    big = cartesian_power(build_family("cycle", 4), 3)
    with pytest.raises(ExactSearchInfeasible, match="infeasible"):
        cheeger_combinatorial(big)
    w = cheeger_combinatorial(big, allow_heuristic=True, seed=3)
    assert not w.exact
    # annealed value is a true set ratio and sits above the certified bound
    assert set_ratio(big, w.set_witness, "plain") == w.value_exact
    lam = lambda2(big).lambda2
    assert w.value >= lam / (2 * big.max_degree()) - 1e-9


def test_heuristic_deterministic():
    big = cartesian_power(build_family("cycle", 4), 3)
    a = cheeger_combinatorial(big, allow_heuristic=True, seed=5)
    b = cheeger_combinatorial(big, allow_heuristic=True, seed=5)
    assert a.value_exact == b.value_exact and a.set_witness == b.set_witness


def test_modified_p2_matches_gap():
    for g in (build_family("cycle", 4), build_family("cycle", 8),
              build_family("grid", 3, 4), build_family("complete", 5)):
        w = cheeger_lp(g, 2, gradient="modified")
        assert w.exact
        assert w.value == pytest.approx(
            math.sqrt(2 * lambda2(g).lambda2), abs=1e-6)
    assert cheeger_lp(build_family("cycle", 4), 2,
                      gradient="modified").value == pytest.approx(2.0)


def test_lp_witness_reproducibility_and_lower():
    g = build_family("grid", 3, 4)
    for p, grad in ((1, "sup_scale"), (2, "sup_scale"), (1.5, "modified")):
        w = cheeger_lp(g, p, gradient=grad, seed=4)
        recomputed = lp_cheeger_ratio(g, w.function_witness, p, grad)
        assert recomputed == pytest.approx(w.value, abs=1e-12)
        assert w.certified_lower is not None
        assert w.certified_lower <= w.value + 1e-12


def test_one_majored_search_per_cheeger_lps_call(monkeypatch):
    """The certified lower ends of every exponent of one ``cheeger_lps``
    call come from one majored search, with the bits of one call per
    exponent; the exact (modified, p = 2) value needs no search."""
    g = build_family("grid", 3, 4)
    ps = [1, 1.5, 2, 3]
    alone = {grad: [cheeger_lp(g, p, gradient=grad, restarts=2)
                    for p in ps] for grad in ("sup_scale", "modified")}
    searches = []

    def counted(G, mode="plain", *args, **kwargs):
        searches.append(mode)
        return cheeger_combinatorial(G, mode, *args, **kwargs)

    monkeypatch.setattr(cheeger, "cheeger_combinatorial", counted)
    for grad, expected in alone.items():
        together = cheeger.cheeger_lps(g, ps, gradient=grad, restarts=2)
        for w, w_alone in zip(together, expected):
            assert w.certified_lower == w_alone.certified_lower
            assert w.value == w_alone.value
    assert searches == ["majored", "majored"]
    cheeger_lp(g, 2, gradient="modified")
    assert len(searches) == 2


def test_lp_chain_inequality():
    # certified_lower(h_p)^p <= 2^p * (upper estimate of h_1)
    g = build_family("cycle", 8)
    h1 = cheeger_lp(g, 1, seed=2)
    for p in (1.5, 2.0, 3.0):
        hp = cheeger_lp(g, p, seed=2)
        assert hp.certified_lower ** p <= 2 ** p * h1.value + 1e-12


def test_vector_valued_not_below_scalar_lower():
    g = build_family("cycle", 6)
    scalar = cheeger_lp(g, 2, gradient="modified")
    vec = cheeger_lp(g, 2, gradient="modified", target_dim=3, seed=1)
    assert vec.value >= scalar.certified_lower - 1e-9
    assert vec.value == pytest.approx(scalar.value, rel=0.05)


def test_modified_vs_sup_sandwich_estimates():
    g = build_family("cycle", 8)
    D = g.max_degree()
    for p in (1.5, 2.0):
        sup = cheeger_lp(g, p, seed=6)
        mod = cheeger_lp(g, p, gradient="modified", seed=6)
        assert D ** (-1 / p) * mod.value <= sup.value * 1.05
        assert sup.value <= 2 ** ((p - 1) / p) * mod.value * 1.05


def test_p_variance():
    assert p_variance(np.zeros(5), 2) == 0.0
    assert p_variance(np.array([0.0, 2.0]), 1) == pytest.approx(1.0)
    # brute formula on a random function
    rng = np.random.default_rng(0)
    f = rng.standard_normal(6)
    p = 2.5
    brute = (sum(abs(a - b) ** p for a in f for b in f) / 36) ** (1 / p)
    assert p_variance(f, p) == pytest.approx(brute)


@given(st.integers(0, 10))
def test_p_variance_sandwich(seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(8)
    for p in (1.0, 2.0, 3.0):
        var = p_variance(f, p)
        dev = float(np.sum(np.abs(f - f.mean()) ** p)) ** (1 / p)
        assert 8 ** (-1 / p) * dev <= var + 1e-12
        assert var <= 2 * 8 ** (-1 / p) * dev + 1e-12


def test_scale_one_counting_matches_cheeger_lp():
    g = build_family("path", 7)
    a = scale_poincare_constant(WeightedMetricGraph(g), 1, 2, restarts=4, seed=8)
    b = cheeger_lp(g, 2, gradient="sup_scale", scale_a=1, restarts=4, seed=8)
    assert a.value == b.value
    assert a.function_witness.tobytes() == b.function_witness.tobytes()


def test_linear_upper_bound_six():
    for g in (build_family("path", 13), build_family("cycle", 8),
              build_family("grid", 3, 4)):
        Z = WeightedMetricGraph(g)
        for a in (1, 2, 4):
            for p in (1.0, 2.0):
                w = scale_poincare_constant(Z, a, p, restarts=3, seed=0)
                assert w.value <= 6.0 + 1e-9


def _pinned_scale_digest():
    """SHA-256 of the value and witness bits of scale_poincare_constant on
    P13, C8 and grid 3x4, with uniform and non-uniform measures, and of the
    two-dimensional sup-scale estimate of cheeger_lp on the same hosts."""
    digest = hashlib.sha256()

    def add(w):
        digest.update(repr(w.value).encode())
        digest.update(w.function_witness.tobytes())

    for G in (build_family("path", 13), build_family("cycle", 8),
              build_family("grid", 3, 4)):
        n = G.vertex_count
        for nu in (None, 1.0 + (np.arange(n) % 3) / 2.0):
            Z = WeightedMetricGraph(G, nu)
            for p in (1, 2, 3):
                for a in (0.5, 1, 1.5, 3):
                    add(scale_poincare_constant(Z, a, p, restarts=3, seed=1))
        for p in (1, 2, 3):
            for a in (0.5, 1, 1.5, 3):
                add(cheeger_lp(G, p, scale_a=a, target_dim=2, restarts=3,
                               seed=1))
    return digest.hexdigest()


# Taken while every scale was estimated by a call of its own.
PINNED_SCALE_SHA256 = \
    "877b71ef483301ebf3015f898844987e829f5dc64cc0d183f8cf8314b513aba6"


def test_pinned_scale_digest():
    assert _pinned_scale_digest() == PINNED_SCALE_SHA256


def _pinned_wide_ball_digest():
    """SHA-256 of the value and witness bits of the vector-valued sup-scale
    estimates of grid 6x6, whose balls at a = 2 share most of their pairs."""
    digest = hashlib.sha256()
    G = build_family("grid", 6, 6)
    for seed in (3, 11):
        for a in (1, 2):
            for d in (2, 3):
                for w in cheeger.cheeger_lps(G, (1, 1.5, 2, 3), scale_a=a,
                                             target_dim=d, restarts=4,
                                             seed=seed):
                    digest.update(repr(w.value).encode())
                    digest.update(w.function_witness.tobytes())
    return digest.hexdigest()


# Taken while every ball width summed each (ball, pair) slot's difference.
PINNED_WIDE_BALL_SHA256 = \
    "926c1c6563a7a1049d3bf354a07eb2c3b5dbf4cd688fb1be21901bc34d086698"


def test_pinned_wide_ball_digest():
    assert _pinned_wide_ball_digest() == PINNED_WIDE_BALL_SHA256


@pytest.mark.parametrize("a", [0, -1, math.inf, math.nan])
def test_scale_must_be_finite_and_positive(a):
    g = build_family("path", 4)
    Z = WeightedMetricGraph(g)
    f = np.array([1.0, 0.0, 0.0, -1.0])
    calls = [lambda: cheeger_lp(g, 2, scale_a=a),
             lambda: cheeger_lp(Graph(1, []), 2, scale_a=a),
             lambda: cheeger_lp(g, 2, gradient="modified", scale_a=a),
             lambda: scale_poincare_constant(Z, a, 2),
             lambda: cheeger.scale_poincare_constants(Z, [1, a], 2),
             lambda: cheeger.scale_ratio(Z, f, 2, a),
             lambda: lp_cheeger_ratio(g, f, 2, "sup_scale", a)]
    for call in calls:
        with pytest.raises(ValueError, match="scale must be a finite number"):
            call()


def test_scale_poincare_constants_edge_lists():
    Z = WeightedMetricGraph(build_family("path", 4))
    assert cheeger.scale_poincare_constants(Z, [], 2) == []
    one = WeightedMetricGraph(Graph(1, []))
    assert [w.value for w in cheeger.scale_poincare_constants(
        one, [1, 2], 2)] == [0.0, 0.0]
    # Scales of one block still get witnesses of their own.
    w1, w15 = cheeger.scale_poincare_constants(Z, [1, 1.5], 2, restarts=2)
    assert w1.function_witness.tobytes() == w15.function_witness.tobytes()
    assert not np.shares_memory(w1.function_witness, w15.function_witness)


def test_characteristic_witness_balanced():
    nu = np.ones(9)
    f = characteristic_witness(nu)
    assert nu @ f >= 3 and nu @ f <= 6
    lopsided = np.array([10.0, 0.1, 0.1])
    assert characteristic_witness(lopsided) is None


def test_scale_monotone_on_witness():
    Z = WeightedMetricGraph(build_family("path", 13))
    w = scale_poincare_constant(Z, 1, 1, restarts=3, seed=0)
    vals = [lp_cheeger_ratio(Z.graph, w.function_witness, 1, "sup_scale", a,
                             nu=Z.nu) for a in (1, 2, 3)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_weighted_metric_graph_validation():
    g = build_family("path", 3)
    with pytest.raises(ValueError):
        WeightedMetricGraph(g, nu=[1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        WeightedMetricGraph(g, nu=[1.0, 1.0])
    with pytest.raises(ValueError):
        WeightedMetricGraph(g, dist=[[0, 1], [1, 0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -3.0, 0.0])
def test_weighted_metric_graph_rejects_non_finite_or_non_positive_nu(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        WeightedMetricGraph(build_family("path", 5), nu=[1, bad, 1, 1, 1])


def test_custom_metric_is_honored():
    from sepprof.cheeger import scale_ratio

    # two points at distance 5: at scale 4 the gradient vanishes everywhere
    g = Graph(2, [(0, 1)])
    far = WeightedMetricGraph(g, dist=[[0, 5], [5, 0]])
    w = scale_poincare_constant(far, 4, 1, restarts=2, seed=0)
    assert w.value == 0.0
    near = WeightedMetricGraph(g)
    assert scale_poincare_constant(near, 4, 1, restarts=2, seed=0).value > 0
    f = np.array([1.0, -1.0])
    assert scale_ratio(far, f, 1, 5) > 0
    assert scale_ratio(far, f, 1, 4) == 0.0


def oracle_anneal(G, mode, restarts, seed):
    """The annealer recounting the boundary at every step, with the draw
    protocol of ``cheeger._anneal``: per restart, one block of 3000 vertex
    picks, then one of 3000 acceptance uniforms."""
    n = G.vertex_count
    rng = np.random.default_rng(seed)
    order = list(np.argsort(fiedler_vector(G)))
    best = None
    prefix_mask = 0
    for i in range(n // 2):
        prefix_mask |= 1 << int(order[i])
        num = boundary_count(G, prefix_mask, mode)
        if best is None or num * best[1] < best[0] * (i + 1):
            best = (num, i + 1, prefix_mask)
    for _ in range(restarts):
        mask, size = best[2], best[1]
        cur = boundary_count(G, mask, mode)
        picks = rng.integers(n, size=3000)
        draws = rng.random(3000)
        temp = 1.0
        for step in range(3000):
            temp *= 0.998
            v = int(picks[step])
            bit = 1 << v
            if mask & bit:
                if size == 1:
                    continue
                new_mask, new_size = mask ^ bit, size - 1
            else:
                if 2 * (size + 1) > n:
                    continue
                new_mask, new_size = mask | bit, size + 1
            new_num = boundary_count(G, new_mask, mode)
            delta = new_num / new_size - cur / size
            if delta <= 0 or draws[step] < math.exp(-delta / max(temp, 1e-9)):
                mask, size, cur = new_mask, new_size, new_num
                if cur * best[1] < best[0] * size:
                    best = (cur, size, mask)
    return best


@pytest.mark.parametrize("mode", ["plain", "majored", "edge"])
@pytest.mark.parametrize("seed", range(4))
def test_flip_boundary_matches_boundary_count(mode, seed):
    rng = np.random.default_rng(seed)
    n = 12
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < 0.3
    # Sparse enough to leave some vertices isolated.
    G = Graph(n, [e for e, k in zip(pairs, keep) if k])
    mask = int(rng.integers(0, 1 << n))
    state = _FlipBoundary(G, mode, mask)
    for _ in range(300):
        v = int(rng.integers(n))
        count = state.flipped_count(v)
        assert count == boundary_count(G, state.mask ^ (1 << v), mode)
        if rng.random() < 0.7:
            state.flip(v, count)
            assert state.count == boundary_count(G, state.mask, mode)
            assert state.inside == [(m & state.mask).bit_count()
                                    for m in G.neighbor_masks]


@pytest.mark.parametrize("mode", ["plain", "majored", "edge"])
def test_anneal_matches_recounting_annealer(mode):
    for G in (build_family("grid", 4, 5), cartesian_power(
            build_family("cycle", 4), 2)):
        assert cheeger._anneal(G, mode, 2, 7) == oracle_anneal(G, mode, 2, 7)


def _pinned_anneal_digest():
    """SHA-256 of the (count, size, mask) results of the annealer on C4^3
    and K3^3, two restarts, in each mode at seeds 0..39."""
    digest = hashlib.sha256()
    for G in (cartesian_power(build_family("cycle", 4), 3),
              cartesian_power(build_family("complete", 3), 3)):
        for mode in ("plain", "majored", "edge"):
            for seed in range(40):
                digest.update(repr(cheeger._anneal(G, mode, 2, seed)).encode())
    return digest.hexdigest()


# Taken while the temperatures were one np.cumprod list built per call.
PINNED_ANNEAL_SHA256 = \
    "7f67504b2078fb5efef8c754b1c5304c75136b603b7e853f767c6e00aabc5b11"


def test_pinned_anneal_digest():
    assert _pinned_anneal_digest() == PINNED_ANNEAL_SHA256


def random_regular(n, degree, seed):
    """A simple degree-regular graph on n vertices by the pairing model,
    redrawn until no loop or double edge appears."""
    rng = np.random.default_rng(seed)
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), degree)).reshape(-1, 2)
        edges = {(int(min(a, b)), int(max(a, b))) for a, b in stubs}
        if all(a != b for a, b in stubs) and len(edges) == len(stubs):
            return Graph(n, sorted(edges))


ANNEAL_GRAPHS = {
    "C4^3": cartesian_power(build_family("cycle", 4), 3),
    "K3^3": cartesian_power(build_family("complete", 3), 3),
    "4-regular-30": random_regular(30, 4, 3),
}


@pytest.mark.parametrize("mode", ["plain", "majored", "edge"])
@pytest.mark.parametrize("name", sorted(ANNEAL_GRAPHS))
def test_anneal_witness_and_restarts(name, mode):
    G = ANNEAL_GRAPHS[name]
    n = G.vertex_count
    assert n > cheeger.EXACT_LIMIT
    values = []
    for restarts in (0, 1, 2, 4):
        w = cheeger_combinatorial(G, mode, allow_heuristic=True,
                                  restarts=restarts, seed=11)
        assert not w.exact
        assert 1 <= len(w.set_witness) and 2 * len(w.set_witness) <= n
        assert set_ratio(G, w.set_witness, mode) == w.value_exact
        values.append(w.value_exact)
    # restarts=0 is the Fiedler sweep: the best prefix of the sorted vector.
    order = np.argsort(fiedler_vector(G)).tolist()
    sweep = min(set_ratio(G, order[:k], mode) for k in range(1, n // 2 + 1))
    assert values[0] == sweep
    # Each restart starts from the best set so far, and restart r draws the
    # same block at any larger count, so more restarts are never worse.
    assert values == sorted(values, reverse=True)
