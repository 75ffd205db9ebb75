import numpy as np
import pytest

from sepprof.graphs import Graph, build_family, cartesian_power
from sepprof.profiles import DEFAULT_SUBGRAPH_BUDGET, _subgraphs
from sepprof.spectral import (lambda2, lambda2_stack, lambda_infinity_ratio,
                              lambda_infinity_upper)


def test_lambda2_known_values():
    assert lambda2(build_family("complete", 2)).lambda2 == pytest.approx(2, abs=1e-9)
    assert lambda2(build_family("complete", 4)).lambda2 == pytest.approx(4, abs=1e-9)
    assert lambda2(build_family("cycle", 4)).lambda2 == pytest.approx(2, abs=1e-9)
    # complete graph eigenvalues are {0, n, ..., n}
    for n in (3, 5, 6):
        assert lambda2(build_family("complete", n)).lambda2 == pytest.approx(n, abs=1e-9)


def test_lambda2_rejects_single_vertex():
    with pytest.raises(ValueError):
        lambda2(Graph(1, []))


def test_witness_is_mean_zero_unit():
    for g in (build_family("cycle", 6), Graph(4, [(0, 1), (2, 3)])):
        rep = lambda2(g)
        assert abs(rep.witness_vector.mean()) < 1e-9
        assert np.linalg.norm(rep.witness_vector) == pytest.approx(1.0)


def test_disconnected_gap_is_zero():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    assert lambda2(g).lambda2 == pytest.approx(0, abs=1e-9)


def test_power_identity():
    for g in (build_family("complete", 3), build_family("path", 4)):
        base = lambda2(g).lambda2
        for k in (2, 3):
            assert lambda2(cartesian_power(g, k)).lambda2 == pytest.approx(
                base, abs=1e-9)


def test_lambda_infinity_k2_closed_form():
    # any nonconstant f on two vertices gives the same ratio, 4
    g = build_family("complete", 2)
    assert lambda_infinity_ratio(g, np.array([0.3, -1.2])) == pytest.approx(4.0)
    value, witness = lambda_infinity_upper(g, restarts=3, seed=0)
    assert value == pytest.approx(4.0)
    assert lambda_infinity_ratio(g, witness) == pytest.approx(value)


def test_lambda_infinity_constant_rejected():
    with pytest.raises(ValueError):
        lambda_infinity_ratio(build_family("cycle", 4), np.ones(4))


def test_lambda_infinity_deterministic_and_power_halving():
    c4 = build_family("cycle", 4)
    v1a, _ = lambda_infinity_upper(c4, restarts=6, seed=9)
    v1b, _ = lambda_infinity_upper(c4, restarts=6, seed=9)
    assert v1a == v1b
    v2, _ = lambda_infinity_upper(cartesian_power(c4, 2), restarts=8, seed=9)
    assert v2 == pytest.approx(v1a / 2, rel=0.10)


@pytest.mark.parametrize("make,n_max", [
    (lambda: build_family("hypercube", 4), 8),
    (lambda: build_family("grid", 4, 4), 16),
])
def test_lambda2_stack_is_lambda2_bit_for_bit(make, n_max):
    """One stacked eigh gives lambda2 of every profile key bit for bit; with
    -0.0 off the edges it would not."""
    for m, _, keys in _subgraphs(make(), n_max, DEFAULT_SUBGRAPH_BUDGET):
        if m < 2:
            continue
        keys = [tuple(key) for key in keys.tolist()]
        got = lambda2_stack(np.array(keys, dtype=np.int64))
        want = [lambda2(Graph(m, [(u, v) for u in range(m)
                                  for v in range(u + 1, m)
                                  if key[u] >> v & 1])).lambda2
                for key in keys]
        assert got.tobytes() == np.array(want).tobytes()
