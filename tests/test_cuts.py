from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepprof import kernels
from sepprof.cuts import cut, is_cut_set, iterated_halving_cut
from sepprof.errors import BudgetError
from sepprof.graphs import Graph, build_family, connected_components, induced_subgraph


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 11))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1]),
        max_size=2 * n))
    return Graph(n, edges)


def test_half_cut_examples():
    assert cut(build_family("path", 5), "1/2").cut_set == {2}
    assert cut(build_family("complete", 4), "1/2").size == 2
    assert cut(build_family("cycle", 8), "1/2").size == 2


def test_single_vertex_convention():
    assert cut(Graph(1, []), "1/2").size == 1


def test_s_one_needs_nothing():
    assert cut(build_family("cycle", 5), 1).size == 0


def test_invalid_s_rejected():
    with pytest.raises(ValueError):
        cut(build_family("path", 3), "0")
    with pytest.raises(ValueError):
        cut(build_family("path", 3), "3/2")


def test_cut_set_must_name_host_vertices():
    c8 = build_family("cycle", 8)
    with pytest.raises(ValueError, match="not in host graph"):
        is_cut_set(c8, {0, 4, 100}, Fraction(1, 2))
    with pytest.raises(ValueError, match="not in host graph"):
        is_cut_set(c8, {0, 4, -3}, Fraction(1, 2))


def test_budget_error_advises_heuristic():
    with pytest.raises(BudgetError, match="heuristic"):
        cut(build_family("grid", 4, 4), "1/4", budget=3)


def test_result_components_validated():
    g = build_family("grid", 3, 4)
    result = cut(g, "1/3")
    n = g.vertex_count
    rest = [v for v in range(n) if v not in result.cut_set]
    comps = connected_components(induced_subgraph(g, rest))
    assert all(3 * len(c) <= n for c in comps)


@given(graphs(), st.sampled_from(["1/2", "1/3", "2/5"]))
def test_heuristic_valid_and_dominates(G, s):
    s = Fraction(s)
    heur = cut(G, s, "heuristic")
    assert is_cut_set(G, heur.cut_set, s)
    assert not heur.exact
    exact = cut(G, s, "exact")
    assert heur.size >= exact.size


def test_halving_single_round_matches_exact():
    c12 = build_family("cycle", 12)
    assert iterated_halving_cut(c12, "1/2").size == cut(c12, "1/2").size


def test_halving_quarter_examples():
    p15 = build_family("path", 15)
    r = iterated_halving_cut(p15, "1/4")
    assert is_cut_set(p15, r.cut_set, Fraction(1, 4))
    assert r.size <= 3
    c12 = build_family("cycle", 12)
    r = iterated_halving_cut(c12, "1/4")
    assert is_cut_set(c12, r.cut_set, Fraction(1, 4))
    # |C| <= (4/s) * sep, and sep_C12 = 2
    assert r.size <= 16 * 2


def test_halving_rejects_large_s():
    with pytest.raises(ValueError):
        iterated_halving_cut(build_family("path", 5), "3/4")


@given(graphs())
def test_halving_eighth_is_valid(G):
    r = iterated_halving_cut(G, Fraction(1, 8))
    assert is_cut_set(G, r.cut_set, Fraction(1, 8))


def test_examined_is_the_kernel_count():
    for G, s in ((build_family("grid", 3, 4), Fraction(1, 3)),
                 (build_family("cycle", 12), Fraction(1, 2)),
                 (build_family("hypercube", 4), Fraction(1, 4))):
        n = G.vertex_count
        _, examined = kernels.min_cut_exact(
            G.neighbor_masks, n, s.numerator, s.denominator, n, 10 ** 7)
        assert cut(G, s).examined == examined > 0
    assert cut(build_family("grid", 3, 4), "1/3", "heuristic").examined == 0


def test_halving_examined_sums_its_exact_cuts(monkeypatch):
    counts = []
    search = kernels.min_cut_exact

    def counted(*args, **kwargs):
        mask, examined = search(*args, **kwargs)
        counts.append(examined)
        return mask, examined

    monkeypatch.setattr(kernels, "min_cut_exact", counted)
    r = iterated_halving_cut(build_family("path", 15), "1/8")
    assert len(counts) > 1 and r.examined == sum(counts)
