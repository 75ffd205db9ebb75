import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepprof import kernels
from sepprof.cheeger import certified_lp_lower, majored_lp_lower
from sepprof.errors import BudgetError, ExactSearchInfeasible
from sepprof.graphs import (Graph, build_family, cartesian_power,
                            induced_subgraph)
from sepprof.profiles import (DEFAULT_CUT_BUDGET, DEFAULT_SUBGRAPH_BUDGET,
                              ProfileRow, _hp_bracket, _subgraphs,
                              poincare_lower_bounds, poincare_profile,
                              separation_profile_exact)


def test_sep_paths_are_one():
    table = separation_profile_exact(build_family("path", 12), 12)
    assert all(row.lower == 1.0 for row in table.rows)
    assert all(row.exact for row in table.rows)


def test_sep_c8():
    table = separation_profile_exact(build_family("cycle", 8), 8)
    assert [int(r.lower) for r in table.rows] == [1, 1, 1, 1, 1, 1, 1, 2]
    assert table.value(8).witness == frozenset(range(8))


def test_sep_monotone_in_n():
    table = separation_profile_exact(build_family("grid", 3, 4), 12)
    vals = [r.lower for r in table.rows]
    assert vals == sorted(vals)


def test_sep_budget_error():
    with pytest.raises(BudgetError):
        separation_profile_exact(build_family("grid", 4, 4), 16, budget=20)


def test_poincare_budget_error():
    with pytest.raises(BudgetError):
        poincare_profile(build_family("grid", 4, 4), 16, 1, budget=20)


def test_poincare_bracket_structure():
    table = poincare_profile(build_family("cycle", 8), 8, 1)
    for row in table.rows:
        assert row.lower <= row.upper + 1e-12
    # the 2-vertex subgraph is K2 with h_p = 2 exactly
    assert table.value(2).lower == pytest.approx(4.0)
    assert table.value(2).upper == pytest.approx(4.0)
    assert table.value(8).upper == pytest.approx(8.0)  # majored constant 1


def test_poincare_p2_uses_gap():
    table = poincare_profile(build_family("cycle", 8), 8, 2)
    # the full cycle: modified constant sqrt(2*lambda2), degree 2
    lam = 2 - 2 * math.cos(2 * math.pi / 8)
    expected_lower = 8 * math.sqrt(2 * lam) / math.sqrt(2)
    assert table.value(8).lower >= expected_lower - 1e-9


def test_poincare_lower_beats_comparison_constant():
    g = build_family("grid", 3, 4)
    sep = separation_profile_exact(g, 12)
    for p in (1, 2, 3):
        table = poincare_profile(g, 12, p)
        c = min(1 / 96, 4.0 ** -p / 24)
        for n in range(2, 13):
            assert table.value(n).lower >= c * sep.value(n).lower


def test_witness_lower_mode():
    g = build_family("cycle", 12)
    table = poincare_lower_bounds(g, [range(6), range(12)], 1)
    assert len(table.rows) == 2
    assert all(r.upper is None for r in table.rows)
    assert table.rows[0].n == 6 and table.rows[1].n == 12
    assert table.rows[1].lower > 0


def test_witness_lower_never_exceeds_exact_upper():
    g = build_family("cycle", 10)
    exact = poincare_profile(g, 10, 1)
    lower = poincare_lower_bounds(g, [range(n) for n in range(2, 11)], 1)
    for row in lower.rows:
        assert row.lower <= exact.value(row.n).upper + 1e-9


def test_witness_lower_rejects_oversize():
    g = cartesian_power(build_family("cycle", 4), 3)
    with pytest.raises(ExactSearchInfeasible):
        poincare_lower_bounds(g, [range(30)], 1)


@pytest.mark.parametrize("p", [1, 1.5, 3])
def test_bracket_lower_is_the_certified_sandwich(p):
    """The profile's lower end and certified_lp_lower are one sandwich:
    equal bits on every induced subgraph with at least 3 vertices."""
    G = build_family("hypercube", 4)
    for verts in _subset_list(G, 6, DEFAULT_SUBGRAPH_BUDGET):
        m = len(verts)
        if m < 3:
            continue
        num, size, _ = kernels.cheeger_exhaustive(
            _induced_masks(G.neighbor_masks, verts), m, kernels.MODE_MAJORED)
        h_maj = num / size
        factor = 1.0 if p == 1 else min(1 / 12, 4.0 ** -p / 2)
        expected = majored_lp_lower(h_maj, p)
        assert expected == pytest.approx(factor * h_maj / 2, rel=1e-15)
        assert _hp_bracket(G, verts, p, Fraction(num, size))[0] == expected
        sub = induced_subgraph(G, verts)
        assert certified_lp_lower(sub, p, "sup_scale") == expected


def test_profile_csv(tmp_path):
    table = separation_profile_exact(build_family("cycle", 8), 8)
    path = tmp_path / "sep.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,lower,upper,exact,witness"
    assert len(lines) == 9
    assert lines[1].startswith("1,1,1,1,")


# Reference relabelling: each subset as a sorted vertex tuple, and its
# neighbour masks relabelled through a dict over all pairs of members.
def _subset_list(G, n_max, budget):
    subsets = kernels.connected_subsets(
        G.neighbor_masks, G.vertex_count, n_max, budget)
    out = []
    for mask in subsets:
        verts = []
        m = mask
        while m:
            low = m & -m
            verts.append(low.bit_length() - 1)
            m ^= low
        out.append(tuple(verts))
    return out


def _induced_masks(masks, vertices):
    remap = {v: i for i, v in enumerate(vertices)}
    out = []
    for v in vertices:
        m = masks[v]
        acc = 0
        for u in vertices:
            if m >> u & 1:
                acc |= 1 << remap[u]
        out.append(acc)
    return out


def _reference_subgraphs(G, n_max):
    return [(verts, tuple(_induced_masks(G.neighbor_masks, verts)))
            for verts in _subset_list(G, n_max, DEFAULT_SUBGRAPH_BUDGET)]


# Reference loops: the per-subgraph evaluation without the per-call memo.
def _oracle_separation(G, n_max):
    n_max = min(n_max, G.vertex_count)
    best = [0] * (n_max + 1)
    witness = [None] * (n_max + 1)
    for verts in _subset_list(G, n_max, DEFAULT_SUBGRAPH_BUDGET):
        m = len(verts)
        sub_masks = _induced_masks(G.neighbor_masks, verts)
        mask, _ = kernels.min_cut_exact(sub_masks, m, 1, 2, m,
                                        DEFAULT_CUT_BUDGET)
        size = mask.bit_count()
        if size > best[m]:
            best[m] = size
            witness[m] = frozenset(verts)
    rows = []
    run, run_wit = 0, None
    for n in range(1, n_max + 1):
        if best[n] > run:
            run, run_wit = best[n], witness[n]
        rows.append(ProfileRow(n=n, lower=float(run), upper=float(run),
                               exact=True, witness=run_wit))
    return rows


def _oracle_poincare(G, n_max, p):
    n_max = min(n_max, G.vertex_count)
    best_lo = [0.0] * (n_max + 1)
    best_up = [0.0] * (n_max + 1)
    witness = [None] * (n_max + 1)
    for verts in _subset_list(G, n_max, DEFAULT_SUBGRAPH_BUDGET):
        m = len(verts)
        if m < 2:
            continue
        sub_masks = _induced_masks(G.neighbor_masks, verts)
        num, size, _ = kernels.cheeger_exhaustive(sub_masks, m,
                                                  kernels.MODE_MAJORED)
        lo, up = _hp_bracket(G, verts, p, Fraction(num, size))
        if m * lo > best_lo[m]:
            best_lo[m] = m * lo
        if m * up > best_up[m]:
            best_up[m] = m * up
            witness[m] = frozenset(verts)
    rows = []
    run_lo, run_up, run_wit = 0.0, 0.0, None
    for n in range(1, n_max + 1):
        if best_up[n] > run_up:
            run_up, run_wit = best_up[n], witness[n]
        run_lo = max(run_lo, best_lo[n])
        rows.append(ProfileRow(n=n, lower=run_lo, upper=run_up,
                               exact=False, witness=run_wit))
    return rows


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus random extra edges, on 2..9 vertices."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= draw(st.sets(st.sampled_from(pairs), max_size=n))
    return Graph(n, edges)


_ORACLE_HOSTS = [
    ("grid6x6", lambda: build_family("grid", 6, 6), 6),
    ("Q4", lambda: build_family("hypercube", 4), 7),
    ("C8", lambda: build_family("cycle", 8), 8),
]


@pytest.mark.parametrize("name,make,n_max", _ORACLE_HOSTS)
def test_profiles_equal_reference_loops(name, make, n_max):
    G = make()
    assert separation_profile_exact(G, n_max).rows == \
        _oracle_separation(G, n_max)
    for p in (1, 2, 3):
        assert poincare_profile(G, n_max, p).rows == \
            _oracle_poincare(G, n_max, p)


@pytest.mark.parametrize("make,n_max", [
    (lambda: build_family("grid", 6, 6), 6),
    (lambda: build_family("hypercube", 4), 16),
])
def test_subgraph_keys_equal_reference_relabelling(make, n_max):
    G = make()
    assert list(_subgraphs(G, n_max, DEFAULT_SUBGRAPH_BUDGET)) == \
        _reference_subgraphs(G, n_max)


@given(connected_graphs())
def test_subgraph_keys_equal_reference_relabelling_random(G):
    n = G.vertex_count
    assert list(_subgraphs(G, n, DEFAULT_SUBGRAPH_BUDGET)) == \
        _reference_subgraphs(G, n)


@given(connected_graphs(), st.sampled_from([1, 2, 3]))
def test_profiles_equal_reference_loops_random(G, p):
    n = G.vertex_count
    assert separation_profile_exact(G, n).rows == _oracle_separation(G, n)
    assert poincare_profile(G, n, p).rows == _oracle_poincare(G, n, p)


def test_one_kernel_call_per_distinct_mask_tuple(monkeypatch):
    G = build_family("grid", 6, 6)
    keys = [key for _, key in _reference_subgraphs(G, 6)]
    calls = {"cheeger": [], "cut": []}
    cheeger, min_cut = kernels.cheeger_exhaustive, kernels.min_cut_exact

    def counted_cheeger(masks, n, mode, backend=None):
        calls["cheeger"].append(tuple(masks))
        return cheeger(masks, n, mode, backend)

    def counted_cut(masks, n, num, den, max_k, budget, backend=None):
        calls["cut"].append(tuple(masks))
        return min_cut(masks, n, num, den, max_k, budget, backend)

    monkeypatch.setattr(kernels, "cheeger_exhaustive", counted_cheeger)
    monkeypatch.setattr(kernels, "min_cut_exact", counted_cut)
    poincare_profile(G, 6, 2)
    separation_profile_exact(G, 6)
    assert len(calls["cheeger"]) == len(set(calls["cheeger"]))
    assert set(calls["cheeger"]) == {k for k in keys if len(k) >= 2}
    assert len(calls["cut"]) == len(set(calls["cut"]))
    assert set(calls["cut"]) == set(keys)
    assert len(keys) > 5 * len(set(keys))  # translates do repeat


def test_exact_profile_budget():
    with pytest.raises(ExactSearchInfeasible, match="n_max 30 > 22"):
        poincare_profile(build_family("path", 30), 30, 1)
    # n_max is clamped to the host first, so a small host is fine
    assert len(poincare_profile(build_family("path", 5), 30, 1).rows) == 5
