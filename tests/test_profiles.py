import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepprof import kernels, profiles
from sepprof.cheeger import certified_lp_lower, majored_lp_lower
from sepprof.constructions import coarsen
from sepprof.errors import BudgetError, ExactSearchInfeasible
from sepprof.graphs import (Graph, build_family, cartesian_power,
                            induced_subgraph)
from sepprof.profiles import (DEFAULT_CUT_BUDGET, DEFAULT_SUBGRAPH_BUDGET,
                              ProfileRow, _hp_bracket, _subgraphs,
                              poincare_lower_bounds, poincare_profile,
                              separation_profile_exact)
from sepprof.spectral import lambda2


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
        key = tuple(_induced_masks(G.neighbor_masks, verts))
        num, size, _ = kernels.cheeger_exhaustive(key, m, kernels.MODE_MAJORED)
        h_maj = num / size
        factor = 1.0 if p == 1 else min(1 / 12, 4.0 ** -p / 2)
        expected = majored_lp_lower(h_maj, p)
        assert expected == pytest.approx(factor * h_maj / 2, rel=1e-15)
        assert _hp_bracket(key, p, Fraction(num, size))[0] == expected
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
    """The driver's (subset mask, key) pairs in its visiting order: by size,
    enumeration order within one."""
    return [(sum(1 << v for v in verts),
             tuple(_induced_masks(G.neighbor_masks, verts)))
            for verts in sorted(_subset_list(G, n_max, DEFAULT_SUBGRAPH_BUDGET),
                                key=len)]


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
        h_maj = float(Fraction(num, size))
        if m == 2:
            lo = up = 2.0
        elif p == 2:
            sub = induced_subgraph(G, verts)
            h2mod = math.sqrt(2.0 * lambda2(sub).lambda2)
            deg = sub.max_degree()
            lo = h2mod / math.sqrt(deg) if deg else 0.0
            up = min(math.sqrt(2.0) * h2mod, 2.0 * math.sqrt(h_maj))
        else:
            lo = majored_lp_lower(h_maj, p)
            up = h_maj if p == 1 else 2.0 * h_maj ** (1.0 / p)
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


def _kernel_calls(monkeypatch, profile):
    """The (form, key) of each kernel call profile() makes: "stop" for a
    Cheeger search that ended at its stop, "level" for a cut search that
    returned a cut of its min_k size, and "full" for any other search."""
    calls = []
    cheeger, min_cut = kernels.cheeger_exhaustive, kernels.min_cut_exact

    def counted_cheeger(masks, n, mode, backend=None, *, stop=None):
        num, size, mask = cheeger(masks, n, mode, backend, stop=stop)
        stopped = stop is not None and Fraction(num, size) <= stop
        calls.append(("stop" if stopped else "full", tuple(masks)))
        return num, size, mask

    def counted_cut(masks, n, num, den, max_k, budget, backend=None, *,
                    min_k=0):
        mask, examined = min_cut(masks, n, num, den, max_k, budget, backend,
                                 min_k=min_k)
        at_min = mask.bit_count() == min_k
        calls.append(("level" if at_min else "full", tuple(masks)))
        return mask, examined

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "cheeger_exhaustive", counted_cheeger)
        patch.setattr(kernels, "min_cut_exact", counted_cut)
        profile()
    return calls


def test_one_kernel_call_per_distinct_mask_tuple(monkeypatch):
    """No key is searched twice in the same form, every key searched is a
    real key, the half-cut makes one cut search per distinct key, and on
    grid 6x6 the pruned profiles run few full searches."""
    G = build_family("grid", 6, 6)
    keys = [key for _, key in _reference_subgraphs(G, 6)]
    distinct = set(keys)
    assert len(keys) > 5 * len(distinct)  # translates do repeat
    forms, searched = {}, {}
    for name, profile in (
            ("sep", lambda: separation_profile_exact(G, 6)),
            ("p1", lambda: poincare_profile(G, 6, 1)),
            ("p2", lambda: poincare_profile(G, 6, 2))):
        calls = _kernel_calls(monkeypatch, profile)
        assert len(calls) == len(set(calls))
        assert {key for _, key in calls} <= distinct
        forms[name] = Counter(form for form, _ in calls)
        searched[name] = Counter(key for _, key in calls)
    # p = 2 is not pruned: one full search per key with an edge.
    assert forms["p2"] == {"full": len([k for k in distinct if len(k) >= 2])}
    # The half-cut searches each key once (166 keys, 2 of them find a cut
    # above the running row); at p = 1, 147 searches end at their stop and
    # 18 run out.
    assert searched["sep"] == Counter(distinct)
    assert forms["sep"]["full"] * 10 < len(distinct)
    assert forms["p1"]["full"] * 5 < len(distinct)


def _pinned_rows_digest():
    """SHA-256 of the rows, values and witnesses, of the exact-profile calls
    of the verify suites whose floats are pure Python (no p = 2)."""
    g44 = build_family("grid", 4, 4)
    quotient = coarsen(g44, [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13],
                             [10, 11, 14, 15]]).coarse_graph
    tables = [separation_profile_exact(g44, 16),
              separation_profile_exact(quotient, 4),
              separation_profile_exact(build_family("cycle", 12), 12),
              separation_profile_exact(build_family("path", 15), 15),
              poincare_profile(build_family("hypercube", 4), 8, 1),
              poincare_profile(build_family("grid", 6, 6), 8, 1)]
    text = "".join(
        f"{r.n} {r.lower!r} {r.upper!r} {r.exact} "
        f"{None if r.witness is None else sorted(r.witness)}\n"
        for table in tables for r in table.rows)
    return hashlib.sha256(text.encode()).hexdigest()


# Taken before the driver pruned, when every subgraph was searched in full.
PINNED_ROWS_SHA256 = \
    "11ceb5ce50f4f1014704ea967324b481984ffbd105243bf4d834fbcc65546cee"


def test_pinned_rows_digest():
    assert _pinned_rows_digest() == PINNED_ROWS_SHA256


def test_float_edge_fallback_keeps_the_rows(monkeypatch):
    """A p = 1 stop set too high, as float rounding at the edge could set
    it, stops the Cheeger kernel at sets whose bracket still exceeds a row;
    each such key is searched again in full and the rows do not change."""
    p1_stop = profiles._p1_stop
    monkeypatch.setattr(profiles, "_p1_stop",
                        lambda lo, up, m: 2 * p1_stop(lo, up, m))
    digest = []
    calls = _kernel_calls(monkeypatch,
                          lambda: digest.append(_pinned_rows_digest()))
    assert digest == [PINNED_ROWS_SHA256]
    stopped = {key for form, key in calls if form == "stop"}
    fallbacks = [key for form, key in calls
                 if form == "full" and key in stopped]
    assert len(fallbacks) > 10


def test_exact_profile_budget():
    with pytest.raises(ExactSearchInfeasible, match="n_max 30 > 22"):
        poincare_profile(build_family("path", 30), 30, 1)
    # n_max is clamped to the host first, so a small host is fine
    assert len(poincare_profile(build_family("path", 5), 30, 1).rows) == 5
