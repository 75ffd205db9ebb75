import hashlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepprof import kernels, profiles
from sepprof.cheeger import certified_lp_lowers, majored_lp_lower
from sepprof.constructions import coarsen
from sepprof.errors import BudgetError, ExactSearchInfeasible
from sepprof.graphs import (Graph, build_family, induced_subgraph, subdivide,
                            word_masks)
from sepprof.profiles import (DEFAULT_CUT_BUDGET, DEFAULT_SUBGRAPH_BUDGET,
                              ProfileRow, _subgraphs, poincare_profile,
                              separation_profile_exact)
from sepprof.spectral import lambda2

from reference_subsets import dfs_connected_subsets


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


@pytest.mark.parametrize("p", [1, 1.5, 3])
def test_bracket_lower_is_the_certified_sandwich(p):
    """The profile's lower end, m times the bracket table's at the majored
    constant, and certified_lp_lowers are one sandwich: equal bits on every
    induced subgraph with at least 3 vertices."""
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
        h, lower, _ = profiles._bracket_table(m, p)
        assert lower[np.searchsorted(h, h_maj)] == m * expected
        sub = induced_subgraph(G, verts)
        assert certified_lp_lowers(sub, [p], "sup_scale") == [expected]


def _subset_list(G, n_max, budget):
    subsets = dfs_connected_subsets(
        G.neighbor_masks, G.vertex_count, n_max, budget)
    assert subsets is not None, "reference enumeration over its budget"
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


def _subgraph_lists(G, n_max, budget=DEFAULT_SUBGRAPH_BUDGET):
    """_subgraphs' output with its arrays as lists: the first subsets as
    masks and the keys as tuples."""
    return [(m, word_masks(subsets), [tuple(key) for key in keys.tolist()])
            for m, subsets, keys in _subgraphs(G, n_max, budget)]


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


def _hp_bracket(key, p, h_maj, gap=None):
    """Reference bracket, one key at a time in Python floats: certified
    [lower, upper] for the sup-gradient L^p constant of the subgraph with neighbour masks key, from
    the float h_maj of its majored constant and, for p = 2, gap: the
    subgraph's lambda2 and maximum degree."""
    m = len(key)
    if m == 2:
        return 2.0, 2.0  # two connected vertices form K2; h_p(K2) = 2
    if p == 2:
        lam, deg = gap
        h2mod = math.sqrt(2.0 * lam)
        lower = h2mod / math.sqrt(deg) if deg else 0.0
        upper = min(math.sqrt(2.0) * h2mod, 2.0 * math.sqrt(h_maj))
        return lower, upper
    upper = h_maj if p == 1 else 2.0 * h_maj ** (1.0 / p)
    return majored_lp_lower(h_maj, p), upper


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


def _assert_keys_equal_reference(G, n_max):
    """_subgraphs gives, per size in increasing order, the reference's
    distinct keys in order of first appearance, each with the first subset
    that has it."""
    reference = _reference_subgraphs(G, n_max)
    sizes = {}
    for subset, key in reference:
        sizes.setdefault(len(key), {}).setdefault(key, subset)
    got = _subgraph_lists(G, n_max)
    assert got == [(m, list(firsts.values()), list(firsts))
                   for m, firsts in sizes.items()]
    for m, _, keys in got:
        assert set(keys) == {key for _, key in reference if len(key) == m}


@pytest.mark.parametrize("make,n_max", [
    (lambda: build_family("grid", 6, 6), 6),
    (lambda: build_family("hypercube", 4), 16),
    # Above 64 vertices a subset spans several 64-bit words.
    (lambda: build_family("cycle", 70), 4),
    # Keys of more than 64 members are rows of Python ints.
    (lambda: build_family("path", 66), 66),
])
def test_subgraph_keys_equal_reference_relabelling(make, n_max):
    _assert_keys_equal_reference(make(), n_max)


@given(connected_graphs())
def test_subgraph_keys_equal_reference_relabelling_random(G):
    _assert_keys_equal_reference(G, G.vertex_count)


@pytest.mark.parametrize("make,n_max", [
    (lambda: build_family("grid", 4, 4), 8),
    (lambda: build_family("hypercube", 4), 8),
    (lambda: build_family("path", 66), 66),
])
def test_subgraph_keys_equal_reference_in_small_chunks(monkeypatch, make,
                                                       n_max):
    """With three subsets per chunk, a key's first occurrence and its
    repeats fall in different chunks; the one sort over a size's keys still
    gives the first subset of each."""
    G = make()
    monkeypatch.setattr(profiles, "_CHUNK_BITS", 3 * max(G.vertex_count, 16))
    assert profiles._chunk_rows(G.vertex_count) == 3
    _assert_keys_equal_reference(G, n_max)


def test_keys_take_the_narrowest_type():
    """Keys of m members are uint8 up to 8 members, uint16 up to 16, uint32
    up to 32, uint64 up to 64, and Python ints above."""
    sizes = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}
    for m, _, keys in _subgraphs(build_family("path", 66), 66,
                                 DEFAULT_SUBGRAPH_BUDGET):
        want = next((kind for most, kind in sizes.items() if m <= most),
                    object)
        assert keys.dtype == want, m


def _assert_enumeration_equals_reference(G, n_max, backends):
    """The subsets _connected_subsets returns, size by size, are the
    reference DFS's stably sorted by size, and kernels.connected_subsets
    returns them as ints whatever backend is named. A budget equal to their
    number passes, and one less raises BudgetError, where the reference
    gives up at the same budget."""
    masks, n = G.neighbor_masks, G.vertex_count
    got = [mask
           for subsets in profiles._connected_subsets(masks, n, n_max, 10 ** 7)
           for mask in word_masks(subsets)]
    want = dfs_connected_subsets(masks, n, n_max, 10 ** 7)
    assert got == sorted(want, key=int.bit_count)
    assert dfs_connected_subsets(masks, n, n_max, len(got) - 1) is None
    for backend in backends:
        assert kernels.connected_subsets(masks, n, n_max, 10 ** 7,
                                         backend=backend) == got
        with pytest.raises(BudgetError):
            kernels.connected_subsets(masks, n, n_max, len(got) - 1,
                                      backend=backend)
    assert sum(len(subsets) for subsets in
               profiles._connected_subsets(masks, n, n_max, len(got))) \
        == len(got)
    with pytest.raises(BudgetError):
        profiles._connected_subsets(masks, n, n_max, len(got) - 1)


@pytest.mark.parametrize("make,n_max", [
    (lambda: build_family("grid", 6, 6), 8),
    (lambda: build_family("hypercube", 4), 16),
    # Above 64 vertices a subset spans two words.
    (lambda: build_family("cycle", 70), 4),
    (lambda: build_family("path", 66), 66),
    (lambda: subdivide(build_family("hypercube", 3), 1), 20),
])
def test_enumeration_equals_kernels(backends, make, n_max):
    _assert_enumeration_equals_reference(make(), n_max, backends)


@given(connected_graphs())
def test_enumeration_equals_kernels_random(backends, G):
    _assert_enumeration_equals_reference(G, G.vertex_count, backends)


def test_budget_error_comes_before_any_evaluation():
    """A budget one short of the enumeration raises BudgetError before the
    evaluator sees the keys of any size: every level is counted before any
    is returned."""
    G, n_max = build_family("grid", 6, 6), 8
    count = sum(map(len, profiles._connected_subsets(
        G.neighbor_masks, G.vertex_count, n_max, 10 ** 7)))
    seen = []

    def evaluator(keys):
        seen.append(keys.shape[1])
        return np.zeros(len(keys)), np.zeros(len(keys)), None

    with pytest.raises(BudgetError):
        profiles._sup_rows(G, n_max, count - 1, evaluator, True)
    assert seen == []
    profiles._sup_rows(G, n_max, count, evaluator, True)
    assert seen == list(range(1, n_max + 1))


def _key_pass_peak(G, n_max):
    """The tracemalloc peak, in bytes, of one whole key pass, each size's
    arrays dropped before the next size, as the driver drops them."""
    tracemalloc.start()
    try:
        for _, subsets, keys in _subgraphs(G, n_max, 2_000_000):
            del subsets, keys
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make,n_max,most", [
    (lambda: build_family("grid", 6, 6), 8, 2 << 20),
    (lambda: subdivide(build_family("hypercube", 3), 1), 20, 5 << 19),
    # The toy example: 134,048 subsets of 25 members, 12.8 MiB of keys.
    (lambda: subdivide(build_family("hypercube", 3), 2), 25, 3 << 23),
])
def test_key_pass_memory_is_chunked(make, n_max, most):
    """The key pass builds each level's keys in chunks, holding one chunk's
    per-host-vertex temporaries and the level's keys in their narrowest
    type, so its peak stays far below what whole-level temporaries take
    (about 2.0 and 4.8 MiB for the former one-list-per-call pass on the
    first two hosts). It holds a size's keys once, with the sort and the
    dedup done in chunks: on the toy example at n 25 two copies of the last
    size's keys would take 25.6 MiB."""
    assert _key_pass_peak(make(), n_max) < most


@given(connected_graphs(), st.sampled_from([1, 1.5, 2, 3, 700, 1e12]))
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
        stopped = stop is not None and num * stop[1] <= stop[0] * size
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


def test_large_exponent_equals_reference_loop(monkeypatch):
    """At p = 700 the lower factor 4^-p underflows to 0 and the upper end
    2 h^(1/p) is close to 2 at every ratio; at p = 1e12 the upper ends of
    neighbouring ratios differ by an ulp or two. The bracket tables are
    running maxima, so the pre-pass and the stops stay exact there: the rows
    are the reference loop's, and on Q4 at n 8 all but the few searches
    that raise a row end at their stop."""
    G = build_family("grid", 3, 4)
    assert poincare_profile(G, 12, 700).rows == _oracle_poincare(G, 12, 700)
    for G, n_max in ((build_family("cycle", 8), 8),
                     (build_family("hypercube", 4), 8)):
        rows = []
        calls = _kernel_calls(
            monkeypatch, lambda: rows.extend(poincare_profile(G, n_max,
                                                              1e12).rows))
        assert rows == _oracle_poincare(G, n_max, 1e12)
    forms = Counter(form for form, _ in calls)
    assert forms["full"] < 10 and forms["stop"] > 1000


def test_one_kernel_call_per_distinct_mask_tuple(monkeypatch):
    """No key is searched twice in the same form, every key searched is a
    real key, the half-cut searches exactly the keys its boundary cuts do
    not answer, and on grid 6x6 the pruned profiles run few full
    searches."""
    G = build_family("grid", 6, 6)
    keys = [key for _, key in _reference_subgraphs(G, 6)]
    distinct = set(keys)
    assert len(keys) > 5 * len(distinct)  # translates do repeat
    forms, searched = {}, {}
    for name, profile in (
            ("sep", lambda: separation_profile_exact(G, 6)),
            ("p1", lambda: poincare_profile(G, 6, 1)),
            ("p2", lambda: poincare_profile(G, 6, 2)),
            ("p3", lambda: poincare_profile(G, 6, 3))):
        calls = _kernel_calls(monkeypatch, profile)
        assert len(calls) == len(set(calls))
        assert {key for _, key in calls} <= distinct
        forms[name] = Counter(form for form, _ in calls)
        searched[name] = Counter(key for _, key in calls)
    # The half-cut searches, once each, exactly the keys whose boundary cut
    # exceeds the running row at their visit: 4 of the 166 keys, 2 of which
    # find a cut above the running row. The Poincare pre-pass skips most
    # keys without a search: at p = 1, 28 searches end at their stop and 3
    # run out, at p = 3, 30 and 8, and at p = 2, 6 keys are searched and
    # none of them stops.
    assert searched["sep"] == Counter(_searched_half_cuts(G, 6))
    assert forms["sep"]["full"] * 10 < len(distinct)
    assert forms["p1"]["full"] * 5 < len(distinct)
    assert forms["p3"]["full"] * 5 < len(distinct)
    assert set(forms["p2"]) == {"full"}
    assert forms["p2"]["full"] * 10 < len(distinct)


def _cycle_rank_bound(key):
    """e - m + 2 of a connected key with m members and e edges: its cycle
    rank plus 1."""
    return sum(mask.bit_count() for mask in key) // 2 - len(key) + 2


def _reference_boundary_cut(key):
    """The least of the cycle-rank bound and the outer boundary of each
    prefix or suffix set of j <= m // 2 members that leaves at most m // 2
    others, as a loop over the sets."""
    m = len(key)
    best = _cycle_rank_bound(key)
    for j in range(1, m // 2 + 1):
        for members in (range(j), range(m - j, m)):
            A = reach = 0
            for v in members:
                A |= 1 << v
                reach |= key[v]
            cut = (reach & ~A).bit_count()
            if m - j - cut <= m // 2:
                best = min(best, cut)
    return best


def _searched_half_cuts(G, n_max):
    """The keys the half-cut should search, in visiting order: each distinct
    key whose size and reference boundary cut both exceed t, the running row
    at its visit, replayed from full cut searches."""
    run, seen, searched = 0, set(), []
    for _, key in _reference_subgraphs(G, n_max):
        if key in seen:
            continue
        seen.add(key)
        m = len(key)
        if run < m and _reference_boundary_cut(key) > run:
            searched.append(key)
        mask, _ = kernels.min_cut_exact(key, m, 1, 2, m, DEFAULT_CUT_BUDGET)
        run = max(run, mask.bit_count())
    return searched


def _assert_boundary_cuts_equal_reference(G, n_max):
    """Each key's boundary cut is the reference loop's, and a finite one c
    is a half-cut: the cut search from c vertices finds a cut of c."""
    for m, _, keys in _subgraph_lists(G, n_max):
        got = profiles._boundary_cuts(np.array(keys, dtype=np.int64))
        for key, cut in zip(keys, got.tolist()):
            assert cut == _reference_boundary_cut(key)
            if cut < math.inf:
                mask, _ = kernels.min_cut_exact(key, m, 1, 2, m,
                                                DEFAULT_CUT_BUDGET,
                                                min_k=int(cut))
                assert mask.bit_count() == cut


@pytest.mark.parametrize("make,n_max", [
    (lambda: build_family("hypercube", 4), 8),
    (lambda: build_family("grid", 4, 4), 16),
])
def test_boundary_cuts_equal_reference_loop(make, n_max):
    _assert_boundary_cuts_equal_reference(make(), n_max)


@given(connected_graphs())
def test_boundary_cuts_equal_reference_loop_random(G):
    _assert_boundary_cuts_equal_reference(G, G.vertex_count)


def _assert_cycle_rank_bounds_are_half_cuts(G):
    """Every key's cycle-rank bound c that does not exceed its size is met:
    the cut search from c vertices finds a cut of exactly c."""
    for m, _, keys in _subgraph_lists(G, G.vertex_count):
        for key in keys:
            c = _cycle_rank_bound(key)
            if c <= m:
                mask, _ = kernels.min_cut_exact(key, m, 1, 2, m,
                                                DEFAULT_CUT_BUDGET, min_k=c)
                assert mask.bit_count() == c


def test_cycle_rank_bounds_are_half_cuts_on_subdivided_q3():
    _assert_cycle_rank_bounds_are_half_cuts(
        subdivide(build_family("hypercube", 3), 1))


@given(connected_graphs())
def test_cycle_rank_bounds_are_half_cuts_random(G):
    _assert_cycle_rank_bounds_are_half_cuts(G)


def _no_boundary_cuts(masks):
    return np.full(len(masks), np.inf)


def test_pinned_rows_do_not_depend_on_the_boundary_cuts(monkeypatch):
    monkeypatch.setattr(profiles, "_boundary_cuts", _no_boundary_cuts)
    assert _pinned_rows_digest() == PINNED_ROWS_SHA256


@given(connected_graphs())
def test_rows_do_not_depend_on_the_boundary_cuts_random(G):
    n = G.vertex_count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profiles, "_boundary_cuts", _no_boundary_cuts)
        assert separation_profile_exact(G, n).rows == _oracle_separation(G, n)


@pytest.mark.parametrize("make,n_max,most", [
    (lambda: build_family("grid", 4, 4), 16, 80),
    (lambda: build_family("hypercube", 4), 8, 10),
    (lambda: subdivide(build_family("hypercube", 3), 1), 20, 500),
])
def test_boundary_cuts_leave_few_cut_searches(monkeypatch, make, n_max,
                                              most):
    """The boundary cuts and cycle-rank bounds answer all but a few of the
    thousands of keys (grid 4x4 at n 16: 8,625 searches without them, 77
    with them; Q4 at n 8: 7,405 and 6). On subdivided Q3 the prefix and
    suffix cuts alone leave 22,850 searches, and the cycle-rank bound
    brings them to 347."""
    G = make()
    calls = _kernel_calls(monkeypatch,
                          lambda: separation_profile_exact(G, n_max))
    assert len(calls) <= most


def test_sep_keys_wider_than_63_bits_are_searched(monkeypatch):
    """A path's keys of 3 to 63 members have a boundary cut of 1 vertex, the
    running row; keys of 64 members and more skip the pre-pass and are
    searched."""
    G = build_family("path", 66)
    calls = _kernel_calls(monkeypatch,
                          lambda: separation_profile_exact(G, 66))
    assert sorted(len(key) for _, key in calls) == [1, 64, 65, 66]
    assert separation_profile_exact(G, 66).rows[-1].lower == 1.0


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
    return _rows_digest(tables)


def _rows_digest(tables):
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


def _pinned_exponent_rows_digest():
    """SHA-256 of the rows, values and witnesses, of poincare_profile at the
    exponents other than 1 on three small hosts."""
    tables = [poincare_profile(G, n_max, p)
              for G, n_max in ((build_family("grid", 3, 4), 12),
                               (build_family("cycle", 8), 8),
                               (build_family("hypercube", 4), 8))
              for p in (1.5, 2, 3)]
    return _rows_digest(tables)


# Taken before the driver pruned any exponent but p = 1.
PINNED_EXPONENT_ROWS_SHA256 = \
    "456014a7bed15fa54069f9dbe45068f3c4ce6d9d5e619d9b2f5e3f2ab311872b"


def test_pinned_exponent_rows_digest():
    assert _pinned_exponent_rows_digest() == PINNED_EXPONENT_ROWS_SHA256


def _toy_rows_digest():
    """SHA-256 of the rows, values and witnesses, of the separation profile
    at n = |V| of the paper's toy example, each edge of a small host
    subdivided kappa times."""
    hosts = [(build_family("complete", 4), kappa) for kappa in (1, 2, 3)] + \
        [(build_family("cycle", 6), kappa) for kappa in (1, 2, 3)] + \
        [(build_family("hypercube", 3), 1), (build_family("grid", 3, 3), 1)]
    tables = []
    for host, kappa in hosts:
        G = subdivide(host, kappa)
        tables.append(separation_profile_exact(G, G.vertex_count))
    return _rows_digest(tables)


# Taken while the key pass still deduplicated each chunk and merged them.
PINNED_TOY_ROWS_SHA256 = \
    "45c8570d7235b5d5f9cc5717ef443984f5dc1959e597f49eb74cdb2fd1ca7cb5"


def test_pinned_toy_rows_digest():
    assert _toy_rows_digest() == PINNED_TOY_ROWS_SHA256


_MONOTONE_EXPONENTS = (1, 1.5, 3, 700, 1e9)
# (lambda2, maximum degree) of P6, the star K1,3, C4, Q3 and K4: the p = 2
# bracket's lower end depends on them and not on the ratio.
_GAPS = ((2 - math.sqrt(3), 2), (1.0, 3), (2.0, 2), (2.0, 3), (4.0, 3))


def _own_ends(m, gap):
    """m times a key's own p = 2 lower end and upper cap, from its
    (lambda2, maximum degree), as the Poincare evaluator takes them."""
    if gap is None or m == 2:
        return 0.0, math.inf
    lam, deg = gap
    h2mod = math.sqrt(2.0 * lam)
    return m * (h2mod / math.sqrt(deg)), m * (math.sqrt(2.0) * h2mod)


def test_bracket_is_monotone_over_the_ratios():
    """Each bracket table lists the floats of _ratios(m), increasing, with
    nondecreasing ends and a final +inf entry, at every exponent: the fact
    that makes the pre-pass and the stops exact."""
    for m in range(2, 23):
        ratios = [a / b for a, b in profiles._ratios(m)]
        assert ratios == sorted(set(ratios))
        for p in _MONOTONE_EXPONENTS + (2, 1e12, 1e300):
            table = profiles._bracket_table(m, p)
            assert table[0].tolist() == ratios + [math.inf]
            for end in table[1:]:
                assert end[-1] == math.inf
                assert end.tolist() == sorted(end.tolist()), (m, p)
                assert not end.flags.writeable


@pytest.mark.parametrize("p,gap", [(p, None) for p in _MONOTONE_EXPONENTS]
                         + [(2, gap) for gap in _GAPS])
def test_bracket_table_equals_reference_bracket(p, gap):
    """At the exponents the verify suites and tests use, each entry is m
    times the reference bracket at its ratio, bit for bit: at p = 2 after
    the max and min with the key's own ends. The running maxima change no
    bit there."""
    for m in range(2, 23):
        h, lower, upper = profiles._bracket_table(m, p)
        own_lo, cap = _own_ends(m, gap)
        for j, (a, b) in enumerate(profiles._ratios(m)):
            lo, up = _hp_bracket((0,) * m, p, a / b, gap)
            assert max(lower[j].item(), own_lo) == m * lo, (m, a, b)
            assert min(upper[j].item(), cap) == m * up, (m, a, b)


def test_ratios_are_every_majored_ratio():
    """_ratios(m) lists the distinct a/b, a <= m, 1 <= b <= m // 2, in
    lowest terms, and holds every majored minimum and pre-pass bound of
    Q4's keys."""
    for m in (2, 3, 8, 22):
        assert [Fraction(a, b) for a, b in profiles._ratios(m)] == sorted(
            {Fraction(a, b) for a in range(m + 1)
             for b in range(1, m // 2 + 1)})
    assert len(profiles._ratios(22)) == 159
    G = build_family("hypercube", 4)
    for m, _, keys in _subgraph_lists(G, 8):
        if m < 2:
            continue
        ratios = {Fraction(a, b) for a, b in profiles._ratios(m)}
        bounds = profiles._majored_bounds(np.array(keys, dtype=np.int64))
        assert {float(r) for r in ratios} >= set(bounds.tolist())
        for key in keys:
            num, size, _ = kernels.cheeger_exhaustive(key, m,
                                                      kernels.MODE_MAJORED)
            assert Fraction(num, size) in ratios


@pytest.mark.parametrize("p,gap", [(p, None) for p in _MONOTONE_EXPONENTS]
                         + [(2, gap) for gap in _GAPS])
def test_largest_within_equals_linear_scan(p, gap):
    """The stop the Poincare evaluator takes, the ratio of the last table
    entry within the rows (none at p = 2 when the key's own lower end is
    above them), is the last one in a linear scan over the table, and the
    last in a linear scan over the reference bracket wherever the evaluator
    searches: where the bracket at some ratio is not within the rows."""
    for m in (2, 3, 7, 12, 22):
        ratios = profiles._ratios(m)
        table = profiles._bracket_table(m, p)
        own_lo, cap = _own_ends(m, gap)
        brackets = [_hp_bracket((0,) * m, p, a / b, gap) for a, b in ratios]
        # Rows at each scaled bracket end, just below and just above it.
        ends = sorted({m * x for bracket in brackets for x in bracket})
        levels = [0.0] + [y for x in ends
                          for y in (x, math.nextafter(x, 0), x * 1.001)]
        for run_lo in levels[::7]:
            for run_up in levels[::3]:
                within = profiles._entries_within(table, run_lo, run_up) \
                    if own_lo <= run_lo else 0
                got = ratios[within - 1] if within else None
                scan = [ratio for ratio, lo, up in zip(ratios, *table[1:])
                        if max(lo, own_lo) <= run_lo and up <= run_up]
                assert got == (scan[-1] if scan else None)
                former = [ratio for ratio, (lo, up) in zip(ratios, brackets)
                          if m * lo <= run_lo and m * up <= run_up]
                if len(former) < len(ratios):
                    assert got == (former[-1] if former else None)


def _reference_majored_bound(key):
    """The least majored ratio over the prefix and suffix sets of key, as a
    loop over the sets: outer boundary plus members adjacent to the rest."""
    m = len(key)
    best = None
    for j in range(1, m // 2 + 1):
        for members in (range(j), range(m - j, m)):
            A = sum(1 << v for v in members)
            reach = rest_reach = 0
            for v in range(m):
                if A >> v & 1:
                    reach |= key[v]
                else:
                    rest_reach |= key[v]
            ratio = Fraction((reach & ~A).bit_count()
                             + (rest_reach & A).bit_count(), j)
            best = ratio if best is None else min(best, ratio)
    return best


def test_majored_bounds_equal_reference_loop():
    """Each bound is the least prefix or suffix ratio, bit for bit, and not
    below the key's majored constant."""
    G = build_family("hypercube", 4)
    for m, _, keys in _subgraph_lists(G, 8):
        if m < 2:
            continue
        got = profiles._majored_bounds(np.array(keys, dtype=np.int64))
        for key, bound in zip(keys, got.tolist()):
            want = _reference_majored_bound(key)
            assert bound == float(want)
            num, size, _ = kernels.cheeger_exhaustive(key, m,
                                                      kernels.MODE_MAJORED)
            assert want >= Fraction(num, size)


def test_rows_do_not_depend_on_the_majored_bounds(monkeypatch):
    """With every pre-pass bound +inf, whose table entry is "no bound", no
    key is dropped, and the rows are those of the reference loops."""
    monkeypatch.setattr(profiles, "_majored_bounds",
                        lambda masks: np.full(len(masks), np.inf))
    G = build_family("grid", 3, 4)
    calls = _kernel_calls(monkeypatch, lambda: poincare_profile(G, 12, 3))
    assert {key for _, key in calls} == {
        key for _, key in _reference_subgraphs(G, 12) if len(key) >= 2}
    assert _pinned_rows_digest() == PINNED_ROWS_SHA256
    assert _pinned_exponent_rows_digest() == PINNED_EXPONENT_ROWS_SHA256
    assert poincare_profile(G, 12, 2).rows == _oracle_poincare(G, 12, 2)


def test_exact_profile_budget():
    with pytest.raises(ExactSearchInfeasible, match="n_max 30 > 22") as err:
        poincare_profile(build_family("path", 30), 30, 1)
    # The message suggests only what exists: a smaller n_max.
    assert "poincare_lower_bounds" not in str(err.value)
    # n_max is clamped to the host first, so a small host is fine
    assert len(poincare_profile(build_family("path", 5), 30, 1).rows) == 5
