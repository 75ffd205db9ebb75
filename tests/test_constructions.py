import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sepprof.constructions import (EXACT_IMAGE_LIMIT, DiscretizationResult,
                                   LampGraphSpec, b_rescaling,
                                   bilip_cut_transfer, coarsen,
                                   distorted_lamp_graph, maximal_b_separated,
                                   scale_b_partition)
from sepprof.cuts import cut, is_cut_set
from sepprof.graphs import (Graph, bfs_distances, build_family,
                            connected_components, induced_subgraph,
                            is_connected, subdivide)
from sepprof.groups import cayley_graph, klein_four


def lamp_index(g):
    return {g.label(v): v for v in range(g.vertex_count)}


def test_lamp_graph_counts_and_degrees():
    g = distorted_lamp_graph(LampGraphSpec(klein_four(), 2, 0))
    assert g.vertex_count == 20
    idx = lamp_index(g)
    assert g.degree(idx[((1,), -2)]) == 2   # one B-edge plus one cursor edge
    assert g.degree(idx[((1,), 2)]) == 2    # one A-edge plus one cursor edge
    assert g.degree(idx[((1,), 0)]) == 2    # body: cursor edges only
    # vertex count closed form for r = 1
    g1 = distorted_lamp_graph(LampGraphSpec(klein_four(), 3, 1))
    assert g1.vertex_count == (2 * 3 + 2 * 1 + 1) * 4 ** 3


def test_lamp_graph_connected_iff_generated():
    g = distorted_lamp_graph(LampGraphSpec(klein_four(), 1, 0))
    assert len(connected_components(g)) == 1


def test_lamp_homothety_measured_factor():
    # uniform factor 2k+1: each group edge costs 2k cursor steps plus the
    # product edge, so the often-quoted factor 2k undercounts by one
    group = klein_four()
    cay = cayley_graph(group)
    for k in (1, 2, 3):
        lamp = distorted_lamp_graph(LampGraphSpec(group, k, 0))
        idx = lamp_index(lamp)
        for x in range(4):
            dl = bfs_distances(lamp, idx[((x,), 0)])
            dc = bfs_distances(cay, x)
            for y in range(4):
                assert dl[idx[((y,), 0)]] == (2 * k + 1) * dc[y]


@pytest.mark.xfail(strict=True, reason="stated homothety constant 2k does "
                   "not hold for the defined graph; measured factor is 2k+1")
def test_lamp_homothety_stated_2k():
    group = klein_four()
    cay = cayley_graph(group)
    lamp = distorted_lamp_graph(LampGraphSpec(group, 2, 0))
    idx = lamp_index(lamp)
    dl = bfs_distances(lamp, idx[((0,), 0)])
    dc = bfs_distances(cay, 0)
    assert all(dl[idx[((y,), 0)]] == 4 * dc[y] for y in range(1, 4))


def test_lamp_cut_dominates_base_cut():
    group = klein_four()
    lamp = distorted_lamp_graph(LampGraphSpec(group, 2, 0))
    assert cut(lamp, "1/2").size >= cut(cayley_graph(group), "1/2").size


def test_coarsen_grid_to_c4():
    g = build_family("grid", 4, 4)
    blocks = [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]
    result = coarsen(g, blocks)
    q = result.coarse_graph
    assert q.vertex_count == 4 and q.edge_count == 4
    assert all(q.degree(v) == 2 for v in range(4))
    assert result.anchoring == (3, 3, 3, 3)
    assert (result.min_block, result.max_block) == (4, 4)


def test_coarsen_trivial_partition():
    g = build_family("grid", 3, 3)
    result = coarsen(g, [[v] for v in range(9)])
    assert result.coarse_graph.edge_count == g.edge_count
    assert result.anchoring == tuple(1 if g.degree(v) else 0 for v in range(9))


def test_coarsen_rejects_disconnected_block():
    g = build_family("grid", 2, 2)
    with pytest.raises(ValueError, match="block 0"):
        coarsen(g, [[0, 3], [1, 2]])


def test_maximal_b_separated_trace():
    p13 = build_family("path", 13)
    assert maximal_b_separated(p13, 3) == {0, 3, 6, 9, 12}
    assert maximal_b_separated(p13, 1) == frozenset(range(13))


def test_b_separated_maximality():
    g = build_family("grid", 4, 5)
    for b in (2, 3):
        S = maximal_b_separated(g, b)
        dist = [bfs_distances(g, s) for s in S]
        for v in range(g.vertex_count):
            assert any(row[v] < b for row in dist)


def test_b_rescaling_path():
    p13 = build_family("path", 13)
    resc = b_rescaling(p13, {0, 3, 6, 9, 12}, 3)
    assert resc.vertex_count == 5 and resc.edge_count == 4
    degs = sorted(resc.degree(v) for v in range(5))
    assert degs == [1, 1, 2, 2, 2]


def test_b_rescaling_identity_at_b1():
    g = build_family("cycle", 6)
    resc = b_rescaling(g, range(6), 1)
    assert resc.edges == g.edges


def test_b_rescaling_rejects_crowded_set():
    with pytest.raises(ValueError, match="separated"):
        b_rescaling(build_family("path", 5), {0, 1}, 2)


def test_subdivided_rescaling_recovers_base():
    k4 = build_family("complete", 4)
    for kappa in (2, 3):
        sub = subdivide(k4, kappa)
        resc = b_rescaling(sub, range(4), kappa)
        assert resc.vertex_count == 4 and resc.edge_count == 6


def test_scale_b_partition_voronoi():
    p13 = build_family("path", 13)
    S = maximal_b_separated(p13, 3)
    disc = scale_b_partition(p13, S, 3)
    assert [len(b) for b in disc.blocks] == [2, 3, 3, 3, 2]
    assert disc.nu_Y == (2.0, 3.0, 3.0, 3.0, 2.0)
    assert all(r <= 2 * 3 for r in disc.outer_radius)
    # inner radius below b is possible and must be reported, not asserted
    assert len(disc.b_inclusion_ok) == 5
    assert disc.block_of[1] == 0 and disc.block_of[2] == 1  # tie to center 3? no: d(2,0)=2 > d(2,3)=1


def test_scale_b_partition_rejects_disconnected_host():
    with pytest.raises(ValueError, match="connected"):
        scale_b_partition(Graph(3, [(0, 1)]), {0}, 1)


def test_scale_b_partition_rejects_nu_of_wrong_length():
    with pytest.raises(ValueError, match="one entry per vertex"):
        scale_b_partition(build_family("path", 4), {0}, 2, nu=[1.0, 1.0])


@pytest.mark.parametrize("nu", [
    [1, -3, 1, 1, math.nan], [1, 1, 1, 1, math.nan], [1, 1, math.inf, 1, 1],
    [0, 1, 1, 1, 1]])
def test_scale_b_partition_rejects_non_finite_or_non_positive_nu(nu):
    with pytest.raises(ValueError, match="finite and positive"):
        scale_b_partition(build_family("path", 5), {0, 4}, 2, nu=nu)


# The pair loops below compute what the constructions compute, from the
# distance rows of bfs_distances; the tests compare the two on seeded random
# graphs, numpy-free types included.


def host_distances(G):
    return [bfs_distances(G, v) for v in range(G.vertex_count)]


def assert_plain(value):
    """No numpy scalar anywhere inside value."""
    assert not isinstance(value, np.generic), repr(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list, frozenset, set)):
        for item in value:
            assert_plain(item)


def greedy_separated(dist, order, b):
    chosen = []
    for v in order:
        if all(dist[v][y] >= b for y in chosen):
            chosen.append(v)
    return chosen


def pair_loop_rescaling_edges(dist, S, b):
    return [(i, j) for i, u in enumerate(S) for j, v in enumerate(S)
            if i < j and dist[u][v] < 2 * b]


def pair_loop_separation_error(dist, S, b):
    for i, u in enumerate(S):
        for v in S[i + 1:]:
            if dist[u][v] < b:
                return f"set is not {b}-separated: d({u},{v}) = {dist[u][v]}"
    return None


def pair_loop_partition(G, centers, b, nu):
    dist = host_distances(G)
    n = G.vertex_count
    block_of = [
        min(range(len(centers)), key=lambda i: (dist[centers[i]][v], i))
        for v in range(n)]
    blocks = tuple(frozenset(v for v in range(n) if block_of[v] == i)
                   for i in range(len(centers)))
    inner, outer = [], []
    for i, y in enumerate(centers):
        outside = [dist[y][v] for v in range(n) if v not in blocks[i]]
        inner.append(min(outside) - 1 if outside else max(dist[y]))
        outer.append(max(dist[y][v] for v in blocks[i]))
    return DiscretizationResult(
        centers=tuple(centers), block_of=tuple(block_of), blocks=blocks,
        nu_Y=tuple(float(sum(nu[v] for v in block)) for block in blocks),
        inner_radius=tuple(inner), outer_radius=tuple(outer),
        b_inclusion_ok=tuple(r >= b for r in inner))


def test_b_rescaling_and_separation_error_match_pair_loops(seeded_graphs):
    rng = random.Random(19)
    errors = 0
    for G in seeded_graphs:
        dist = host_distances(G)
        order = list(range(G.vertex_count))
        for b in (1, 2, 3):
            rng.shuffle(order)
            S = sorted(greedy_separated(dist, order, b))
            resc = b_rescaling(G, S, b)
            assert resc.edges == tuple(pair_loop_rescaling_edges(dist, S, b))
            assert resc.labels == tuple(S)
            assert_plain((resc.edges, resc.neighbors, resc.labels))
            crowded = sorted(rng.sample(order, rng.randint(2, len(order))))
            expected = pair_loop_separation_error(dist, crowded, b)
            if expected is None:
                continue
            errors += 1
            with pytest.raises(ValueError) as info:
                b_rescaling(G, crowded, b)
            assert str(info.value) == expected
    assert errors > 50


def test_scale_b_partition_matches_pair_loop(seeded_graphs):
    rng = random.Random(19)
    cases = [(build_family("path", 5), [0, 4], 2),  # 2 is equidistant
             (build_family("cycle", 8), [0, 4], 4),  # 2 and 6 equidistant
             (build_family("grid", 3, 3), [4], 2)]   # one block: everything
    for G in seeded_graphs:
        if not is_connected(G):
            continue
        dist = host_distances(G)
        for b in (1, 2, 3):
            order = rng.sample(range(G.vertex_count), G.vertex_count)
            cases.append((G, sorted(greedy_separated(dist, order, b)), b))
    for G, centers, b in cases:
        nu = [rng.uniform(0.1, 3.0) for _ in range(G.vertex_count)]
        disc = scale_b_partition(G, centers, b, nu=nu)
        assert repr(disc) == repr(pair_loop_partition(G, centers, b, nu))
        assert_plain(vars(disc))
    tie = scale_b_partition(*cases[0][:2], 2)
    assert tie.block_of == (0, 0, 0, 1, 1)
    whole = scale_b_partition(*cases[2][:2], 2)
    assert whole.blocks == (frozenset(range(9)),)
    assert whole.inner_radius == whole.outer_radius == (2,)


def bfs_parents(X, source):
    parent = [-1] * X.vertex_count
    dist = [-1] * X.vertex_count
    dist[source] = 0
    queue = [source]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in X.neighbors[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return parent


def pair_loop_transfer(Gamma, X, f, kappa, s):
    """bilip_cut_transfer's cut set and report, with one BFS tree per edge
    and the pullback and audit as loops over vertex pairs."""
    chosen = set(f)
    for x, y in Gamma.edges:
        parent = bfs_parents(X, f[x])
        v = f[y]
        while parent[v] != -1:
            v = parent[v]
            if v != f[x]:
                chosen.add(v)
    image = induced_subgraph(X, chosen)
    inner = cut(image, s, "exact" if image.vertex_count <= EXACT_IMAGE_LIMIT
                else "heuristic")
    cut_orig = {image.original_vertices[v] for v in inner.cut_set}
    dist_x = host_distances(X)
    n = Gamma.vertex_count
    C = frozenset(x for x in range(n)
                  if any(dist_x[f[x]][c] <= kappa for c in cut_orig))
    achieved = Fraction(max(map(len, connected_components(Gamma, C)),
                            default=0), n)
    ball_preimage = max(
        (sum(1 for x in range(n) if dist_x[f[x]][center] <= kappa)
         for center in range(X.vertex_count)), default=0)
    return C, {
        "image_vertices": image.vertex_count,
        "inner_cut_size": inner.size,
        "inner_exact": inner.exact,
        "pullback_size": len(C),
        "achieved_level": achieved,
        "ball_preimage_max": ball_preimage,
        "size_bound_ok": len(C) <= ball_preimage * inner.size,
    }


def test_bilip_transfer_matches_pair_loop(seeded_graphs):
    rng = random.Random(19)
    hosts = [G for G in seeded_graphs if is_connected(G)]
    for Gamma in hosts[:15]:
        X = rng.choice(hosts)
        f = [rng.randrange(X.vertex_count) for _ in range(Gamma.vertex_count)]
        dist_x = host_distances(X)
        kappa = max([int(dist_x[f[x]][f[y]]) for x, y in Gamma.edges] + [1])
        result, report = bilip_cut_transfer(Gamma, X, f, kappa, "1/2")
        C, expected = pair_loop_transfer(Gamma, X, f, kappa, Fraction(1, 2))
        assert result.cut_set == C and report == expected
        assert_plain((result.cut_set, result.size, report))


def test_bilip_transfer_subdivision_setting():
    k4 = build_family("complete", 4)
    sub = subdivide(k4, 2)
    result, report = bilip_cut_transfer(k4, sub, [0, 1, 2, 3], 3, Fraction(1, 2))
    assert is_cut_set(k4, result.cut_set, result.epsilon)
    assert report["size_bound_ok"]
    assert report["inner_cut_size"] > 0


def test_bilip_transfer_identity_map():
    g = build_family("cycle", 8)
    result, report = bilip_cut_transfer(g, g, list(range(8)), 1,
                                        Fraction(1, 2))
    inner_in_host = result.cut_set
    assert is_cut_set(g, result.cut_set, result.epsilon)
    assert report["pullback_size"] >= report["inner_cut_size"]
    assert len(inner_in_host) == result.size


def test_bilip_transfer_reports_lipschitz_violation():
    k4 = build_family("complete", 4)
    sub = subdivide(k4, 2)
    with pytest.raises(ValueError, match="Lipschitz violation"):
        bilip_cut_transfer(k4, sub, [0, 1, 2, 3], 1, Fraction(1, 2))


def test_bilip_transfer_rejects_f_outside_x():
    k4 = build_family("complete", 4)
    c8 = build_family("cycle", 8)
    with pytest.raises(ValueError, match="not in host graph"):
        bilip_cut_transfer(k4, c8, [0, 1, 2, 9], 4, Fraction(1, 2))
    with pytest.raises(ValueError, match="not in host graph"):
        bilip_cut_transfer(k4, c8, [0, 1, 2, -1], 4, Fraction(1, 2))


def test_lamp_graph_edge_closed_form():
    # cursor edges |G|^(2r+1) (2k+2r), product edges (2r+1) |G|^(2r) m_A/B
    # where m_A is the edge count of the one-coordinate A-action
    group = klein_four()
    for k, r in ((2, 0), (3, 1), (1, 0)):
        g = distorted_lamp_graph(LampGraphSpec(group, k, r))
        order = group.order
        width = 2 * r + 1
        cursor_edges = order ** width * (2 * k + 2 * r)
        per_coord = order * 1 // 2  # |A \ {e}| = 1, involutive
        product_edges = 2 * width * order ** (width - 1) * per_coord
        assert g.edge_count == cursor_edges + product_edges
