from fractions import Fraction

import pytest

from sepprof.constructions import (LampGraphSpec, b_rescaling,
                                   bilip_cut_transfer, coarsen,
                                   distorted_lamp_graph, maximal_b_separated,
                                   scale_b_partition)
from sepprof.cuts import cut, is_cut_set
from sepprof.graphs import (bfs_distances, build_family, connected_components,
                            subdivide)
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


def test_partition_csv_roundtrip(tmp_path):
    from sepprof.constructions import read_partition_csv, write_partition_csv
    from sepprof.graphs import ConnectedPartition

    g = build_family("grid", 4, 4)
    part = ConnectedPartition(
        g, [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]])
    path = tmp_path / "part.csv"
    write_partition_csv(part, path)
    back = read_partition_csv(g, path)
    assert back.block_of == part.block_of
