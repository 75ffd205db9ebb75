import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepprof.graphs import (ConnectedPartition, Graph, bfs_distances, boundary,
                            build_family, cartesian_power,
                            connected_components, distance_matrix,
                            induced_subgraph, read_edgelist, subdivide,
                            write_edgelist)


def to_nx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.vertex_count))
    H.add_edges_from(G.edges)
    return H


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 12))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1]),
        max_size=n * 3))
    return Graph(n, edges)


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_path_and_hypercube_counts():
    k2 = build_family("path", 2)
    assert (k2.vertex_count, k2.edge_count) == (2, 1)
    q3 = build_family("hypercube", 3)
    assert q3.vertex_count == 8 and q3.edge_count == 12
    assert all(q3.degree(v) == 3 for v in range(8))


def test_grid_edge_count():
    g = build_family("grid", 4, 4)
    assert g.vertex_count == 16
    assert g.edge_count == 2 * 4 * 3


def test_build_family_rejects_zero():
    with pytest.raises(ValueError):
        build_family("path", 0)


def test_cartesian_power_k2():
    sq = cartesian_power(build_family("complete", 2), 2)
    # K2^2 is the 4-cycle
    assert sq.vertex_count == 4 and sq.edge_count == 4
    assert all(sq.degree(v) == 2 for v in range(4))
    cube = cartesian_power(build_family("complete", 2), 3)
    q3 = build_family("hypercube", 3)
    assert cube.edge_count == q3.edge_count == 12
    # A labelled base pins the vertex numbering and the label tuples.
    bar = cartesian_power(build_family("grid", 1, 2), 2)
    assert bar.labels == (((0, 0), (0, 0)), ((0, 0), (0, 1)),
                          ((0, 1), (0, 0)), ((0, 1), (0, 1)))
    assert bar.edges == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_cartesian_power_c3_by_enumeration():
    c3 = build_family("cycle", 3)
    g = cartesian_power(c3, 2)
    assert g.vertex_count == 9
    assert all(g.degree(v) == 4 for v in range(9))
    # independent oracle: count pairs differing in exactly one adjacent slot
    labels = g.labels
    count = 0
    for i in range(9):
        for j in range(i + 1, 9):
            diff = [(a, b) for a, b in zip(labels[i], labels[j]) if a != b]
            if len(diff) == 1:
                count += 1  # all distinct pairs in C3 are adjacent
    assert g.edge_count == count == 18


@given(random_graphs(), st.integers(1, 3))
def test_cartesian_power_counts(G, k):
    gk = cartesian_power(G, k)
    n = G.vertex_count
    assert gk.vertex_count == n ** k
    assert gk.edge_count == k * n ** (k - 1) * G.edge_count
    tuples = list(itertools.product(range(n), repeat=k))
    assert gk.labels == tuple(tuples)
    index = {x: i for i, x in enumerate(tuples)}
    expected = {
        tuple(sorted((index[x], index[x[:c] + (v,) + x[c + 1:]])))
        for x in tuples for c in range(k) for v in G.neighbors[x[c]]}
    assert set(gk.edges) == expected


def test_subdivide_examples():
    p = subdivide(build_family("complete", 2), 3)
    assert p.vertex_count == 5 and p.edge_count == 4
    k4 = subdivide(build_family("complete", 4), 1)
    assert k4.vertex_count == 4 + 6


def test_subdivide_scales_distances():
    k4 = build_family("complete", 4)
    for kappa in (1, 2, 3):
        sub = subdivide(k4, kappa)
        dist = bfs_distances(sub, 0)
        for v in range(1, 4):
            assert dist[v] == kappa + 1


def test_boundary_modes_on_c8():
    c8 = build_family("cycle", 8)
    arc = {0, 1, 2, 3}
    assert boundary(c8, arc, "external") == {4, 7}
    assert boundary(c8, arc, "internal") == {0, 3}
    assert boundary(c8, arc, "majored") == {0, 3, 4, 7}
    assert boundary(c8, arc, "edge") == {(3, 4), (0, 7)}
    assert boundary(c8, range(8), "external") == frozenset()


@given(random_graphs())
def test_boundary_mode_relations(G):
    import random

    rng = random.Random(0)
    A = {v for v in range(G.vertex_count) if rng.random() < 0.4}
    if not A:
        A = {0}
    ext = boundary(G, A, "external")
    internal = boundary(G, A, "internal")
    assert ext.isdisjoint(A)
    assert internal <= frozenset(A)
    assert boundary(G, A, "majored") == ext | internal


def test_induced_subgraph_and_components():
    p5 = build_family("path", 5)
    no_middle = induced_subgraph(p5, [0, 1, 3, 4])
    comps = connected_components(no_middle)
    assert sorted(len(c) for c in comps) == [2, 2]
    arc = induced_subgraph(build_family("cycle", 8), [0, 1, 2, 3])
    assert arc.vertex_count == 4 and arc.edge_count == 3


def test_bfs_hamming_on_hypercube():
    q3 = build_family("hypercube", 3)
    dist = bfs_distances(q3, 0)
    for v in range(8):
        assert dist[v] == bin(v).count("1")


@given(random_graphs(), st.data())
def test_bfs_and_components_match_networkx(G, data):
    H = to_nx(G)
    dist = bfs_distances(G, 0)
    lengths = nx.single_source_shortest_path_length(H, 0)
    for v in range(G.vertex_count):
        if v in lengths:
            assert dist[v] == lengths[v]
        else:
            assert dist[v] == math.inf
    ours = sorted(sorted(c) for c in connected_components(G))
    theirs = sorted(sorted(c) for c in nx.connected_components(H))
    assert ours == theirs
    removed = data.draw(st.sets(st.integers(0, G.vertex_count - 1)))
    rest = H.subgraph(set(H) - removed)
    theirs = sorted(map(frozenset, nx.connected_components(rest)), key=min)
    assert connected_components(G, removed) == theirs


def test_distance_matrix_is_one_float_array():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    dist = distance_matrix(g)
    assert isinstance(dist, np.ndarray)
    assert dist.shape == (5, 5) and dist.dtype == np.float64
    assert dist.tolist() == [bfs_distances(g, v) for v in range(5)]
    assert dist[0, 2] == 2.0 and dist[3, 4] == 1.0
    assert np.isinf(dist[:3, 3:]).all() and np.isinf(dist[3:, :3]).all()
    assert distance_matrix(Graph(0, [])).shape == (0, 0)


def test_connected_partition_validation():
    g = build_family("grid", 2, 2)
    with pytest.raises(ValueError, match="not connected"):
        ConnectedPartition(g, [[0, 3], [1, 2]])
    with pytest.raises(ValueError, match="cover"):
        ConnectedPartition(g, [[0, 1]])
    part = ConnectedPartition(g, [[0, 1], [2, 3]])
    assert part.block_of == (0, 0, 1, 1)


def test_edgelist_roundtrip(tmp_path):
    g = build_family("grid", 3, 3)
    path = tmp_path / "g.txt"
    write_edgelist(g, path)
    h = read_edgelist(path)
    assert h.vertex_count == g.vertex_count and h.edges == g.edges
    # writer output is sorted, so a second round trip is byte-identical
    path2 = tmp_path / "h.txt"
    write_edgelist(h, path2)
    assert path.read_text() == path2.read_text()
