"""Graph constructions: distorted lamp graphs, coarsenings, b-separated
rescalings, scale-b partitions, and the bi-Lipschitz cut transfer."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cuts import CutResult, cut, is_cut_set
from .graphs import (Graph, ConnectedPartition, connected_components,
                     distance_matrix, induced_subgraph, is_connected,
                     validate_measure, validate_subset)
from .groups import FiniteGroup

# Largest image graph that bilip_cut_transfer cuts exactly.
EXACT_IMAGE_LIMIT = 24


@dataclass
class LampGraphSpec:
    group: FiniteGroup
    k: int
    r: int

    def __post_init__(self):
        if self.k < 0 or self.r < 0:
            raise ValueError("k and r must be non-negative")


def distorted_lamp_graph(spec: LampGraphSpec) -> Graph:
    """Product of 2r+1 group copies crossed with a cursor interval.

    Vertices are ((x_{-r}, ..., x_r), i) with i in [-(r+k), r+k]. Cursor
    edges join consecutive i; at i = j+k coordinate j is multiplied on the
    right by the non-trivial elements of A, at i = j-k by those of B.
    """
    group, k, r = spec.group, spec.k, spec.r
    width = 2 * r + 1
    span = r + k
    cursors = range(-span, span + 1)
    tuples = list(itertools.product(group.elements(), repeat=width))
    index = {}
    labels = []
    for x in tuples:
        for i in cursors:
            index[(x, i)] = len(labels)
            labels.append((x, i))
    edges = []
    for x in tuples:
        for i in range(-span, span):
            edges.append((index[(x, i)], index[(x, i + 1)]))
    a_gens = [a for a in group.A if a != group.identity]
    b_gens = [b for b in group.B if b != group.identity]
    for x in tuples:
        for j in range(-r, r + 1):
            coord = j + r
            for a in a_gens:
                y = x[:coord] + (group.mul(x[coord], a),) + x[coord + 1:]
                edges.append((index[(x, j + k)], index[(y, j + k)]))
            for b in b_gens:
                y = x[:coord] + (group.mul(x[coord], b),) + x[coord + 1:]
                edges.append((index[(x, j - k)], index[(y, j - k)]))
    return Graph(len(labels), edges, labels=labels)


@dataclass
class CoarseningResult:
    coarse_graph: Graph
    anchoring: tuple
    min_block: int
    max_block: int


def coarsen(G: Graph, partition) -> CoarseningResult:
    """Quotient graph of a connected partition, plus per-block anchoring.

    Blocks are adjacent iff some host edge crosses them; the anchoring of a
    block is the size of its internal boundary in the host.
    """
    if not isinstance(partition, ConnectedPartition):
        partition = ConnectedPartition(G, partition)
    block_of = partition.block_of
    edges = set()
    for u, v in G.edges:
        if block_of[u] != block_of[v]:
            edges.add((min(block_of[u], block_of[v]),
                       max(block_of[u], block_of[v])))
    coarse = Graph(len(partition.blocks), edges,
                   labels=[tuple(sorted(b)) for b in partition.blocks])
    anchoring = tuple(
        sum(1 for x in block if any(block_of[y] != i for y in G.neighbors[x]))
        for i, block in enumerate(partition.blocks))
    sizes = [len(b) for b in partition.blocks]
    return CoarseningResult(coarse_graph=coarse, anchoring=anchoring,
                            min_block=min(sizes), max_block=max(sizes))


def maximal_b_separated(G: Graph, b: int) -> frozenset:
    """Greedy maximal b-separated set: scan vertices in order, keep those at
    distance >= b from everything already kept."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if not is_connected(G):
        raise ValueError("host graph must be connected")
    dist = distance_matrix(G)
    chosen: list[int] = []
    for v in range(G.vertex_count):
        if (dist[v, chosen] >= b).all():
            chosen.append(v)
    return frozenset(chosen)


def _close_pairs(dist, S: list, bound) -> list:
    """Row-major index pairs i < j with dist[S[i], S[j]] < bound."""
    i, j = np.nonzero(np.triu(dist[np.ix_(S, S)] < bound, 1))
    return list(zip(i.tolist(), j.tolist()))


def _check_separated(dist, S: list, b) -> None:
    """Raise ValueError on the first pair of sorted S closer than b."""
    close = _close_pairs(dist, S, b)
    if close:
        u, v = (S[i] for i in close[0])
        raise ValueError(
            f"set is not {b}-separated: d({u},{v}) = {int(dist[u, v])}")


def b_rescaling(G: Graph, S, b: int) -> Graph:
    """Graph on a b-separated set with edges at host distance < 2b."""
    S = sorted(validate_subset(G, S))
    dist = distance_matrix(G)
    _check_separated(dist, S, b)
    return Graph(len(S), _close_pairs(dist, S, 2 * b), labels=S)


@dataclass
class DiscretizationResult:
    centers: tuple
    block_of: tuple
    blocks: tuple
    nu_Y: tuple
    inner_radius: tuple
    outer_radius: tuple
    b_inclusion_ok: tuple


def scale_b_partition(G: Graph, S, b: int, nu=None) -> DiscretizationResult:
    """Voronoi partition around a maximal b-separated set.

    Ties go to the smallest center. Per block we report the largest inner
    radius rho with B(center, rho) inside the block and the smallest outer
    radius covering it; maximality of S forces outer <= 2b, but the inner
    radius can fall below b when two centers sit at distance exactly b, so
    the b-inclusion is reported per block rather than asserted. The host
    must be connected; nu, one weight per vertex (default 1), gives the
    block measures nu_Y.
    """
    centers = sorted(validate_subset(G, S))
    if not centers:
        raise ValueError("empty center set")
    if not is_connected(G):
        raise ValueError("host graph must be connected")
    n = G.vertex_count
    nu = validate_measure(nu, n)
    dist = distance_matrix(G)
    _check_separated(dist, centers, b)
    rows = dist[centers]
    block_of = rows.argmin(axis=0)
    mine = block_of == np.arange(len(centers))[:, None]
    blocks = tuple(frozenset(np.flatnonzero(m).tolist()) for m in mine)
    nu_Y = tuple(float(sum(nu[v] for v in block)) for block in blocks)
    # A lone center's block is everything: its inner radius is rows.max().
    inner = rows.min(axis=1, where=~mine, initial=rows.max() + 1) - 1
    outer = rows.max(axis=1, where=mine, initial=0)
    return DiscretizationResult(
        centers=tuple(centers), block_of=tuple(block_of.tolist()),
        blocks=blocks, nu_Y=nu_Y,
        inner_radius=tuple(inner.astype(int).tolist()),
        outer_radius=tuple(outer.astype(int).tolist()),
        b_inclusion_ok=tuple((inner >= b).tolist()))


def _bfs_parents(X: Graph, source: int) -> list:
    """BFS tree from source as a parent list, the source its own parent.
    Every vertex keeps the parent that discovered it first (deterministic
    geodesics)."""
    parent = [-1] * X.vertex_count
    parent[source] = source
    queue = [source]
    for u in queue:
        for v in X.neighbors[u]:
            if parent[v] == -1:
                parent[v] = u
                queue.append(v)
    return parent


def bilip_cut_transfer(Gamma: Graph, X: Graph, f,
                       kappa: int, s) -> tuple[CutResult, dict]:
    """Transfer an s-cut of the image graph back through a Lipschitz map.

    f must map V(Gamma) into V(X) with d_X(f(x), f(y)) <= kappa on edges;
    both are checked. The image graph consists of all image vertices plus,
    per edge xy, the interior of the geodesic from f(x) to f(y) in the BFS
    tree of f(x) that keeps first-discovered parents. Its s-cut C' (exact
    up to EXACT_IMAGE_LIMIT vertices, heuristic above) pulls back to
    C = {x : d_X(f(x), C') <= kappa}, returned with the level it actually
    achieves on Gamma, plus an audit report.
    """
    s = Fraction(s)
    if not is_connected(X):
        raise ValueError("X must be connected")
    f = list(f)
    if len(f) != Gamma.vertex_count:
        raise ValueError("f must map every vertex of Gamma")
    validate_subset(X, f)
    dist_x = distance_matrix(X)
    trees = {}
    chosen: set[int] = set(f)
    for x, y in Gamma.edges:
        src, dst = f[x], f[y]
        if dist_x[src, dst] > kappa:
            raise ValueError(
                f"Lipschitz violation on edge ({x},{y}): "
                f"d_X(f({x}),f({y})) = {int(dist_x[src, dst])} > {kappa}")
        if src not in trees:
            trees[src] = _bfs_parents(X, src)
        v = trees[src][dst]
        while v != src:
            chosen.add(v)
            v = trees[src][v]
    members = sorted(chosen)
    image = induced_subgraph(X, members)
    inner = cut(image, s, "exact" if image.vertex_count <= EXACT_IMAGE_LIMIT
                else "heuristic")
    cut_orig = {members[v] for v in inner.cut_set}
    # near[x, c]: c lies in the radius-kappa ball about f(x) in X.
    near = dist_x[f] <= kappa
    C = frozenset(np.flatnonzero(near[:, list(cut_orig)].any(axis=1))
                  .tolist())
    n = Gamma.vertex_count
    comps = connected_components(Gamma, C)
    achieved = Fraction(max(map(len, comps), default=0), n)
    level = max(achieved, Fraction(1, n))
    if not is_cut_set(Gamma, C, level):
        raise AssertionError("transfer produced an invalid cut")
    # Audit constant: preimage counts over radius-kappa balls in X.
    ball_preimage = int(near.sum(axis=0).max(initial=0))
    report = {
        "image_vertices": image.vertex_count,
        "inner_cut_size": inner.size,
        "inner_exact": inner.exact,
        "pullback_size": len(C),
        "achieved_level": achieved,
        "ball_preimage_max": ball_preimage,
        "size_bound_ok": len(C) <= ball_preimage * inner.size,
    }
    result = CutResult(epsilon=level, cut_set=C, size=len(C), exact=False)
    return result, report
