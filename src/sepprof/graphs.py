"""Finite simple undirected graphs and the elementary constructions on them.

Vertices are 0..n-1. Graphs are immutable after construction; optional labels
carry construction provenance (product tuples, group elements, subdivision
points) so that derived objects can be decoded later.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np


class Graph:
    """Immutable simple graph: no self-loops, no duplicate edges."""

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[Sequence] = None):
        n = int(vertex_count)
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            seen.add((min(u, v), max(u, v)))
        self.vertex_count = n
        self.edges = tuple(sorted(seen))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length must equal vertex_count")
        self.labels = labels
        nbrs = [[] for _ in range(n)]
        masks = [0] * n
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        # Bitmask adjacency, used by the enumeration kernels.
        self.neighbor_masks = tuple(masks)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.neighbors), default=0)

    def label(self, v: int):
        return self.labels[v] if self.labels is not None else v

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


class ConnectedPartition:
    """Partition of the vertices of ``host`` with connected blocks."""

    def __init__(self, host: Graph, blocks: Iterable[Iterable[int]]):
        blocks = tuple(frozenset(b) for b in blocks)
        n = host.vertex_count
        assign = [-1] * n
        for i, block in enumerate(blocks):
            if not block:
                raise ValueError(f"block {i} is empty")
            for v in block:
                if not (0 <= v < n):
                    raise ValueError(f"vertex {v} out of range")
                if assign[v] != -1:
                    raise ValueError(f"vertex {v} in two blocks")
                assign[v] = i
        if any(a == -1 for a in assign):
            missing = [v for v in range(n) if assign[v] == -1]
            raise ValueError(f"partition does not cover vertices {missing}")
        for i, block in enumerate(blocks):
            outside = [v for v in range(n) if assign[v] != i]
            if len(connected_components(host, outside)) != 1:
                raise ValueError(f"block {i} is not connected")
        self.host = host
        self.blocks = blocks
        self.block_of = tuple(assign)

    def __len__(self):
        return len(self.blocks)


def validate_subset(G: Graph, A: Iterable[int]) -> frozenset:
    A = frozenset(A)
    for v in A:
        if not (0 <= v < G.vertex_count):
            raise ValueError(f"vertex {v} not in host graph")
    return A


def build_family(kind: str, *params: int) -> Graph:
    """Construct one of the named graph families.

    kind: path, cycle, complete, hypercube, or grid. ``params`` are the size
    parameters (two for grid, one otherwise), all required to be >= 1.
    """
    if any(p < 1 for p in params):
        raise ValueError("size parameters must be >= 1")
    if kind == "path":
        (n,) = params
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        (n,) = params
        if n < 3:
            raise ValueError("cycle needs >= 3 vertices")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        (n,) = params
        return Graph(n, itertools.combinations(range(n), 2))
    if kind == "hypercube":
        (k,) = params
        n = 1 << k
        edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(k) if x < x ^ (1 << b)]
        labels = [tuple((x >> b) & 1 for b in range(k)) for x in range(n)]
        return Graph(n, edges, labels=labels)
    if kind == "grid":
        rows, cols = params
        def vid(r, c):
            return r * cols + c
        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((vid(r, c), vid(r, c + 1)))
                if r + 1 < rows:
                    edges.append((vid(r, c), vid(r + 1, c)))
        labels = [(r, c) for r in range(rows) for c in range(cols)]
        return Graph(rows * cols, edges, labels=labels)
    raise ValueError(f"unknown family kind {kind!r}")


def cartesian_power(G: Graph, k: int) -> Graph:
    """k-fold Cartesian product of G with itself.

    Vertex i is the i-th tuple of ``itertools.product(range(n), repeat=k)``
    (lexicographic, last coordinate fastest) and is labelled by the tuple of
    its coordinates' labels in G. Edges join the tuples that differ in one
    coordinate, along an edge of G.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = G.vertex_count
    tuples = list(itertools.product(range(n), repeat=k))
    strides = [n ** (k - 1 - c) for c in range(k)]
    edges = [(i, i + (v - x[c]) * strides[c])
             for i, x in enumerate(tuples) for c in range(k)
             for v in G.neighbors[x[c]] if v > x[c]]
    labels = [tuple(G.label(v) for v in x) for x in tuples]
    return Graph(n ** k, edges, labels=labels)


def subdivide(G: Graph, kappa: int) -> Graph:
    """Replace every edge by a path with ``kappa`` internal vertices.

    Original vertices keep their ids and labels; internal vertices are
    labelled ("sub", u, v, j) for position j along the original edge {u,v}.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if kappa == 0:
        return G
    n = G.vertex_count
    labels = [G.label(v) for v in range(n)]
    edges = []
    nxt = n
    for u, v in G.edges:
        chain = [u]
        for j in range(kappa):
            labels.append(("sub", u, v, j))
            chain.append(nxt)
            nxt += 1
        chain.append(v)
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, edges, labels=labels)


def boundary(G: Graph, A: Iterable[int], mode: str = "external"):
    """Boundary of a vertex set in one of four senses.

    external: vertices outside A adjacent to A; internal: vertices of A
    adjacent to the complement; majored: union of both; edge: the set of
    crossing edges (as (u, v) pairs with u < v).
    """
    A = validate_subset(G, A)
    if mode == "edge":
        return frozenset(
            (min(u, v), max(u, v))
            for u in A for v in G.neighbors[u] if v not in A
        )
    ext = frozenset(v for u in A for v in G.neighbors[u] if v not in A)
    if mode == "external":
        return ext
    internal = frozenset(u for u in A if any(v not in A for v in G.neighbors[u]))
    if mode == "internal":
        return internal
    if mode == "majored":
        return ext | internal
    raise ValueError(f"unknown boundary mode {mode!r}")


def induced_subgraph(G: Graph, S: Iterable[int]) -> Graph:
    """Induced subgraph on S; vertex i of the result is sorted(S)[i].

    Labels record the original vertices, so witnesses can be mapped back.
    """
    S = sorted(validate_subset(G, S))
    index = {v: i for i, v in enumerate(S)}
    edges = [
        (index[u], index[v])
        for u, v in G.edges if u in index and v in index
    ]
    labels = [G.label(v) for v in S]
    sub = Graph(len(S), edges, labels=labels)
    sub.original_vertices = tuple(S)
    return sub


def connected_components(G: Graph,
                         removed: Iterable[int] = ()) -> list[frozenset]:
    """Connected components of G minus ``removed``, as sets of G's vertices
    ordered by smallest member; ``removed`` must name vertices of G."""
    seen = [False] * G.vertex_count
    for v in validate_subset(G, removed):
        seen[v] = True
    comps = []
    for root in range(G.vertex_count):
        if seen[root]:
            continue
        comp = []
        queue = deque([root])
        seen[root] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in G.neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(frozenset(comp))
    return comps


def is_connected(G: Graph) -> bool:
    return G.vertex_count <= 1 or len(connected_components(G)) == 1


def bfs_distances(G: Graph, source: int) -> list[float]:
    """Shortest-path distances from source; unreachable vertices get inf."""
    if not (0 <= source < G.vertex_count):
        raise ValueError("source out of range")
    dist: list[float] = [math.inf] * G.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in G.neighbors[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def distance_matrix(G: Graph) -> np.ndarray:
    """All shortest-path distances as one (n, n) float array: row v is
    ``bfs_distances(G, v)``, and vertices in different components are at
    distance inf."""
    n = G.vertex_count
    return np.array([bfs_distances(G, v) for v in range(n)],
                    dtype=float).reshape(n, n)


def write_edgelist(G: Graph, path) -> None:
    """Edge-list text format: "n m" then one "u v" line per edge, sorted."""
    with open(path, "w") as fh:
        fh.write(f"{G.vertex_count} {G.edge_count}\n")
        for u, v in G.edges:
            fh.write(f"{u} {v}\n")


def read_edgelist(path) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("edge-list header must be 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return Graph(n, edges)
