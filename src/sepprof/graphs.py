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
        self.blocks = blocks
        self.block_of = tuple(assign)


def mask_words(masks: Iterable[int], W: int) -> np.ndarray:
    """The masks, each in 0..2^(64 W) - 1, as a (k, W) uint64 array: one
    row per mask, W words, lowest word first."""
    data = b"".join(mask.to_bytes(8 * W, "little") for mask in masks)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(-1, W)


def word_masks(words: np.ndarray) -> list[int]:
    """The rows of a (k, W) uint64 array back to ints (``mask_words``'
    inverse): one list of ints per word, or-ed in above the lower words."""
    masks = words[:, 0].tolist()
    for j in range(1, words.shape[1]):
        masks = [low | high << 64 * j
                 for low, high in zip(masks, words[:, j].tolist())]
    return masks


def mask_set(mask: int) -> frozenset:
    """The vertices of the mask (>= 0): v is in it when bit v is set."""
    return frozenset(v for v, bit in enumerate(reversed(bin(mask)))
                     if bit == "1")


def validate_subset(G: Graph, A: Iterable[int]) -> frozenset:
    A = frozenset(A)
    for v in A:
        if not (0 <= v < G.vertex_count):
            raise ValueError(f"vertex {v} not in host graph")
    return A


def validate_measure(nu, n: int) -> np.ndarray:
    """nu as a float array of one weight per vertex of an n-vertex graph,
    all 1 when nu is None. Raise ValueError unless every weight is a finite
    number > 0 (NaN included)."""
    nu = np.ones(n) if nu is None else np.asarray(nu, dtype=float)
    if nu.shape != (n,):
        raise ValueError("nu must have one entry per vertex")
    if not np.all((0 < nu) & (nu < np.inf)):
        raise ValueError("nu must be finite and positive on every vertex")
    return nu


# The number of size parameters of each family ``build_family`` builds.
_FAMILY_SIZES = {"path": 1, "cycle": 1, "complete": 1, "hypercube": 1,
                "grid": 2}


def build_family(kind: str, *params: int) -> Graph:
    """Construct one of the named graph families.

    kind: path, cycle, complete, hypercube, or grid. ``params`` are the size
    parameters (two for grid, one otherwise), all required to be >= 1.
    """
    if kind not in _FAMILY_SIZES:
        raise ValueError(f"unknown family kind {kind!r}")
    count = _FAMILY_SIZES[kind]
    if len(params) != count:
        raise ValueError(f"{kind} takes {count} size parameter"
                         f"{'s' if count > 1 else ''}, got {len(params)}")
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


def induced_subgraph(G: Graph, S: Iterable[int]) -> Graph:
    """Induced subgraph on S; vertex i of the result is sorted(S)[i], with
    its label in G, so a witness maps back by indexing sorted(S)."""
    S = sorted(validate_subset(G, S))
    index = {v: i for i, v in enumerate(S)}
    edges = [
        (index[u], index[v])
        for u, v in G.edges if u in index and v in index
    ]
    return Graph(len(S), edges, labels=[G.label(v) for v in S])


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


def _int_pair(path, number: int, line: str, expected: str):
    """The two integers of line ``number`` of an edge-list file; ValueError
    naming the file and the line when it holds anything else."""
    fields = line.split()
    if len(fields) == 2:
        try:
            return int(fields[0]), int(fields[1])
        except ValueError:
            pass
    raise ValueError(f"{path} line {number}: expected {expected}, "
                     f"got {line.strip()!r}")


def read_edgelist(path) -> Graph:
    """The graph of a file in ``write_edgelist``'s format; blank edge lines
    are skipped. An edge given twice, in either orientation, raises
    ValueError naming the file and both lines."""
    edges = {}  # (lower, higher end): the line that gives the edge first
    with open(path) as fh:
        n, m = _int_pair(path, 1, fh.readline(), "the counts 'n m'")
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            u, v = _int_pair(path, number, line, "two vertex ids")
            first = edges.setdefault((min(u, v), max(u, v)), number)
            if first != number:
                raise ValueError(
                    f"{path} line {number}: expected each edge once, got "
                    f"{u} {v} again (first at line {first})")
    if len(edges) != m:
        raise ValueError(f"{path} line 1: expected {m} edges, found "
                         f"{len(edges)}")
    return Graph(n, edges)
