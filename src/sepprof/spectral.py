"""Laplacian spectrum: the spectral gap and the vertex-isoperimetric ratio.

Dense symmetric eigendecomposition only; target graphs stay below a few
thousand vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph
from .optimize import NeighborIndex, memo_last, ordered_sum, scatter_pairs

LAMBDA2_TOL = 1e-9


@dataclass
class SpectralReport:
    lambda2: float
    certified: bool
    witness_vector: np.ndarray = field(repr=False)


def laplacian(G: Graph) -> np.ndarray:
    n = G.vertex_count
    L = np.zeros((n, n))
    for u, v in G.edges:
        L[u, u] += 1
        L[v, v] += 1
        L[u, v] -= 1
        L[v, u] -= 1
    return L


def lambda2(G: Graph) -> SpectralReport:
    """Second-smallest eigenvalue of the combinatorial Laplacian.

    The witness is a mean-zero eigenvector for that eigenvalue (Fiedler
    vector when the graph is connected).
    """
    n = G.vertex_count
    if n < 2:
        raise ValueError("lambda2 needs at least 2 vertices")
    vals, vecs = np.linalg.eigh(laplacian(G))
    lam = float(max(vals[1], 0.0))
    # For a degenerate 0-eigenspace the second column need not be mean-zero;
    # project the constant out and pick the first column with mass left.
    witness = None
    for idx in range(1, n):
        v = vecs[:, idx] - vecs[:, idx].mean()
        if np.linalg.norm(v) > 1e-9:
            witness = v / np.linalg.norm(v)
            break
        if vals[idx] > vals[1] + 1e-9:
            break
    if witness is None:
        witness = vecs[:, 1] - vecs[:, 1].mean()
    return SpectralReport(lambda2=lam, certified=True, witness_vector=witness)


def fiedler_vector(G: Graph) -> np.ndarray:
    return lambda2(G).witness_vector


def _steepest_neighbors(f: np.ndarray, nbrs: NeighborIndex):
    """(i, j, (f_i - f_j)^2) for each vertex i with neighbours, ascending:
    j is its first neighbour in list order maximising the square."""
    i = np.flatnonzero(nbrs.degree)
    cols = nbrs.matrix[i]
    d = f[i, None] - f[cols]
    sq = d * d
    at = sq.argmax(axis=1)
    pick = np.arange(len(i))
    return i, cols[pick, at], sq[pick, at]


def lambda_infinity_ratio(G: Graph, f: np.ndarray) -> float:
    """The vertex-isoperimetric spectral ratio evaluated at f.

    2 * [(1/n) sum_i sup_{j~i} (f_i-f_j)^2] / [(1/n^2) sum_{i,j} (f_i-f_j)^2].
    Vertices without neighbours contribute 0 to the numerator sup.
    """
    f = np.asarray(f, dtype=float)
    n = G.vertex_count
    _, _, sq = _steepest_neighbors(f, NeighborIndex(G.neighbors))
    num = float(ordered_sum(sq)) / n
    centered = f - f.mean()
    den = 2.0 * float(centered @ centered) / n
    if den == 0.0:
        raise ValueError("constant function: ratio undefined")
    return 2.0 * num / den


def lambda_infinity_upper(G: Graph, restarts: int = 8, seed: int = 0):
    """Certified upper bound on the vertex-isoperimetric spectral quantity.

    Randomized-restart subgradient minimization of the ratio; the returned
    value is the ratio at the best function found, hence a feasible upper
    bound. Deterministic for a fixed seed.

    Returns (value, witness function).
    """
    n = G.vertex_count
    if n < 2:
        raise ValueError("need at least 2 vertices")
    rng = np.random.default_rng(seed)
    nbrs = NeighborIndex(G.neighbors)
    # One pass per iterate: the loop below never changes an iterate in place
    # and asks for the subgradient only at the iterate it just evaluated.
    steepest = memo_last(lambda f: _steepest_neighbors(f, nbrs))

    def objective(f):
        # sum_i max_{j~i} (f_i - f_j)^2 on the mean-zero unit sphere
        return float(ordered_sum(steepest(f)[2]))

    def subgradient(f):
        i, j, _ = steepest(f)
        return scatter_pairs(n, i, j, 2.0 * (f[i] - f[j]))

    def project(f):
        # Mean-zero unit sphere; None when the step collapsed to a constant.
        f = f - f.mean()
        norm = np.linalg.norm(f)
        return f / norm if norm > 1e-12 else None

    starts = [fiedler_vector(G)]
    starts += [rng.standard_normal(n) for _ in range(max(0, restarts - 1))]
    best_val, best_f = np.inf, None
    for f0 in starts:
        f = project(np.asarray(f0, dtype=float))
        if f is None:
            continue
        cur_val, cur_f = objective(f), f.copy()
        for t in range(1, 201):
            g = subgradient(f)
            norm = np.linalg.norm(g)
            if norm > 0:
                stepped = project(f - g / (norm * np.sqrt(t)))
                if stepped is None:
                    break
                f = stepped
            val = objective(f)
            if val < cur_val:
                cur_val, cur_f = val, f.copy()
        if cur_val < best_val:
            best_val, best_f = cur_val, cur_f
    value = lambda_infinity_ratio(G, best_f)
    return value, best_f
