"""Laplacian spectrum: the spectral gap and the vertex-isoperimetric ratio.

Dense symmetric eigendecomposition only; target graphs stay below a few
thousand vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph
from .optimize import (NeighborIndex, first_least, memo_last,
                       minimize_quotient, ordered_sum, rowdot, scatter_pairs)


@dataclass
class SpectralReport:
    lambda2: float
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
    return SpectralReport(lambda2=lam, witness_vector=witness)


def lambda2_stack(masks: np.ndarray) -> np.ndarray:
    """``lambda2(G).lambda2`` of each graph in a stack of neighbour-mask rows
    (k, m), m >= 2, bit for bit, from one stacked ``eigh``.

    The Laplacians are built entry for entry as ``laplacian`` builds them:
    the entries off the edges must be +0.0, since with -0.0 (as ``-A`` gives)
    ``eigh`` rounds the eigenvalues differently. The clamp keeps a value the
    way ``max(value, 0.0)`` does, -0.0 included."""
    m = masks.shape[1]
    adjacent = (masks[:, :, None] >> np.arange(m)) & 1
    L = np.where(adjacent != 0, -1.0, 0.0)
    diagonal = np.arange(m)
    L[:, diagonal, diagonal] = adjacent.sum(axis=2)
    second = np.linalg.eigh(L)[0][:, 1]
    return np.where(0.0 > second, 0.0, second)


def fiedler_vector(G: Graph) -> np.ndarray:
    return lambda2(G).witness_vector


def _steepest_neighbors(F: np.ndarray, tables):
    """For a stack F (R, n) and its ``lambda_infinity_objective`` tables,
    per row and vertex i with neighbours, ascending: the flat indices into F
    of i, (R, k, 1), and of its first neighbour j in list order maximising
    (f_i - f_j)^2, then f_i - f_j and its square, each (R, k)."""
    rows, cols, pick = tables
    flat = F.reshape(-1)
    D = flat.take(rows) - flat.take(cols)
    sq = D * D
    at = sq.argmax(axis=2) + pick
    return rows, cols.take(at), D.take(at), sq.take(at)


def lambda_infinity_ratio(G: Graph, f: np.ndarray) -> float:
    """The vertex-isoperimetric spectral ratio evaluated at f.

    2 * [(1/n) sum_i sup_{j~i} (f_i-f_j)^2] / [(1/n^2) sum_{i,j} (f_i-f_j)^2].
    Vertices without neighbours contribute 0 to the numerator sup.
    """
    f = np.asarray(f, dtype=float)
    n = G.vertex_count
    objective = lambda_infinity_objective(NeighborIndex(G.neighbors))[0]
    num = float(objective(f[None])[0]) / n
    centered = f - f.mean()
    den = 2.0 * float(centered @ centered) / n
    if den == 0.0:
        raise ValueError("constant function: ratio undefined")
    return 2.0 * num / den


def lambda_infinity_objective(nbrs: NeighborIndex):
    """(objective, subgradient) of sum_i max_{j~i} (f_i - f_j)^2 over a
    stack of functions (R, n), for ``minimize_quotient``; the two share the
    steepest neighbours per stack (``memo_last``). The k vertices with
    neighbours and their (k, B) rows of neighbours are found once, their
    flat indices and those of each vertex's B squares once per stack shape."""
    i = np.flatnonzero(nbrs.degree)
    cols = nbrs.matrix[i]
    stacks = {}

    @memo_last
    def steepest(F):
        if F.shape not in stacks:
            (R, n), (k, B) = F.shape, cols.shape
            offset = (np.arange(R) * n)[:, None, None]
            stacks[F.shape] = (i[:, None] + offset, cols + offset,
                               (np.arange(R * k) * B).reshape(R, k))
        return _steepest_neighbors(F, stacks[F.shape])

    def objective(F):
        return ordered_sum(steepest(F)[3])

    def subgradient(F):
        i_at, j_at, delta, _ = steepest(F)
        return scatter_pairs(F.size, i_at.ravel(), j_at.ravel(),
                             2.0 * delta.ravel()).reshape(F.shape)

    return objective, subgradient


def unit_sphere(F: np.ndarray):
    """Projection of a stack of functions (R, n) onto the mean-zero unit
    2-sphere for ``minimize_quotient``: (the stack projected; a mask of the
    rows with norm above 1e-12, the only rows it keeps)."""
    F = F - F.mean(axis=1)[:, None]
    norm = np.sqrt(rowdot(F, F))
    return F / norm[:, None], norm > 1e-12


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
    starts = [fiedler_vector(G)]
    starts += [rng.standard_normal(n) for _ in range(max(0, restarts - 1))]
    # nu and p only define the default projection, which unit_sphere replaces.
    _, best_f = first_least(*minimize_quotient(
        *lambda_infinity_objective(NeighborIndex(G.neighbors)), None, 2,
        starts, project=unit_sphere))
    return lambda_infinity_ratio(G, best_f), best_f
