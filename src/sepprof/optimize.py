"""Projected-subgradient minimization shared by the L^p constant estimators.

The quotient objectives are scale-invariant, so iterates live on the
weighted mean-zero unit p-sphere. Any feasible point certifies an upper
bound; optimizer quality only affects tightness, never soundness.

Index contract. The gradients work on whole arrays over index lists built
once per estimate. ``index_matrix`` stacks n index lists into one (n, B)
integer matrix and pads each row with its own first member; balls come in
this form (``WeightedMetricGraph.balls``), neighbour lists as a
``NeighborIndex``, which adds the degrees, the edge list and the rows
grouped by degree. A pad repeats a value that comes earlier in its row, and
``argmax``/``argmin`` return the first extremum, so a pad is never chosen and
ties keep going to the first member in ball order; for d > 1, to the first
pair (i, j) of the ball in row-major order. Balls of one vertex and vertices
without neighbours add nothing to a subgradient.

Bit-identity. These functions return the bits of the per-vertex loops they
replaced, which tests/test_optimize.py keeps as oracles:

- the per-ball root ``** (1/p)`` is taken with ``np.float_power``, which
  rounds like the scalar ``pow`` the loops used; ``np.power`` on arrays may
  run SIMD code that rounds differently. Powers the loops already took on
  arrays (``** p``, ``** (p - 1)``) stay ``**``;
- subgradient contributions are added in the loops' order, (hi, +v), (lo, -v)
  per ball and (x, +v), (y, -v) per edge, by one ``np.bincount`` over the
  flattened (vertex, coordinate) bins ``vertex * d + k``, which adds in input
  order within each bin (``scatter_pairs``);
- products keep the loops' association: ``nu[x] * (p * sign * |d|^(p-1))``
  for the sup gradient, ``(nu[x] * p) * sign * |d|^(p-1)`` for the
  neighbour sum;
- the neighbour-sum numerator sums each vertex's row within a group of equal
  degree, so every row keeps its length and numpy's pairwise summation, then
  adds the per-vertex terms left to right in vertex order (``ordered_sum``).

One ball pass per step. ``sup_gradient_objective`` returns the objective and
subgradient of the sup gradient as two callables that share the per-ball
extremes (``_ball_extremes``) through a one-slot memo keyed on the identity of
the last iterate; ``spectral.lambda_infinity_upper`` shares its steepest
neighbours the same way (``memo_last``). This relies on the contract of
``minimize_quotient``: the subgradient is only asked for the array the
objective saw last, and no iterate is changed in place. Called in another
order or on other arrays the pair stays correct and only recomputes.
"""

from __future__ import annotations

import numpy as np

# Entries of the (balls, B, B, d) pair-difference array built at once.
PAIR_CHUNK = 1 << 20


def weighted_center(f: np.ndarray, nu: np.ndarray) -> np.ndarray:
    return f - (nu @ f) / nu.sum()


def weighted_pnorm(f: np.ndarray, nu: np.ndarray, p: float) -> float:
    # (sum_x nu_x ||f(x)||_p^p)^(1/p) with the inner lp norm over coordinates
    row = np.sum(np.abs(f) ** p, axis=1)
    return float((nu @ row) ** (1.0 / p))


def project_sphere(f: np.ndarray, nu: np.ndarray, p: float):
    f = weighted_center(f, nu)
    norm = weighted_pnorm(f, nu, p)
    if norm < 1e-12:
        return None
    return f / norm


def minimize_quotient(numer_pow, numer_subgrad, nu, p, starts, iters=200):
    """Minimize numerator^p over the weighted mean-zero unit p-sphere.

    numer_pow(f) evaluates the p-th power of the numerator; numer_subgrad(f)
    a subgradient of it. Returns (best objective^p, best f); callers recompute
    the reported quotient from the witness.

    Every numer_subgrad(f) follows numer_pow(f) on the same array, and no
    iterate is changed in place once either callable has seen it, so the pair
    may share work through a memo keyed on the identity of f (``memo_last``).
    """
    best_val, best_f = np.inf, None
    for f0 in starts:
        f = project_sphere(np.asarray(f0, dtype=float), nu, p)
        if f is None:
            continue
        cur_val, cur_f = numer_pow(f), f.copy()
        for t in range(1, iters + 1):
            g = numer_subgrad(f)
            norm = np.linalg.norm(g)
            if norm > 1e-15:
                stepped = project_sphere(f - g / (norm * np.sqrt(t)), nu, p)
                if stepped is None:
                    break
                f = stepped
            val = numer_pow(f)
            if val < cur_val:
                cur_val, cur_f = val, f.copy()
        if cur_val < best_val:
            best_val, best_f = cur_val, cur_f
    return best_val, best_f


# ---------------------------------------------------------------------------
# Index structures and ordered reductions


def index_matrix(rows) -> np.ndarray:
    """n index lists as one (n, B) int matrix, B the longest list; each row
    is padded with its own first member, an empty row with its row number."""
    width = max([1] + [len(row) for row in rows])
    out = np.empty((len(rows), width), dtype=np.intp)
    for x, row in enumerate(rows):
        out[x] = row[0] if len(row) else x
        out[x, :len(row)] = row
    return out


class NeighborIndex:
    """Neighbour lists as index arrays for the neighbour-sum gradient.

    ``matrix`` is their ``index_matrix`` and ``degree`` their lengths;
    ``src``/``dst`` list every pair (x, y) with y a neighbour of x, x
    ascending and y in list order; ``groups`` pairs the vertices of each
    positive degree k, ascending, with their (vertices, k) neighbour matrix.
    """

    def __init__(self, neighbors):
        self.matrix = index_matrix(neighbors)
        self.degree = np.array([len(row) for row in neighbors], dtype=np.intp)
        real = np.arange(self.matrix.shape[1]) < self.degree[:, None]
        self.src, self.dst = np.nonzero(real)[0], self.matrix[real]
        self.groups = []
        # Not np.unique: it imports numpy.ma, 0.5 MB of resident memory.
        for k in sorted({len(row) for row in neighbors} - {0}):
            xs = np.flatnonzero(self.degree == k)
            self.groups.append((xs, self.matrix[xs, :k]))


def scatter_pairs(n: int, plus, minus, v: np.ndarray) -> np.ndarray:
    """g = 0 of shape (n,) + v.shape[1:], then g[plus[k]] += v[k] and
    g[minus[k]] -= v[k] for k ascending, in that order."""
    tail = v.shape[1:]
    if not len(v):  # np.bincount would return integers
        return np.zeros((n,) + tail)
    d = v.size // len(v)
    idx = np.empty(2 * len(v), dtype=np.intp)
    idx[0::2], idx[1::2] = plus, minus
    w = np.empty((len(idx),) + tail)
    w[0::2], w[1::2] = v, -v
    if d > 1:
        idx = (idx[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(idx, weights=w.ravel(), minlength=n * d)
    return out.reshape((n,) + tail)


def memo_last(fn):
    """fn of one array argument, remembering its result for the last array
    passed, by identity. The memo holds a reference to that array, so its id
    cannot be reused; callers must not change it in place."""
    last = [None, None]

    def call(f):
        if last[0] is not f:
            last[0], last[1] = f, fn(f)
        return last[1]

    return call


def ordered_sum(terms: np.ndarray):
    """terms[0] + terms[1] + ... added left to right, as np.float64; the
    Python float 0.0 when there are none. For terms other than -0.0 these
    are the bits of ``total = 0.0; for t in terms: total += t``."""
    return np.add.accumulate(terms)[-1] if len(terms) else 0.0


def _widest_pairs(F: np.ndarray, p: float):
    """For F of shape (m, B, d): per row the largest ||F[i]-F[j]||_p^p over
    pairs, and the flat index i*B + j of its first occurrence in row-major
    order. Rows are taken in chunks of at most PAIR_CHUNK difference entries."""
    m, B, d = F.shape
    top, at = np.empty(m), np.empty(m, dtype=np.intp)
    step = max(1, PAIR_CHUNK // (B * B * d))
    for s in range(0, m, step):
        G = F[s:s + step]
        S = np.sum(np.abs(G[:, :, None, :] - G[:, None, :, :]) ** p, axis=3)
        S = S.reshape(len(G), B * B)
        at[s:s + step] = S.argmax(axis=1)
        top[s:s + step] = S[np.arange(len(G)), at[s:s + step]]
    return top, at


# ---------------------------------------------------------------------------
# Gradients


def _ball_extremes(f: np.ndarray, balls: np.ndarray, p: float):
    """Per row of balls the width u = max over pairs y, y' of the ball of
    ||f(y)-f(y')||_p, and the columns (i, j) of its first extremal pair: for
    d = 1 the first argmax and the first argmin, for d > 1 the first pair in
    row-major order."""
    if f.shape[1] == 1:
        F = f[:, 0][balls]
        i, j = F.argmax(axis=1), F.argmin(axis=1)
        pick = np.arange(len(F))
        return F[pick, i] - F[pick, j], i, j
    top, at = _widest_pairs(f[balls], p)
    i, j = np.divmod(at, balls.shape[1])
    return np.float_power(top, 1.0 / p), i, j


def sup_gradient_rows(f: np.ndarray, balls: np.ndarray, p: float) -> np.ndarray:
    """u_x = max over pairs y,y' in the ball of x of ||f(y)-f(y')||_p."""
    return _ball_extremes(f, balls, p)[0]


def sup_gradient_subgrad(f: np.ndarray, balls: np.ndarray, nu,
                         p: float) -> np.ndarray:
    return sup_gradient_objective(balls, nu, p)[1](f)


def sup_gradient_objective(balls: np.ndarray, nu, p: float):
    """(numer_pow, numer_subgrad) of the sup gradient for minimize_quotient:
    f -> sum_x nu_x u_x^p as a float, and a subgradient of it. The two share
    one ball pass per iterate (``memo_last``); only balls with a second
    member take part, the others have u_x = 0 and add nothing."""
    # Members are distinct, so a ball has a second one iff its row is not
    # all pad.
    xs = np.flatnonzero((balls != balls[:, :1]).any(axis=1))
    rows, weight = balls[xs], nu[xs][:, None]
    pick = np.arange(len(xs))

    @memo_last
    def extremes(f):
        u, i, j = _ball_extremes(f, rows, p)
        return u, rows[pick, i], rows[pick, j]

    def numer_pow(f):
        u = np.zeros(len(balls))
        u[xs] = extremes(f)[0]
        return float(nu @ (u ** p))

    def numer_subgrad(f):
        _, hi, lo = extremes(f)
        delta = f[hi] - f[lo]
        grad = p * np.sign(delta) * np.abs(delta) ** (p - 1)
        return scatter_pairs(len(f), hi, lo, weight * grad)

    return numer_pow, numer_subgrad


def modified_gradient_pow(f: np.ndarray, neighbors: NeighborIndex, nu,
                          p: float) -> float:
    rows = np.zeros(f.shape[0])
    for xs, nbrs in neighbors.groups:
        powers = np.abs(f[xs][:, None, :] - f[nbrs]) ** p
        rows[xs] = powers.reshape(len(xs), -1).sum(axis=1)
    present = neighbors.degree > 0
    return ordered_sum(nu[present] * rows[present])


def modified_gradient_subgrad(f: np.ndarray, neighbors: NeighborIndex, nu,
                              p: float) -> np.ndarray:
    x, y = neighbors.src, neighbors.dst
    delta = f[x] - f[y]
    grad = (nu[x] * p)[:, None] * np.sign(delta) * np.abs(delta) ** (p - 1)
    return scatter_pairs(f.shape[0], x, y, grad)
