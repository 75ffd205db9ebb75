"""Projected-subgradient minimization shared by the L^p constant estimators.

The quotient objectives are scale-invariant, so iterates live on the
weighted mean-zero unit p-sphere. Any feasible point certifies an upper
bound; optimizer quality only affects tightness, never soundness.

Index contract. The gradients work on whole arrays over index tables that no
step rebuilds. ``index_matrix`` stacks n index lists into one (n, B) integer
matrix and pads each row with its own first member; balls come in this form
(``WeightedMetricGraph.balls``), neighbour lists as a ``NeighborIndex``. Per
objective and stack shape, ``_stack_index`` lays the balls out as rows of the
flattened stack and, for d > 1 only, cuts the balls into ranges and lists,
per range, the distinct unordered member pairs {y, y'} of its slots (ball,
pair i < j), the pads' (y, y) included, and each slot's index into them. At
d > 1 every row shares one (n, B) ball matrix, so these tables are built
once per range of balls and serve every row; one matrix per row is for
d = 1, whose widths need no pairs, and raises ValueError at d > 1.
Neighbouring balls share most of their pairs (grid 6x6 at a = 2: 2,808
slots, 412 distinct pairs, 22 of them pads'), so ``_widest_pairs`` takes
each distinct pair's difference, power and coordinate sum once per row and
gathers the sums into the slots. Each slot gets the bits it had from its own
difference: |F(y) - F(y')| and |F(y') - F(y)| are the same float, the
coordinates are still added in order, and the slots keep their order, so
every first maximum stays where it was. A chunk holds whole rows, or balls
of one row, of one run of equal p, and at most PAIR_CHUNK // d slots, or one
ball, so no gather holds more than PAIR_CHUNK entries unless one ball alone
has more. A pad repeats a value that comes earlier in its row, and
``argmax``/``argmin`` return the first extremum, so a pad is never chosen
and ties keep going to the first member in ball order; for d > 1, to the
first pair (i, j) of the ball in row-major order. So padding a matrix wider
still, with each row's first member, moves none of these extremes: for d > 1
a pair (i, pad) has the value of the pair (0, i), which comes earlier.
Vertices without neighbours add nothing to a subgradient; a ball of one
vertex adds +-0.0 to two bins that start at +0.0, which changes no sum: a sum
from +0.0 is never -0.0.

Bit-identity. These functions return the bits of the per-vertex loops they
replaced, which tests/test_optimize.py keeps as oracles, but for one: at
d = 1 a NaN objective value may have its sign bit set where the loops' NaN
has not. A NaN value is never best, so no witness moves.

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
  adds the per-vertex terms left to right in vertex order (``ordered_sum``);
- at d = 1 a ball's width u = max - min is +0.0, positive or NaN, so the sup
  subgradient takes u as its own |max - min|: only a NaN's sign can tell
  them apart (inf - inf gives a NaN with its sign bit set), and a row whose
  subgradient holds a NaN has a NaN norm and never moves;
- ``x ** 1.0`` is x bit for bit, so ``_run_power`` returns its input where
  the exponent is 1: p = 1 in the projection and the objective, p = 2 in
  the subgradient. Its callers only read the result;
- ``minimize_quotient`` tests its row masks as Python bools (``True in
  mask.tolist()``), the answers of ``.any()`` and ``.all()``, and in a step
  in which no row improves it leaves the best values and iterates as they
  are, without copying.

Batched restarts. ``minimize_quotient`` steps all its starts together as one
stack: an (R, n, d) array, row r the iterate of start r from first step to
last. The objective maps a stack to its R values and the subgradient to an
(R, n, d) stack, each row with the bits it would have alone. Row r may have
data of its own, so one stack can serve several problems: the scale-a estimates
of one space at d = 1 give ``sup_gradient_objective`` one ball matrix per
row. So only operations that give every row those bits are used: elementwise
ones, reductions along the last axis of a C-ordered array (``np.take`` keeps C
order where fancy indexing may not), ``nu @ F``, and per-row dot products as a
stacked matmul (``rowdot``; a 2-norm is the root of one). Neither ``einsum``
nor ``norm(axis=...)`` gives them. A stack may also mix exponents: the
projection and both objectives take p as one number or as one p per row, and
callers lay the rows out in runs of equal p. Every ``**`` is then taken once
per run with that run's scalar exponent, the runs found once per projection or
objective (``_run_power``): ``x ** e`` with an array e skips the scalar fast
paths that square or take the root, and on an AVX-512 host with numpy 2.4 it
differed from ``x ** 2.0`` and ``x ** 0.5`` in about 10,500 of 200,000 entries,
so p = 3 and p = 1.5 would lose their bits at ``p - 1``. ``np.float_power`` and
products give the same bits with a per-row array broadcast. Both callables of a
pair share one pass per stack (the per-ball extremes, the neighbour
differences) through a one-slot memo keyed on the identity of the last stack
(``memo_last``): in ``minimize_quotient`` the subgradient is only asked for the
stack the objective saw last, and no stack is changed in place; called
otherwise the pair only recomputes. The single-function forms
(``sup_gradient_rows``, ``sup_gradient_subgrad``, ``modified_gradient_pow``,
``modified_gradient_subgrad``) run the batched code on a stack of one.
"""

from __future__ import annotations

import math

import numpy as np

# Entries of the largest pair-difference gather of ``_widest_pairs``, unless
# one ball alone has more.
PAIR_CHUNK = 1 << 20


def weighted_center(f: np.ndarray, nu: np.ndarray) -> np.ndarray:
    return f - (nu @ f) / nu.sum()


def weighted_pnorm(f: np.ndarray, nu: np.ndarray, p: float) -> float:
    # (sum_x nu_x ||f(x)||_p^p)^(1/p) with the inner lp norm over coordinates
    row = np.sum(np.abs(f) ** p, axis=1)
    return float((nu @ row) ** (1.0 / p))


def rowdot(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A[r] @ v, or A[r] @ v[r] for v of A's shape, for each row of the
    contiguous (R, m) array A, with the bits of that dot product alone."""
    return (A[:, None, :] @ v[..., None])[:, 0, 0]


def exponent_runs(p, rows: int) -> list:
    """(start, stop, exponent) per run of rows with equal exponents: p is one
    exponent for all ``rows`` rows or a sequence of one per row, as floats."""
    if np.ndim(p) == 0:
        return [(0, rows, p)]
    p = np.asarray(p, dtype=float)
    cut = (np.flatnonzero(p[1:] != p[:-1]) + 1).tolist()
    return [(s, t, float(p[s])) for s, t in zip([0] + cut, cut + [len(p)])]


def per_row(p, ndim: int):
    """p, or the array of one p per row shaped to broadcast over the rows
    of an ndim-dimensional stack."""
    return p if np.ndim(p) == 0 else np.reshape(p, (-1,) + (1,) * (ndim - 1))


def _run_power(X: np.ndarray, runs, less: float = 0.0) -> np.ndarray:
    """X ** (e - less) on the rows of each ``exponent_runs`` run (start,
    stop, e); with one run, on all of X, and X itself where that exponent is
    1, so callers must not write to the result."""
    if len(runs) == 1:
        e = runs[0][2] - less
        return X if e == 1 else X ** e
    out = np.empty(X.shape)
    for s, t, e in runs:
        out[s:t] = X[s:t] if e - less == 1 else X[s:t] ** (e - less)
    return out


def sphere_projection(nu: np.ndarray, p):
    """The projection of a stack of (n, d) functions onto the nu-weighted
    mean-zero unit p-sphere, as ``minimize_quotient`` takes it: F maps to
    (F projected, a mask of the rows that survive), p one exponent or one per
    row. A row whose centered norm is below 1e-12 or not finite (constant, or
    so when the norm overflowed) does not survive; its projection is void."""
    total, runs = nu.sum(), exponent_runs(p, np.size(p))
    root = 1.0 / per_row(p, 1)

    def project(F):
        F = F - ((nu @ F) / total)[:, None, :]
        row = _run_power(np.abs(F), runs)
        if F.shape[2] > 1:  # a sum of one coordinate is that coordinate
            row = np.add.reduce(row, axis=2)
        norm = np.float_power(rowdot(row.reshape(F.shape[:2]), nu), root)
        return F / norm[:, None, None], (norm >= 1e-12) & (norm < np.inf)

    return project


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def minimize_quotient(numer_pow, numer_subgrad, nu, p, starts, iters=200,
                      project=None):
    """Minimize numerator^p over the weighted mean-zero unit p-sphere from
    each start, all starts stepped together as one stack, start r as row r.

    numer_pow maps a stack to the p-th powers of the numerator, one per row;
    numer_subgrad to a stack of subgradients. A row may stand for a problem of
    its own, each problem a block of rows; p is one exponent or one per row.
    Returns (best_val, best_F), shapes (R,) and (R, n, d): each start's least
    objective^p and the first iterate reaching it, from which ``first_least``
    picks a winner; callers recompute the reported quotient from the witness.
    ``project`` replaces ``sphere_projection(nu, p)``: it maps a stack to (its
    projection, a mask of the rows that survive), each surviving row with its
    bits alone. A start whose projection fails, at the start or later, is
    frozen: it never moves or improves again; one that fails at the start stays
    at 0 with best value +inf. Raises ValueError when no start survives the
    first projection. Overflow, and the NaN it may cause, raise no numpy
    warning: such an objective is never best, such a row fails projection, and
    a finite subgradient whose norm overflows is rescaled. Every
    numer_subgrad(F) follows numer_pow(F) on the same stack, and no stack is
    changed in place once either callable has seen it, so the pair may share
    work through a memo keyed on the identity of F (``memo_last``)."""
    if project is None:
        project = sphere_projection(nu, p)
    F = np.array([np.asarray(f0, dtype=float) for f0 in starts])
    rows = (-1,) + (1,) * (F.ndim - 1)  # a mask over the rows of a stack
    alive = np.zeros(len(F), dtype=bool)
    if len(F):
        projected, alive = project(F)
        F = np.where(alive.reshape(rows), projected, 0.0)
    if True not in alive.tolist():
        raise ValueError("no start survived projection onto the unit sphere")
    best_val, best_F = np.where(alive, numer_pow(F), np.inf), F.copy()
    for t in range(1, iters + 1):
        G = numer_subgrad(F)
        flat = G.reshape(len(G), -1)
        norm = np.sqrt(rowdot(flat, flat))
        if np.inf in norm.tolist():
            # Large p: only directions are used, so divide each finite row
            # whose squared norm overflows by its largest |entry|, others by 1.
            big = np.isinf(norm) & np.isfinite(flat).all(axis=1)
            top = np.where(big, np.abs(flat).max(axis=1), 1.0)
            flat = flat / top[:, None]
            norm, G = np.sqrt(rowdot(flat, flat)), flat.reshape(G.shape)
        moving = alive & (norm > 1e-15)  # a zero subgradient, up to rounding
        if True in moving.tolist():
            # Rows that do not move are stepped and projected too, and their
            # results dropped: every row's step is its own.
            stepped, ok = project(F - G / (norm.reshape(rows) * math.sqrt(t)))
            ok &= moving
            if False not in ok.tolist():
                F = stepped
            else:
                F = np.where(ok.reshape(rows), stepped, F)
                alive &= ok | ~moving
                if True not in alive.tolist():
                    break
        val = numer_pow(F)
        better = alive & (val < best_val)
        if True in better.tolist():
            np.copyto(best_val, val, where=better)
            np.copyto(best_F, F, where=better.reshape(rows))
    return best_val, best_F


def first_least(best_val: np.ndarray, best_F: np.ndarray):
    """(value, f) of the first start with the least finite best value, from
    ``minimize_quotient``'s result or a block of its rows. Raises ValueError
    when no value is finite."""
    finite = np.flatnonzero(best_val < np.inf)
    if not len(finite):
        raise ValueError("no start reached a finite objective")
    win = finite[np.argmin(best_val[finite])]  # the first of the least
    return float(best_val[win]), best_F[win]


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
    """Neighbour lists as index arrays for the neighbour-sum gradient:
    ``matrix`` is their ``index_matrix`` and ``degree`` their lengths;
    ``src``/``dst`` list every pair (x, y) with y a neighbour of x, x
    ascending and y in list order; ``groups`` pairs the vertices of each
    positive degree k, ascending, with the (vertices, k) matrix of the
    positions of their pairs in that list."""

    def __init__(self, neighbors):
        self.matrix = index_matrix(neighbors)
        self.degree = np.array([len(row) for row in neighbors], dtype=np.intp)
        real = np.arange(self.matrix.shape[1]) < self.degree[:, None]
        self.src, self.dst = np.nonzero(real)[0], self.matrix[real]
        first = np.cumsum(self.degree) - self.degree
        self.groups = []
        # Not np.unique: it imports numpy.ma, 0.5 MB of resident memory.
        for k in sorted({len(row) for row in neighbors} - {0}):
            xs = np.flatnonzero(self.degree == k)
            self.groups.append((xs, first[xs][:, None] + np.arange(k)))


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
    w[0::2] = v
    np.negative(v, out=w[1::2])
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
    """terms[..., 0] + terms[..., 1] + ... added left to right along the
    last axis, as np.float64; zeros when that axis is empty. For terms other
    than -0.0 these are the bits of ``total = 0.0; for t in row: total += t``
    on each row."""
    if terms.shape[-1]:
        return np.add.accumulate(terms, axis=-1)[..., -1]
    return np.zeros(terms.shape[:-1])


def _distinct_pairs(members: np.ndarray, iu, ju, n: int):
    """For ``members`` (m, B), m balls over vertices below n, and the columns
    i < j of ``iu``/``ju``: the distinct unordered pairs {y, y'} of the slots
    (ball, (i, j)) as their vertices y <= y', in increasing order of (y, y'),
    and the (m, P) index of each slot's pair. Found with a mask over the
    n * n ordered pairs, as large as the mask ``WeightedMetricGraph.balls``
    builds, rather than a sort: an argsort puts about 0.3 MB of numpy's sort
    code into the resident memory of runs that sort nothing else."""
    left, right = members[:, iu], members[:, ju]
    key = np.minimum(left, right) * n + np.maximum(left, right)
    seen = np.zeros(n * n, dtype=bool)
    seen[key] = True
    pairs = np.flatnonzero(seen)
    rank = np.empty(len(seen), dtype=np.intp)
    rank[pairs] = np.arange(len(pairs))
    return pairs // n, pairs % n, rank[key]


def _widest_pairs(F: np.ndarray, pairs):
    """For a stack F of shape (R, n, d), d > 1, and ``pairs`` its tables
    from ``_stack_index``: per row r and ball x the largest
    ||F[r, y] - F[r, y']||_p^p over pairs of members, and the columns (i, j)
    of its first occurrence in row-major order over all B * B pairs, each of
    length R * m. Only the pairs i < j are searched: (i, j) has the value of
    (j, i) and the diagonal is 0, so a positive maximum first occurs above
    it, and a row whose pairs are all 0 has its first maximum at (0, 0).
    Per chunk and row, each distinct pair's |difference| ** e is taken once
    and its coordinate terms added left to right, as ``np.sum`` adds fewer
    than 8 of them; the sums are then gathered into the (rows, balls, P)
    slots, whose first maximum is read per ball at flat offsets."""
    R, n, d = F.shape
    iu, ju, m, chunks = pairs
    top, at = np.empty((R, m)), np.empty((R, m), dtype=np.intp)
    for r, r1, xs, e, lo, hi, slot, offsets in chunks:
        D = np.take(F[r:r1], lo, axis=1)
        D -= np.take(F[r:r1], hi, axis=1)
        np.abs(D, out=D)
        D **= e
        S = D[..., 0] + D[..., 1]
        for c in range(2, d):
            S += D[..., c]
        W = np.take(S, slot, axis=-1)
        a = at[r:r1, xs] = W.argmax(axis=2)
        top[r:r1, xs] = np.take(W, offsets + a)
    top, at = top.ravel(), at.ravel()
    positive = top > 0
    return top, np.where(positive, iu[at], 0), np.where(positive, ju[at], 0)


# ---------------------------------------------------------------------------
# Gradients


def _stack_index(balls: np.ndarray, shape, p):
    """The tables of a stack of shape (R, n, d) for balls (m, B), shared by
    every row, or, for d = 1 only, (R, m, B), one matrix per row: the balls
    as rows of F.reshape(R * n, d), an (R * m, B) matrix; the flat offsets
    of its rows; for d > 1 and B > 1 the pairs (iu, ju) i < j, m and the
    chunks of ``_widest_pairs``. A chunk holds whole rows, or balls of one
    row, of one exponent run, at most PAIR_CHUNK // d slots (ball, pair), or
    one ball: rows r:r1, balls xs, the run's exponent, the
    ``_distinct_pairs`` of its balls, built once per range of balls, and the
    flat offsets of its balls' first slots. Raises ValueError for one matrix
    per row and d > 1."""
    R, n, d = shape
    m, B = balls.shape[-2:]
    if d > 1 and balls.ndim == 3:
        raise ValueError("one ball matrix per row needs d = 1")
    index = (balls + (np.arange(R) * n)[:, None, None]).reshape(R * m, B)
    pick = np.arange(R * m) * B
    if d == 1 or B == 1:
        return index, pick, None
    iu, ju = np.triu_indices(B, 1)
    P = len(iu)
    per = max(1, PAIR_CHUNK // (P * d))  # (row, ball) slots per chunk
    rows, width = max(1, per // m), min(per, m)
    ranges = [slice(x, x + width) for x in range(0, m, width)]
    tables = [_distinct_pairs(balls[xs], iu, ju, n) for xs in ranges]
    chunks = []
    for first, stop, e in exponent_runs(p, R):
        for r in range(first, stop, rows):
            r1 = min(r + rows, stop)
            for xs, pairs in zip(ranges, tables):
                count = (r1 - r) * len(pairs[2])
                offsets = (np.arange(count) * P).reshape(r1 - r, -1)
                chunks.append((r, r1, xs, e) + pairs + (offsets,))
    return index, pick, (iu, ju, m, chunks)


def _ball_extremes(F: np.ndarray, stack, root):
    """For a stack F (R, n, d), ``stack`` its ``_stack_index`` and root
    1 / ``per_row(p, 2)``: per row r and ball x the width u = max over pairs
    y, y' of the ball of ||F[r, y] - F[r, y']||_p, an (R, m) array, and the
    rows hi, lo of F.reshape(R * n, d) at its first extremal pair, R * m
    each: for d = 1 the first argmax and argmin, for d > 1 the first pair."""
    R, n, d = F.shape
    index, pick, pairs = stack
    m = len(index) // R
    if d == 1:
        V = F.reshape(R * n).take(index)
        i, j = V.argmax(axis=1) + pick, V.argmin(axis=1) + pick
        u = (V.take(i) - V.take(j)).reshape(R, m)
        return u, index.take(i), index.take(j)
    if pairs is None:  # every ball is one vertex
        u, i = np.zeros((R, m)), np.zeros(R * m, dtype=np.intp)
        j = i
    else:
        top, i, j = _widest_pairs(F, pairs)
        u = np.float_power(top.reshape(R, m), root)
    return u, index.take(pick + i), index.take(pick + j)


def sup_gradient_rows(f: np.ndarray, balls: np.ndarray, p: float) -> np.ndarray:
    """u_x = max over pairs y,y' in the ball of x of ||f(y)-f(y')||_p."""
    return _ball_extremes(f[None], _stack_index(balls, (1,) + f.shape, p),
                          1.0 / p)[0][0]


def sup_gradient_subgrad(f: np.ndarray, balls: np.ndarray, nu,
                         p: float) -> np.ndarray:
    return sup_gradient_objective(balls, nu, p)[1](f[None])[0]


def sup_gradient_objective(balls: np.ndarray, nu, p):
    """(numer_pow, numer_subgrad) of the sup gradient for minimize_quotient:
    F maps to sum_x nu_x u_x^p per row and to a subgradient of it. balls is
    one (n, B) matrix for every row or, for stacks with d = 1 only, an
    (R, n, B) stack, row r's for F[r]: a stack with d > 1 raises ValueError.
    p is one exponent or one per row. The two share one ball pass per stack
    (``memo_last``), whose widths are the d = 1 differences, and the stacks
    of one shape one ``_stack_index``."""
    weight, scale = nu[:, None], per_row(p, 3)
    root, runs, stacks = 1.0 / per_row(p, 2), exponent_runs(p, np.size(p)), {}

    @memo_last
    def extremes(F):
        if F.shape not in stacks:
            stacks[F.shape] = _stack_index(balls, F.shape, p)
        return _ball_extremes(F, stacks[F.shape], root)

    def numer_pow(F):
        return rowdot(_run_power(extremes(F)[0], runs), nu)

    def numer_subgrad(F):
        u, hi, lo = extremes(F)
        flat = F.reshape(-1, F.shape[2])
        if F.shape[2] == 1:  # u is +0.0, positive or NaN: its own |u|
            delta = size = u.reshape(F.shape)
        else:
            delta = (flat.take(hi, axis=0) - flat.take(lo, axis=0)).reshape(
                F.shape)
            size = np.abs(delta)
        grad = scale * np.sign(delta) * _run_power(size, runs, 1.0)
        v = (weight * grad).reshape(flat.shape)
        return scatter_pairs(len(flat), hi, lo, v).reshape(F.shape)

    return numer_pow, numer_subgrad


def modified_gradient_objective(neighbors: NeighborIndex, nu, p):
    """(numer_pow, numer_subgrad) of the neighbour-sum gradient for
    minimize_quotient: a stack F maps to sum_x nu_x sum_{y~x}
    ||F(x)-F(y)||_p^p per row, and to a subgradient of it, p one exponent or
    one per row. The two share the differences F(x) - F(y) over the edge
    list per stack (``memo_last``), and the stacks of one shape the flat
    scatter bins r * n + x and r * n + y of row r's edges."""
    x, y = neighbors.src, neighbors.dst
    present, runs = neighbors.degree > 0, exponent_runs(p, np.size(p))
    weight, nu_present = (nu[x] * per_row(p, 2))[..., None], nu[present]
    bins = {}

    @memo_last
    def differences(F):
        delta = F.take(x, axis=1) - F.take(y, axis=1)
        return delta, np.abs(delta)

    def numer_pow(F):
        powers = _run_power(differences(F)[1], runs)
        rows = np.zeros(F.shape[:2])
        for xs, at in neighbors.groups:
            # np.take, unlike powers[:, at], gives C order, so each sum runs
            # over its row as it did for one function.
            group = np.take(powers, at, axis=1)
            rows[:, xs] = group.reshape(len(F), len(xs), -1).sum(axis=2)
        return ordered_sum(nu_present * rows[:, present])

    def numer_subgrad(F):
        if F.shape not in bins:
            offset = (np.arange(len(F)) * F.shape[1])[:, None]
            bins[F.shape] = (x + offset).ravel(), (y + offset).ravel()
        delta, size = differences(F)
        grad = weight * np.sign(delta) * _run_power(size, runs, 1.0)
        return scatter_pairs(F.shape[0] * F.shape[1], *bins[F.shape],
                             grad.reshape(-1, F.shape[2])).reshape(F.shape)

    return numer_pow, numer_subgrad


def modified_gradient_pow(f: np.ndarray, neighbors: NeighborIndex, nu,
                          p: float) -> float:
    if not len(neighbors.src):
        return 0.0
    return modified_gradient_objective(neighbors, nu, p)[0](f[None])[0]


def modified_gradient_subgrad(f: np.ndarray, neighbors: NeighborIndex, nu,
                              p: float) -> np.ndarray:
    return modified_gradient_objective(neighbors, nu, p)[1](f[None])[0]
