"""Compression-based upper bounds on Poincare profiles.

Compression tables of Lipschitz embeddings, sphere-count tables, the profile
upper-bound evaluator in both its general and exponential-growth forms, the
gap-filling rearrangement that justifies it, the two-piece scale function of
lamp sequences, and the growth conditions on inverse compression functions.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, distance_matrix


@dataclass
class CompressionTable:
    """rho(t) sampled at integer t >= 0, non-decreasing, rho(0) = 0.

    ``lipschitz`` is the embedding's Lipschitz constant; ``rescaled`` records
    that the map was divided by it to make the table 1-Lipschitz.
    """

    values: tuple
    p: float
    lipschitz: float = 1.0
    rescaled: bool = False

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals or vals[0] != 0.0:
            raise ValueError("table must start with rho(0) = 0")
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            raise ValueError("compression table must be non-decreasing")
        object.__setattr__(self, "values", vals)

    @property
    def max_t(self) -> int:
        return len(self.values) - 1

    def rho(self, t: float) -> float:
        """rho at a real argument; distances are integers so rho(t) = rho(ceil t)."""
        idx = max(0, math.ceil(t))
        if idx > self.max_t:
            raise ValueError(f"compression table covers t <= {self.max_t}, got {t}")
        return self.values[idx]


def _lp_lengths(f: np.ndarray, u, v, p: float) -> np.ndarray:
    """l^p lengths of the rows f[u] - f[v], rounded like the scalar pow."""
    return np.float_power(np.sum(np.abs(f[u] - f[v]) ** p, axis=1), 1.0 / p)


def compression_function(G: Graph, f, p: float) -> CompressionTable:
    """Compression table of an embedding: rho(t) = min distance in l^p among
    vertex pairs at graph distance >= t.

    Pairs at infinite distance are skipped, so the table stops at the
    largest finite distance. A map with Lipschitz constant above 1 is
    rescaled and the constant recorded.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    n = G.vertex_count
    if f.shape[0] != n or not np.isfinite(f).all():
        raise ValueError("embedding must give every vertex a finite point")
    edges = np.array(G.edges, dtype=int).reshape(-1, 2)
    lip = float(_lp_lengths(f, edges[:, 0], edges[:, 1], p).max(initial=0.0))
    rescaled = lip > 1.0
    scale = 1.0 / lip if rescaled else 1.0
    u, v = np.triu_indices(n, 1)
    d = distance_matrix(G)[u, v]
    finite = np.isfinite(d)
    t = d[finite].astype(int)
    emb = scale * _lp_lengths(f, u[finite], v[finite], p)
    mins = np.full(int(t.max(initial=0)) + 1, math.inf)
    np.minimum.at(mins, t, emb)
    # rho(t) = min over pairs at distance >= t: suffix minimum.
    values = np.minimum.accumulate(mins[::-1])[::-1]
    values[0] = 0.0
    return CompressionTable(values=tuple(values), p=p,
                            lipschitz=lip, rescaled=rescaled)


@dataclass
class SphereTable:
    """sigma(n): an upper bound on the size of any radius-n sphere."""

    sigma: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(int(v) for v in self.sigma))
        if not self.sigma or self.sigma[0] < 1:
            raise ValueError("sigma(0) must be at least 1")

    @classmethod
    def from_graph(cls, G: Graph) -> "SphereTable":
        if G.vertex_count == 0:
            raise ValueError("sphere table needs at least one vertex")
        dist = distance_matrix(G)
        finite = np.isfinite(dist)
        diam = int(dist[finite].max())
        return cls(sigma=np.max(
            [np.bincount(row[ok].astype(int), minlength=diam + 1)
             for row, ok in zip(dist, finite)], axis=0))

    @property
    def degree_bound(self) -> int:
        return self.sigma[1] if len(self.sigma) > 1 else 0

    def K(self, N: int) -> int:
        """Largest K with sum_{n<=K} sigma(n) <= N."""
        total = 0
        K = -1
        for n, s in enumerate(self.sigma):
            if total + s > N:
                break
            total += s
            K = n
        if K < 0:
            raise ValueError(f"sigma(0) alone exceeds N = {N}")
        return K


def poincare_upper_bound(N: int, p: float, sigma: SphereTable,
                         rho: CompressionTable,
                         form: str = "general") -> float:
    """Upper bound on the Poincare profile at N from a 1-Lipschitz embedding.

    general: 2^((2p-1)/p) * sigma(1)^(1/p) * (N^(p+1) / sum_{n<=K}
    sigma(n) rho(n)^p)^(1/p) with K the largest index whose sphere counts
    sum to at most N. exponential: c1 * N / rho(c2 log N) with the explicit
    constants c1 = 2^((2p-1)/p) D^(3/p), c2 = 1/(2 log D) for D the degree
    bound, guarded by the 6N branch below N = D^4.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if form == "general":
        K = sigma.K(N)
        if K > rho.max_t:
            raise ValueError(
                f"compression table covers t <= {rho.max_t}, need K = {K}")
        denom = sum(sigma.sigma[n] * rho.values[n] ** p for n in range(K + 1))
        if denom == 0.0:
            return math.inf
        return (2.0 ** ((2 * p - 1) / p) * sigma.degree_bound ** (1.0 / p)
                * (N ** (p + 1) / denom) ** (1.0 / p))
    if form == "exponential":
        D = sigma.degree_bound
        if D < 2:
            raise ValueError("exponential form needs degree bound >= 2")
        if N < D ** 4:
            return 6.0 * N
        c1 = 2.0 ** ((2 * p - 1) / p) * D ** (3.0 / p)
        c2 = 1.0 / (2.0 * math.log(D))
        r = rho.rho(c2 * math.log(N))
        if r == 0.0:
            return math.inf
        return c1 * N / r
    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# Rearrangement


def rearrange_steps(h: Sequence[int], s: Sequence[int]):
    """The gap-filling rearrangement, yielding h after every elementary step.

    Requires 0 <= h(n) <= s(n). Repeatedly finds the first index where h
    falls short of s, fills the gap from the right, and carries the
    remainder; the total of h is preserved throughout.
    """
    h = [int(v) for v in h]
    if len(s) < len(h):
        raise ValueError("s must cover the support of h")
    s = [int(v) for v in s[:len(h)]]
    for i, (hv, sv) in enumerate(zip(h, s)):
        if hv < 0 or hv > sv:
            raise ValueError(f"need 0 <= h({i}) <= s({i}), got {hv} > {sv}")
    yield list(h)
    while True:
        i0 = next((i for i in range(len(h)) if h[i] < s[i]), None)
        if i0 is None:
            return
        if all(h[i] == 0 for i in range(i0 + 1, len(h))):
            return
        tail = sum(h[i0:])
        if tail < s[i0]:
            h[i0] = tail
            for i in range(i0 + 1, len(h)):
                h[i] = 0
            yield list(h)
            return
        acc = 0
        for j0 in range(i0, len(h)):
            acc += h[j0]
            if acc >= s[i0]:
                break
        delta = acc - s[i0]
        h[i0] = s[i0]
        for i in range(i0 + 1, j0):
            h[i] = 0
        h[j0] = delta
        yield list(h)


def rearrange(h: Sequence[int], s: Sequence[int]) -> list:
    """Final state of the rearrangement: a prefix equal to s, one slack
    entry, zeros after; total preserved."""
    out = None
    for out in rearrange_steps(h, s):
        pass
    return out


# ---------------------------------------------------------------------------
# Scale functions and growth conditions


@dataclass
class ScaleFunction:
    """Two-piece scale function of sequences (k_s, l_s), both increasing."""

    ks: tuple
    ls: tuple

    def __post_init__(self):
        ks = tuple(float(k) for k in self.ks)
        ls = tuple(float(l) for l in self.ls)
        if len(ks) != len(ls) or len(ks) < 2:
            raise ValueError("need matching k and l sequences, length >= 2")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("k must be strictly increasing")
        if any(b <= a for a, b in zip(ls, ls[1:])):
            raise ValueError("l must be strictly increasing")
        if ks[0] * ls[0] < 1:
            raise ValueError("k_0 * l_0 must be >= 1")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "ls", ls)

    @property
    def domain(self) -> tuple[float, float]:
        return (self.ks[0] * self.ls[0], self.ks[-1] * self.ls[-1])


def rho_delta(scale: ScaleFunction, x: float) -> float:
    """Piecewise evaluation: x/l_s on [k_s l_s, k_{s+1} l_s), the constant
    k_{s+1} on [k_{s+1} l_s, k_{s+1} l_{s+1})."""
    lo, hi = scale.domain
    if not (lo <= x < hi):
        raise ValueError(f"x = {x} outside covered range [{lo}, {hi})")
    ks, ls = scale.ks, scale.ls
    for s in range(len(ks) - 1):
        if ks[s] * ls[s] <= x < ks[s + 1] * ls[s]:
            return x / ls[s]
        if ks[s + 1] * ls[s] <= x < ks[s + 1] * ls[s + 1]:
            return ks[s + 1]
    raise AssertionError("piecewise ranges must cover the domain")


class MonotoneTable:
    """Strictly increasing samples with interpolation and a bisection inverse."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need at least two samples")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("x samples must be strictly increasing")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValueError("function samples must be strictly increasing")
        self.xs, self.ys = xs, ys

    @classmethod
    def sample(cls, fn, xs) -> "MonotoneTable":
        return cls(xs, [fn(x) for x in xs])

    def covers_value(self, y: float) -> bool:
        return self.ys[0] <= y <= self.ys[-1]

    def inverse(self, y: float) -> float:
        """Monotone bisection on the samples, linear between them."""
        if not self.covers_value(y):
            raise ValueError(f"value {y} outside sampled range")
        lo = min(bisect.bisect_right(self.ys, y), len(self.ys) - 1) - 1
        y0, y1 = self.ys[lo], self.ys[lo + 1]
        x0, x1 = self.xs[lo], self.xs[lo + 1]
        return x0 + (x1 - x0) * (y - y0) / (y1 - y0)


@dataclass
class ConditionReport:
    kind: str
    passed: bool
    worst_x: Optional[float]
    checked: int
    skipped: int


def check_condition(rho: MonotoneTable, kind: str, alpha: float = 0.0,
                    beta: float = 1.0, C: float = 1.0,
                    grid: Sequence[float] = ()) -> ConditionReport:
    """Grid check of the inverse-compression growth conditions.

    S_ab: rho^-1(x^(1/beta) / C) <= rho^-1(x) / x^(1-alpha); SSL is the
    alpha = 0, beta = 1 case. Grid points whose inverse arguments fall
    outside the sampled range are skipped; the report carries the largest
    violating x, if any.
    """
    if kind == "SSL":
        alpha, beta = 0.0, 1.0
    elif kind != "S_ab":
        raise ValueError(f"unknown condition kind {kind!r}")
    worst = None
    checked = skipped = 0
    for x in grid:
        lhs_arg = x ** (1.0 / beta) / C
        if not (rho.covers_value(lhs_arg) and rho.covers_value(x)):
            skipped += 1
            continue
        checked += 1
        lhs = rho.inverse(lhs_arg)
        rhs = rho.inverse(x) / x ** (1.0 - alpha)
        if lhs > rhs * (1 + 1e-9):
            if worst is None or x > worst:
                worst = x
    return ConditionReport(kind=kind, passed=worst is None, worst_x=worst,
                           checked=checked, skipped=skipped)
