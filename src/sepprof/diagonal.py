"""Truncated lamplighter diagonal products.

An element is a cursor position plus one finite-support lamp configuration
per level. The four generator families act by right translation: an abstract
A-generator writes its level-s image at cursor - k_s simultaneously on every
level, a B-generator writes at cursor + k_s, and tau moves the cursor. The
truncation to finitely many levels is itself a diagonal product, so every
identity verified here is stated on the truncated group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import BudgetError
from .graphs import Graph
from .groups import FiniteGroup, read_group_file

# The most elements any one BFS here may reach before it raises BudgetError.
MAX_ELEMENTS = 500_000


class DiagonalElement(NamedTuple):
    cursor: int
    # lamps[s] is a sorted tuple of (position, element index), identities omitted
    lamps: tuple


@dataclass
class DiagonalSpec:
    """Levels (group, k_s) with k_0 = 0 and k_{s+1} > 2 k_s.

    All levels must designate A and B subgroups of a common abstract shape:
    the listed orders define bijections that are checked to be isomorphisms
    against level 0.
    """

    levels: tuple

    def __init__(self, levels: Sequence[tuple[FiniteGroup, int]]):
        levels = tuple((g, int(k)) for g, k in levels)
        if not levels:
            raise ValueError("need at least one level")
        if levels[0][1] != 0:
            raise ValueError("k_0 must be 0")
        for s in range(len(levels) - 1):
            if levels[s + 1][1] <= 2 * levels[s][1]:
                raise ValueError(
                    f"k_{s + 1} = {levels[s + 1][1]} must exceed 2*k_{s} = "
                    f"{2 * levels[s][1]}")
        g0 = levels[0][0]
        for s, (g, _) in enumerate(levels[1:], start=1):
            _check_correspondence(g0, g, s, "A")
            _check_correspondence(g0, g, s, "B")
        self.levels = levels

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def group(self, s: int) -> FiniteGroup:
        return self.levels[s][0]

    def k(self, s: int) -> int:
        return self.levels[s][1]

    def identity(self) -> DiagonalElement:
        return DiagonalElement(0, tuple(() for _ in self.levels))

    def a_positions(self):
        """Abstract A-generator positions (identity excluded)."""
        g0 = self.group(0)
        return tuple(i for i, a in enumerate(g0.A) if a != g0.identity)

    def b_positions(self):
        g0 = self.group(0)
        return tuple(i for i, b in enumerate(g0.B) if b != g0.identity)

    def generators(self):
        gens = [("a", i) for i in self.a_positions()]
        gens += [("b", i) for i in self.b_positions()]
        gens += [("tau", 1), ("tau", -1)]
        return tuple(gens)


def _check_correspondence(g0: FiniteGroup, g: FiniteGroup, s: int, which: str):
    sub0 = getattr(g0, which)
    sub = getattr(g, which)
    if len(sub0) != len(sub):
        raise ValueError(f"level {s}: |{which}| differs from level 0")
    pos0 = {el: i for i, el in enumerate(sub0)}
    for i, x in enumerate(sub0):
        for j, y in enumerate(sub0):
            if pos0[g0.mul(x, y)] != sub.index(g.mul(sub[i], sub[j])):
                raise ValueError(
                    f"level {s}: {which} correspondence is not an isomorphism")


def _lamp_mul(entries: dict, pos: int, elem: int, group: FiniteGroup) -> None:
    """Right-multiply the lamp at ``pos`` by ``elem``, dropping it at the identity."""
    new = group.mul(entries.get(pos, group.identity), elem)
    if new == group.identity:
        entries.pop(pos, None)
    else:
        entries[pos] = new


def apply_generator(spec: DiagonalSpec, z: DiagonalElement, gen) -> DiagonalElement:
    """Right translation of z by one generator."""
    kind, arg = gen
    if kind == "tau":
        if arg not in (1, -1):
            raise ValueError("tau exponent must be +-1")
        return DiagonalElement(z.cursor + arg, z.lamps)
    lamps = list(z.lamps)
    for s, (group, k) in enumerate(spec.levels):
        if kind == "a":
            elem = group.A[arg]
            pos = z.cursor - k
        elif kind == "b":
            elem = group.B[arg]
            pos = z.cursor + k
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        if elem != group.identity:
            entries = dict(lamps[s])
            _lamp_mul(entries, pos, elem, group)
            lamps[s] = tuple(sorted(entries.items()))
    return DiagonalElement(z.cursor, tuple(lamps))


def multiply(spec: DiagonalSpec, z1: DiagonalElement,
             z2: DiagonalElement) -> DiagonalElement:
    """Product rule (f, i)(g, j) = (h, i + j) with h_x = f_x g_{x-i}."""
    lamps = []
    for s, (group, _) in enumerate(spec.levels):
        entries = dict(z1.lamps[s])
        for pos, elem in z2.lamps[s]:
            _lamp_mul(entries, pos + z1.cursor, elem, group)
        lamps.append(tuple(sorted(entries.items())))
    return DiagonalElement(z1.cursor + z2.cursor, tuple(lamps))


def inverse(spec: DiagonalSpec, z: DiagonalElement) -> DiagonalElement:
    lamps = []
    for s, (group, _) in enumerate(spec.levels):
        lamps.append(tuple(sorted(
            (pos - z.cursor, group.inv(elem)) for pos, elem in z.lamps[s])))
    return DiagonalElement(-z.cursor, tuple(lamps))


# ---------------------------------------------------------------------------
# Word-metric machinery


class BallResult(NamedTuple):
    elements: tuple
    word_length: dict
    graph: Graph


def _bfs(spec: DiagonalSpec, lo: int, hi: int, radius: float):
    """Yield (element, word length) in BFS order from the identity, over
    words of length <= radius whose cursor stays in [lo, hi]. Raises
    BudgetError past ``MAX_ELEMENTS`` elements."""
    gens = spec.generators()
    start = spec.identity()
    seen = {start}
    yield start, 0
    frontier = [start]
    d = 0
    while frontier and d < radius:
        d += 1
        nxt = []
        for z in frontier:
            for gen in gens:
                w = apply_generator(spec, z, gen)
                if not (lo <= w.cursor <= hi) or w in seen:
                    continue
                seen.add(w)
                nxt.append(w)
                yield w, d
                if len(seen) > MAX_ELEMENTS:
                    raise BudgetError(
                        f"BFS exceeded {MAX_ELEMENTS} elements at word "
                        f"length {d}")
        frontier = nxt


def _shift_lamps(lamps: tuple, by: int) -> tuple:
    """The lamps of t^by * z, where z has the lamps ``lamps``."""
    return tuple(tuple((pos + by, e) for pos, e in level) for level in lamps)


def ball(spec: DiagonalSpec, radius: int) -> BallResult:
    """BFS ball around the identity and the induced Cayley graph."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dist = dict(_bfs(spec, -radius, radius, radius))
    index = {z: i for i, z in enumerate(dist)}
    gens = spec.generators()
    edges = []
    for z, i in index.items():
        for gen in gens:
            w = apply_generator(spec, z, gen)
            j = index.get(w)
            if j is not None and i < j:
                edges.append((i, j))
    graph = Graph(len(index), edges, labels=list(index))
    return BallResult(tuple(index), dist, graph)


def range_of(spec: DiagonalSpec, z: DiagonalElement, window: int) -> int:
    """Minimal cursor-interval diameter over all words representing z.

    z is reached with the cursor confined to [lo, lo + d] exactly when
    t^-lo z is reached within [0, d], so one confined BFS per diameter d
    looks for every such translate at once. Raises BudgetError if the
    window is exhausted without reaching z.
    """
    lo_req, hi_req = min(0, z.cursor), max(0, z.cursor)
    for d in range(hi_req - lo_req, window + 1):
        targets = {DiagonalElement(z.cursor - lo, _shift_lamps(z.lamps, -lo))
                   for lo in range(hi_req - d, lo_req + 1)}
        if not targets.isdisjoint(
                w for w, _ in _bfs(spec, 0, d, math.inf)):
            return d
    raise BudgetError(
        f"element not reachable within cursor window {window}")


def _box_configs(spec: DiagonalSpec, r: int) -> set:
    """The lamp configurations the BFS confined to the cursor box [0, r]
    reaches."""
    return {w.lamps for w, _ in _bfs(spec, 0, r, math.inf)}


def range_set(spec: DiagonalSpec, r: int) -> frozenset:
    """U_r: all elements of range <= r (union of diameter-r cursor boxes).

    The box [lo, lo + r] is the left translate by t^lo of the box [0, r],
    and tau moves the cursor freely within a box, so the [0, r] box is
    every cursor in [0, r] with every lamp configuration its BFS reaches.
    """
    configs = _box_configs(spec, r)

    def members():
        for lamps in configs:
            for lo in range(-r, 1):
                # one translated tuple, shared by the r + 1 cursors
                shifted = _shift_lamps(lamps, lo)
                for c in range(lo, lo + r + 1):
                    yield DiagonalElement(c, shifted)

    return frozenset(members())


def in_range_set(spec: DiagonalSpec, r: int):
    """Membership in U_r (``range_set``) without building it: z, with
    cursor c, is in the box [lo, lo + r] exactly when lo is in
    [max(-r, c - r), min(0, c)] and t^-lo z has one of the [0, r] box's
    lamp configurations."""
    configs = _box_configs(spec, r)

    def contains(z: DiagonalElement) -> bool:
        c = z.cursor
        return any(_shift_lamps(z.lamps, -lo) in configs
                   for lo in range(max(-r, c - r), min(0, c) + 1))

    return contains


def cocycle_norms(spec: DiagonalSpec, j: int,
                  zs: Sequence[DiagonalElement]) -> list[float]:
    """Norms of the j-th range-detecting cocycle at each element of zs.

    phi_r is the tent function on U_r (r = 2^j); the cocycle value at z is
    ||phi_r - (phi_r translated by z)||_2 / ||grad phi_r||_2, the gradient
    taken along tau only since A- and B-translates leave phi_r invariant.
    Right translation by g permutes the group, so the squared distance
    between phi_r and its translate by g is 2 (||phi_r||^2 - <phi_r,
    phi_r(. g)>), for g = z in the numerator and g = tau in the gradient;
    each inner product is one sum over the support of phi_r, the members of
    U_r with |cursor| < r. U_r and the gradient are computed once for all of
    zs.

    The sums do not depend on the iteration order of the sets. Every tent
    value 1 - |cursor|/r is a multiple of 2^-j, so every product, partial
    sum and difference is a multiple of 4^-j of at most (set size) * 4^j
    units, far below 2^53: each of them is exact, and only the final
    quotient and square root round.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    r = 2 ** j
    phi = {u: 1.0 - abs(u.cursor) / r for u in range_set(spec, r)
           if abs(u.cursor) < r}
    norm_sq = sum(value * value for value in phi.values())

    def distance_sq(g: DiagonalElement) -> float:
        inner = sum(value * phi.get(multiply(spec, u, g), 0.0)
                    for u, value in phi.items())
        return 2.0 * (norm_sq - inner)

    grad_sq = distance_sq(apply_generator(spec, spec.identity(), ("tau", 1)))
    if grad_sq == 0.0:
        raise ValueError("gradient of phi_r vanishes")
    return [math.sqrt(distance_sq(z) / grad_sq) for z in zs]


# ---------------------------------------------------------------------------
# Lamp-graph embedding


class EmbeddingReport(NamedTuple):
    vertex_map: dict
    injective: bool
    violations: tuple
    lamp_graph: Graph


def embed_lamp_graph(spec: DiagonalSpec, s: int, r: int) -> EmbeddingReport:
    """Map the level-s distorted lamp graph into the diagonal product.

    A lamp-graph vertex ((x_{-r},...,x_r), i) goes to the element with
    cursor i whose level-s lamps are the x_j at positions j, and whose other
    levels carry the subgroup parts of x_j: the A-part at j + k_s - k_s' and
    the B-part at j - k_s + k_s'. Requires r <= k_s / 2, which makes those
    write windows disjoint. Every lamp-graph edge is checked to map onto a
    generator relation; the report lists any violation.
    """
    from .constructions import LampGraphSpec, distorted_lamp_graph

    if not (0 <= s < spec.level_count):
        raise ValueError("level index out of range")
    k_s = spec.k(s)
    if 2 * r > k_s:
        raise ValueError(f"embedding needs r <= k_s/2, got r={r}, k_s={k_s}")
    group_s = spec.group(s)
    lamp = distorted_lamp_graph(LampGraphSpec(group_s, k_s, r))

    def image(label) -> DiagonalElement:
        xs, i = label
        lamps = []
        for t, (group_t, k_t) in enumerate(spec.levels):
            entries = {}
            for idx, x in enumerate(xs):
                j = idx - r
                if t == s:
                    _lamp_mul(entries, j, x, group_t)
                    continue
                pa, pb = group_s.proj_abstract(x)
                _lamp_mul(entries, j + k_s - k_t, group_t.A[pa], group_t)
                _lamp_mul(entries, j - k_s + k_t, group_t.B[pb], group_t)
            lamps.append(tuple(sorted(entries.items())))
        return DiagonalElement(i, tuple(lamps))

    vertex_map = {lamp.label(v): image(lamp.label(v))
                  for v in range(lamp.vertex_count)}
    injective = len(set(vertex_map.values())) == len(vertex_map)
    a_of = {group_s.A[i]: ("a", i) for i in range(len(group_s.A))}
    b_of = {group_s.B[i]: ("b", i) for i in range(len(group_s.B))}
    violations = []
    for u, v in lamp.edges:
        lu, lv = lamp.label(u), lamp.label(v)
        zu, zv = vertex_map[lu], vertex_map[lv]
        if lu[1] != lv[1]:
            gen = ("tau", lv[1] - lu[1])
        else:
            (coord,) = [idx for idx in range(2 * r + 1) if lu[0][idx] != lv[0][idx]]
            step = group_s.mul(group_s.inv(lu[0][coord]), lv[0][coord])
            j = coord - r
            if lu[1] == j + k_s and step in a_of:
                gen = a_of[step]
            elif lu[1] == j - k_s and step in b_of:
                gen = b_of[step]
            else:
                violations.append((lu, lv, "edge is not a generator relation"))
                continue
        if apply_generator(spec, zu, gen) != zv:
            violations.append((lu, lv, f"images differ by more than {gen}"))
    return EmbeddingReport(vertex_map=vertex_map, injective=injective,
                           violations=tuple(violations), lamp_graph=lamp)


# ---------------------------------------------------------------------------
# Spec files


def read_diagonal_spec(path) -> DiagonalSpec:
    """Spec file: one "level <group file> <k_s>" line per level, in order."""
    import os

    base = os.path.dirname(os.path.abspath(path))
    levels = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] != "level" or len(parts) != 3:
                raise ValueError(f"bad spec line: {line!r}")
            group = read_group_file(os.path.join(base, parts[1]))
            levels.append((group, int(parts[2])))
    return DiagonalSpec(levels)
