"""Truncated lamplighter diagonal products.

An element is a cursor position plus one finite-support lamp configuration
per level. The four generator families act by right translation: an abstract
A-generator writes its level-s image at cursor - k_s simultaneously on every
level, a B-generator writes at cursor + k_s, and tau moves the cursor. The
truncation to finitely many levels is itself a diagonal product, so every
identity verified here is stated on the truncated group.

The BFS, the range functions and the cocycle norms work on integer codes.
An element whose cursor c stays in a window [lo, hi] is coded as one
mixed-radix integer. Its low digit is the cursor offset c - lo, in base
hi - lo + 1. Then come, level by level and position by position, the lamps
at lo - k_s, ..., hi + k_s, the positions a generator can write to from
such a cursor. Each lamp is one base-|G_s| digit, with the group relabelled
so that its identity is digit 0. A generator reads and rewrites one digit
per level through the group table, so a BFS frontier steps as one array per
generator. ``DiagonalElement`` is the form at the API boundary. U_r is
never built as elements: ``in_range_set`` and ``cocycle_norms`` work from
the codes of the [0, r] cursor box.

Width rule: the digits are packed, in that order, into uint64 words, each
word taking the next digits while the product of their radices stays at
most 2^64. Every word value fits, so a code of any width is exact; a window
of at most 64 bits is one word, through the same code path. A code is a
row of words, lowest first, or one int (``graphs.mask_words`` and
``word_masks`` convert). A digit is rewritten as word + (new - old) *
place: uint64 arithmetic wraps modulo 2^64 in between, and the result is
an exact word value. Codes are compared, deduplicated and looked up row by
row through one stable lexicographic sort.

Budget rule: a BFS counts its elements one at a time in BFS order, the
identity first and then each word length in (frontier index, generator
index) order, first occurrence kept. It raises BudgetError at the first
element that takes the count past ``MAX_ELEMENTS`` (the identity is never
checked). A search for targets returns at a target that comes before that
element, even in the middle of a word length. The generators are closed
under inverses, so a generator image of a word-length-d element has word
length d - 1, d or d + 1, and only those two levels need to be searched to
tell whether an image is new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetError
from .graphs import Graph, mask_words, word_masks
from .groups import FiniteGroup

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


# ---------------------------------------------------------------------------
# Integer codes


_WORD = 1 << 64


class _Level(NamedTuple):
    base: int       # index of the level's first digit
    offset: int     # lamp position of that digit
    width: int
    order: int
    labels: tuple   # group element of each digit, identity first
    digit: dict     # digit of each group element
    table: np.ndarray  # product of digits, as digits


class _Window:
    """Integer codes of the elements whose cursor lies in [lo, hi].

    The layout, its width rule and why no arithmetic on it overflows are in
    the module docstring.
    """

    def __init__(self, spec: DiagonalSpec, lo: int, hi: int):
        self.lo, self.span = lo, hi - lo + 1
        radices = [self.span]
        self.levels = []
        for group, k in spec.levels:
            labels = (group.identity,) + tuple(
                x for x in group.elements() if x != group.identity)
            digit = {x: d for d, x in enumerate(labels)}
            table = np.array([[digit[group.mul(x, y)] for y in labels]
                              for x in labels], dtype=np.uint64)
            width = self.span + 2 * k
            self.levels.append(_Level(len(radices), lo - k, width, group.order,
                                      labels, digit, table))
            radices += [group.order] * width
        word_of, place_of, word, place = [], [], 0, 1
        for radix in radices:
            if place * radix > _WORD:
                word, place = word + 1, 1
            word_of.append(word)
            place_of.append(place)
            place *= radix
        self.words = word + 1
        self.word_of = np.array(word_of, dtype=np.intp)
        self.place_of = np.array(place_of, dtype=np.uint64)
        self.radix_of = np.array(radices, dtype=np.uint64)
        # digit * key_place[digit], summed over the digits, is the code as
        # one Python int, sum_w word_w << 64 w
        self.key_place = [p << (64 * w) for w, p in zip(word_of, place_of)]

    def identity(self) -> np.ndarray:
        codes = np.zeros((1, self.words), dtype=np.uint64)
        codes[0, 0] = -self.lo
        return codes

    def cursors(self, codes: np.ndarray) -> np.ndarray:
        """Cursor offsets c - lo: the low digit of word 0."""
        return (codes[:, 0] % np.uint64(self.span)).astype(np.intp)

    def decode(self, codes: np.ndarray) -> list:
        digits = codes[:, self.word_of] // self.place_of % self.radix_of
        per_level = []
        for level in self.levels:
            block = digits[:, level.base:level.base + level.width]
            rows, cols = np.nonzero(block)
            entries = [[] for _ in range(len(codes))]
            for row, col, d in zip(rows.tolist(), cols.tolist(),
                                   block[rows, cols].tolist()):
                entries[row].append((level.offset + col, level.labels[d]))
            per_level.append([tuple(e) for e in entries])
        return [DiagonalElement(c, tuple(lamps[i] for lamps in per_level))
                for i, c in enumerate(
                    (digits[:, 0].astype(np.intp) + self.lo).tolist())]

    def lamp_key(self, lamps: tuple, shift: int):
        """The code as one Python int, cursor digit 0, of the lamps ``lamps``
        translated by ``shift``; None if one falls outside the window."""
        key = 0
        for level, entries in zip(self.levels, lamps):
            for pos, elem in entries:
                index = pos + shift - level.offset
                if not 0 <= index < level.width:
                    return None
                key += level.digit[elem] * self.key_place[level.base + index]
        return key

    def translate(self, codes: np.ndarray, z: DiagonalElement):
        """Codes of the right translates u z of the rows u of ``codes``, and
        whether each lies in the window (a row outside it holds no code)."""
        cursor = self.cursors(codes)
        after = cursor + z.cursor
        inside = (after >= 0) & (after < self.span)
        writes = []
        for level, entries in zip(self.levels, z.lamps):
            for pos, elem in entries:
                # u z multiplies u's lamp at (u's cursor) + pos by elem
                index = cursor + (self.lo + pos - level.offset)
                inside &= (index >= 0) & (index < level.width)
                writes.append((level, index, level.digit[elem]))
        out = codes.copy()
        out[:, 0] += np.uint64(z.cursor % _WORD)
        rows = np.arange(len(codes))
        for level, index, elem in writes:
            digit = level.base + np.where(inside, index, 0)
            word, place = self.word_of[digit], self.place_of[digit]
            old = out[rows, word] // place % np.uint64(level.order)
            out[rows, word] += (level.table[old, elem] - old) * place
        return out, inside


def _first_equal(codes: np.ndarray) -> np.ndarray:
    """For each code (row), the index of the first row equal to it. Not
    ``profiles._first_rows``' void argsort: on these rows lexsort is faster
    (on a 2-vCPU VM the cocycle suite took 15-16 ms, against 19-21 ms with
    the void argsort)."""
    order = np.lexsort(codes.T)
    ordered = codes[order]
    head = np.ones(len(codes), dtype=bool)
    head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = np.empty(len(codes), dtype=np.intp)
    # lexsort is stable, so each run of equal rows starts at its first row
    first[order] = order[head][np.cumsum(head) - 1]
    return first


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct rows of ``codes``, first occurrences in order."""
    return codes[_first_equal(codes) == np.arange(len(codes))]


def _find(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The index in ``table`` of each query row, -1 where it is absent."""
    first = _first_equal(np.concatenate([table, queries]))[len(table):]
    return np.where(first < len(table), first, -1)


def _neighbours(win: _Window, gens: list, codes: np.ndarray):
    """The generator images of ``codes`` in (row, generator) order, and
    which of them keep the cursor in the window."""
    images = [win.translate(codes, g) for g in gens]
    return (np.stack([c for c, _ in images], axis=1).reshape(-1, win.words),
            np.stack([inside for _, inside in images], axis=1).ravel())


def _generator_elements(spec: DiagonalSpec) -> list:
    return [apply_generator(spec, spec.identity(), gen)
            for gen in spec.generators()]


# ---------------------------------------------------------------------------
# Word-metric machinery


class BallResult(NamedTuple):
    elements: tuple
    word_length: dict


def _bfs(win: _Window, gens: list, radius: float, targets=None):
    """The BFS from the identity over words of length <= radius whose
    cursor stays in the window: one code array per word length, in
    first-seen order, or None as soon as it meets a row of ``targets``.
    Raises BudgetError past ``MAX_ELEMENTS`` elements, counted in BFS order
    (module docstring)."""
    frontier = win.identity()
    levels = [frontier]
    if targets is not None and (_find(frontier, targets) >= 0).any():
        return None
    previous = frontier[:0]
    count, d = 1, 0
    while len(frontier) and d < radius:
        d += 1
        images, inside = _neighbours(win, gens, frontier)
        images = images[inside]
        pool = np.concatenate([previous, frontier, images])
        seen = len(pool) - len(images)
        new = images[_first_equal(pool)[seen:] == np.arange(seen, len(pool))]
        room = max(MAX_ELEMENTS - count, 0)
        if targets is not None:
            hits = _find(new, targets)
            hits = hits[hits >= 0]
            if len(hits) and hits.min() <= room:
                return None
        if len(new) > room:
            raise BudgetError(
                f"BFS exceeded {MAX_ELEMENTS} elements at word length {d}")
        count += len(new)
        levels.append(new)
        previous, frontier = frontier, new
    return levels


def ball(spec: DiagonalSpec, radius: int) -> BallResult:
    """BFS ball around the identity: its elements and their word lengths."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    win = _Window(spec, -radius, radius)
    gens = _generator_elements(spec)
    levels = _bfs(win, gens, radius)
    codes = np.concatenate(levels)
    elements = tuple(win.decode(codes))
    dist = dict(zip(elements, np.repeat(
        np.arange(len(levels)), [len(level) for level in levels]).tolist()))
    return BallResult(elements, dist)


def range_of(spec: DiagonalSpec, z: DiagonalElement, window: int) -> int:
    """Minimal cursor-interval diameter over all words representing z.

    z is reached with the cursor confined to [lo, lo + d] exactly when
    t^-lo z is reached within [0, d], so one confined BFS per diameter d
    looks for every such translate at once. Raises BudgetError if the
    window is exhausted without reaching z.
    """
    gens = _generator_elements(spec)
    lo_req, hi_req = min(0, z.cursor), max(0, z.cursor)
    for d in range(hi_req - lo_req, window + 1):
        win = _Window(spec, 0, d)
        # t^-lo z has the cursor z.cursor - lo, in [0, d] for these lo; it
        # is no target when one of its lamps falls outside the window
        keys = ((win.lamp_key(z.lamps, -lo), z.cursor - lo)
                for lo in range(hi_req - d, lo_req + 1))
        targets = mask_words([key + c for key, c in keys if key is not None],
                             win.words)
        if _bfs(win, gens, math.inf, targets) is None:
            return d
    raise BudgetError(
        f"element not reachable within cursor window {window}")


def _box_configs(spec: DiagonalSpec, r: int):
    """The window of the cursor box [0, r] and the distinct lamp
    configurations its BFS reaches, as codes with cursor digit 0."""
    win = _Window(spec, 0, r)
    codes = np.concatenate(_bfs(win, _generator_elements(spec), math.inf))
    codes[:, 0] -= codes[:, 0] % np.uint64(win.span)
    return win, _distinct(codes)


def in_range_set(spec: DiagonalSpec, r: int):
    """Membership in U_r, the elements of range <= r: the union of the
    diameter-r cursor boxes [lo, lo + r], -r <= lo <= 0. The box
    [lo, lo + r] is the left translate by t^lo of the box [0, r], and tau
    moves the cursor freely within a box, so the [0, r] box is every cursor
    in [0, r] with every lamp configuration its BFS reaches. z, with cursor
    c, is in the box [lo, lo + r] exactly when lo is in
    [max(-r, c - r), min(0, c)] and t^-lo z has one of those lamp
    configurations."""
    win, codes = _box_configs(spec, r)
    configs = set(word_masks(codes))

    def contains(z: DiagonalElement) -> bool:
        c = z.cursor
        return any(win.lamp_key(z.lamps, -lo) in configs
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
    U_r (``in_range_set``) with |cursor| < r. The support is coded in the
    window [-r, r] from each lamp configuration of the [0, r] box: its
    translate into the box [lo, lo + r], with cursor c, has the code
    ``lamp_key(lamps, lo) + c + r``, for lo in [-r, 0] and c in
    [lo, lo + r] with |c| < r. ``lamp_key`` never returns None here, as the
    box [0, r] shifted by lo in [-r, 0] stays inside the window [-r, r].
    For each g, all the translates u g are formed as codes at once and
    looked up among the support's codes.

    The sums do not depend on the order of the support. Every tent value
    1 - |cursor|/r is a multiple of 2^-j, so every product, partial sum and
    difference is a multiple of 4^-j of at most (support size) * 4^j units,
    far below 2^53: each of them is exact, and only the final quotient and
    square root round.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    r = 2 ** j
    box, configs = _box_configs(spec, r)
    win = _Window(spec, -r, r)
    keys = set()
    for z in box.decode(configs):
        for lo in range(-r, 1):
            key = win.lamp_key(z.lamps, lo) - win.lo
            keys.update(key + c for c in range(max(lo, 1 - r),
                                               min(lo + r, r - 1) + 1))
    support = mask_words(keys, win.words)
    phi = 1.0 - np.abs(win.cursors(support) + win.lo) / r
    norm_sq = float((phi * phi).sum())

    def distance_sq(g: DiagonalElement) -> float:
        images, inside = win.translate(support, g)
        at = np.full(len(support), -1)
        at[inside] = _find(support, images[inside])
        inner = float((phi * np.where(at >= 0, phi[at], 0.0)).sum())
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

