"""Multiplication-table finite groups with two designated subgroups.

A group enters the system through :func:`validate_group`, which checks the
axioms, that the two subgroups are closed and jointly generating, and that
the quotient by the normal closure of their commutators is the direct
product of the subgroups. That quotient gives each element a well-defined
pair of subgroup parts, exposed as ``proj``.

The order in which the ``A`` (resp. ``B``) elements are listed is the
correspondence used to identify the subgroup with its abstract copy across
different groups (needed when several groups share the same lamp alphabet).
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .graphs import Graph


class GroupValidationError(ValueError):
    pass


class FiniteGroup:
    """Validated group; construct via validate_group or the factories."""

    def __init__(self, table, A, B, identity, inverse, proj, *,
                 _validated=False):
        if not _validated:
            raise TypeError("use validate_group() to construct a FiniteGroup")
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.A = tuple(A)
        self.B = tuple(B)
        self.identity = identity
        self.inverse = inverse
        self.proj = proj

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def proj_abstract(self, x: int) -> tuple[int, int]:
        """(A-part, B-part) of x as positions in the A and B lists."""
        return self.proj[x]

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, |A|={len(self.A)}, |B|={len(self.B)})"


def _find_identity(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise GroupValidationError("no identity element")


def _inverse_table(table, e) -> tuple:
    n = len(table)
    inv = [-1] * n
    for x in range(n):
        for y in range(n):
            if table[x][y] == e and table[y][x] == e:
                inv[x] = y
                break
        if inv[x] == -1:
            raise GroupValidationError(f"element {x} has no inverse")
    return tuple(inv)


def _closure(table, seed) -> frozenset:
    """The subgroup seed generates: in a finite group, the set of all
    products of its elements, found by right-multiplying by seed."""
    seen = set(seed)
    frontier = set(seed)
    while frontier:
        products = {table[x][s] for x in frontier for s in seed}
        frontier = products - seen
        seen |= frontier
    return frozenset(seen)


def _check_subgroup(table, inv, e, sub, name: str) -> None:
    subset = set(sub)
    if e not in subset:
        raise GroupValidationError(f"{name} does not contain the identity")
    for x in sub:
        if inv[x] not in subset:
            raise GroupValidationError(f"{name} not closed under inverse")
        for y in sub:
            if table[x][y] not in subset:
                raise GroupValidationError(f"{name} not closed under product")
    if len(subset) != len(tuple(sub)):
        raise GroupValidationError(f"{name} has repeated elements")


def _associative(T: np.ndarray, gens) -> bool:
    """(xs)y == x(sy) for every x, y and every s of gens, one (n, n) pair of
    arrays per s."""
    return all(np.array_equal(T[T[:, s]], T[:, T[s]]) for s in gens)


def validate_group(table: Sequence[Sequence[int]], A: Sequence[int],
                   B: Sequence[int]) -> FiniteGroup:
    """Validate the table and designated subgroups; attach the projection.

    Raises GroupValidationError naming the first failed check, in this
    order: the table square over 0..n-1, the A and B entries in 0..n-1,
    associativity, an identity, inverses, A and B subgroups, A u B
    generating, and the quotient by the commutator normal closure matching
    A x B.

    Associativity takes memory of order n^2, not n^3: (xs)y == x(sy) is
    compared for one s at a time. The s that pass are closed under products
    (Light's test: if s and t pass, (x(st))y = ((xs)t)y = (xs)(ty) =
    x(s(ty)) = x((st)y)). So when the products of A u B, computed first,
    fill the table, passing on A u B alone proves the table associative;
    otherwise every s is compared.
    """
    n = len(table)
    rows = [tuple(row) for row in table]
    for row in rows:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise GroupValidationError("table is not square over 0..n-1")
    for name, sub in (("A", A), ("B", B)):
        for x in sub:
            if not 0 <= x < n:
                raise GroupValidationError(
                    f"{name} has element {x} outside 0..{n - 1}")
    generated = _closure(rows, set(A) | set(B))
    gens = sorted(set(A) | set(B)) if len(generated) == n else range(n)
    if not _associative(np.array(rows, dtype=np.intp), gens):
        raise GroupValidationError("table is non-associative")
    e = _find_identity(rows)
    inv = _inverse_table(rows, e)
    _check_subgroup(rows, inv, e, A, "A")
    _check_subgroup(rows, inv, e, B, "B")
    if len(generated) != n:
        raise GroupValidationError("A u B is not generating")
    # Normal closure of the commutators [a, b].
    commutators = {
        rows[rows[inv[a]][inv[b]]][rows[a][b]]
        for a in A for b in B
    }
    conjugates = {rows[rows[inv[g]][c]][g] for g in range(n) for c in commutators}
    N = _closure(rows, conjugates | {e})
    q = n // len(N)
    if n % len(N) or q != len(A) * len(B):
        raise GroupValidationError(
            f"quotient by [A,B] normal closure has order {n // len(N)}"
            f"{'' if n % len(N) == 0 else ' (non-integral)'}, "
            f"expected |A|*|B| = {len(A) * len(B)}")
    coset_of = [min(rows[x][m] for m in N) for x in range(n)]
    mu = {}
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            mu[coset_of[rows[a][b]]] = (i, j)
    if len(mu) != len(A) * len(B):
        raise GroupValidationError("A x B does not map bijectively onto the quotient")
    proj = tuple(mu[coset_of[x]] for x in range(n))
    return FiniteGroup(rows, A, B, e, inv, proj, _validated=True)


def cayley_graph(group: FiniteGroup) -> Graph:
    """Cayley graph with respect to (A u B) minus the identity."""
    gens = [g for g in set(group.A) | set(group.B) if g != group.identity]
    edges = [
        (x, group.mul(x, g))
        for x in group.elements() for g in gens
        if x != group.mul(x, g)
    ]
    return Graph(group.order, edges, labels=list(group.elements()))


# ---------------------------------------------------------------------------
# Factories and file format


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def direct_product_table(t1, t2):
    """Product table with element (x, y) encoded as x*len(t2)+y."""
    n1, n2 = len(t1), len(t2)
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for x1, y1 in itertools.product(range(n1), range(n2)):
        for x2, y2 in itertools.product(range(n1), range(n2)):
            table[x1 * n2 + y1][x2 * n2 + y2] = t1[x1][x2] * n2 + t2[y1][y2]
    return table


def klein_four() -> FiniteGroup:
    """Z2 x Z2 with A the first factor and B the second."""
    table = direct_product_table(cyclic_table(2), cyclic_table(2))
    return validate_group(table, A=(0, 2), B=(0, 1))


def read_group_file(path) -> FiniteGroup:
    """Parse the structured text format: an ``order n`` line, a ``table``
    line followed by the n rows of the row-major table, and ``A`` and ``B``
    lines listing the subgroups, each once. Blank lines and lines starting
    with ``#`` are skipped. A malformed or repeated line, or a table cut
    short, raises ValueError naming the file and the line.

    The listed order of A and B is the cross-level correspondence.
    """
    with open(path) as fh:
        lines = [(number, ln.split()) for number, ln in enumerate(fh, start=1)
                 if ln.strip() and not ln.startswith("#")]

    def fail(number, message):
        raise ValueError(f"{path} line {number}: {message}")

    def ints(number, fields):
        try:
            return [int(v) for v in fields]
        except ValueError:
            fail(number, f"expected integers, got {' '.join(fields)!r}")

    first, i = {}, 0
    order = table = A = B = None
    while i < len(lines):
        number, (key, *fields) = lines[i]
        if (key not in ("order", "table", "A", "B")
                or key == "table" and fields):
            fail(number, f"unrecognized line: {' '.join([key, *fields])!r}")
        if key in first:
            fail(number, f"repeated {key!r} line, first at line {first[key]}")
        first[key] = number
        i += 1
        if key == "order":
            if len(fields) != 1:
                fail(number, "order line needs one number")
            (order,) = ints(number, fields)
            if order < 1:
                fail(number, f"order must be at least 1, got {order}")
        elif key == "table":
            if order is None:
                fail(number, "order must precede table")
            rows = lines[i:i + order]
            if len(rows) < order:
                fail(number, f"table has {len(rows)} rows, order {order}")
            table = [ints(n, row) for n, row in rows]
            i += order
        elif key == "A":
            A = tuple(ints(number, fields))
        else:
            B = tuple(ints(number, fields))
    if table is None or A is None or B is None:
        raise ValueError(f"{path}: group file must define order, table, "
                         "A and B")
    return validate_group(table, A, B)
