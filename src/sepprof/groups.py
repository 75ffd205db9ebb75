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

    def __init__(self, table, A, B, *, _validated=False):
        if not _validated:
            raise TypeError("use validate_group() to construct a FiniteGroup")
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.A = tuple(A)
        self.B = tuple(B)
        self.identity = _find_identity(self.table)
        self.inverse = _inverse_table(self.table, self.identity)
        # proj is attached by validate_group.

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def proj_elements(self, x: int) -> tuple[int, int]:
        """(A-part, B-part) of x, as elements of A and B."""
        ia, ib = self.proj[x]
        return self.A[ia], self.B[ib]

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
    seen = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for x in frontier:
            for y in seen | set(nxt):
                for z in (table[x][y], table[y][x]):
                    if z not in seen and z not in nxt:
                        nxt.append(z)
        seen.update(nxt)
        frontier = nxt
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


def validate_group(table: Sequence[Sequence[int]], A: Sequence[int],
                   B: Sequence[int]) -> FiniteGroup:
    """Validate the table and designated subgroups; attach the projection.

    Raises GroupValidationError naming the first failed axiom:
    non-associativity, a subgroup not closed, A u B not generating, or the
    quotient by the commutator normal closure not matching A x B.
    """
    n = len(table)
    rows = [tuple(row) for row in table]
    for row in rows:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise GroupValidationError("table is not square over 0..n-1")
    T = np.array(rows, dtype=np.int64)
    # (xy)z == x(yz) for all triples, vectorized.
    left = T[T, :]
    right = np.take(T, T, axis=1)
    if not np.array_equal(left, right):
        raise GroupValidationError("table is non-associative")
    e = _find_identity(rows)
    inv = _inverse_table(rows, e)
    _check_subgroup(rows, inv, e, A, "A")
    _check_subgroup(rows, inv, e, B, "B")
    generated = _closure(rows, set(A) | set(B))
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
    group = FiniteGroup(rows, A, B, _validated=True)
    group.proj = proj
    return group


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


def direct_product_group(nA: int, nB: int) -> FiniteGroup:
    """Z_nA x Z_nB with the factors as designated subgroups."""
    table = direct_product_table(cyclic_table(nA), cyclic_table(nB))
    A = tuple(i * nB for i in range(nA))
    B = tuple(range(nB))
    return validate_group(table, A=A, B=B)


def symmetric_group_3_table():
    """S3 as permutations of {0,1,2} in lexicographic order."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(3))] for q in perms]
        for p in perms
    ]
    return table, perms


def write_group_file(group: FiniteGroup, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"order {group.order}\n")
        fh.write("table\n")
        for row in group.table:
            fh.write(" ".join(map(str, row)) + "\n")
        fh.write("A " + " ".join(map(str, group.A)) + "\n")
        fh.write("B " + " ".join(map(str, group.B)) + "\n")


def read_group_file(path) -> FiniteGroup:
    """Parse the structured text format: order, row-major table, A/B lists.

    The listed order of A and B is the cross-level correspondence.
    """
    order = None
    table = []
    A = B = None
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("order"):
            order = int(line.split()[1])
            i += 1
        elif line == "table":
            if order is None:
                raise ValueError("order must precede table")
            for j in range(order):
                table.append([int(v) for v in lines[i + 1 + j].split()])
            i += 1 + order
        elif line.startswith("A "):
            A = tuple(int(v) for v in line.split()[1:])
            i += 1
        elif line.startswith("B "):
            B = tuple(int(v) for v in line.split()[1:])
            i += 1
        else:
            raise ValueError(f"unrecognized line: {line!r}")
    if order is None or not table or A is None or B is None:
        raise ValueError("group file must define order, table, A and B")
    return validate_group(table, A, B)
