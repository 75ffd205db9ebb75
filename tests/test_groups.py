import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_files import write_group_file
from sepprof.groups import (FiniteGroup, GroupValidationError, cayley_graph,
                            cyclic_table, direct_product_table, klein_four,
                            read_group_file, validate_group)


def z2_z3():
    """Z2 x Z3 with the factors as A and B; (x, y) is element 3x + y."""
    table = direct_product_table(cyclic_table(2), cyclic_table(3))
    return validate_group(table, A=(0, 3), B=(0, 1, 2))


def s3_table():
    """S3 as the permutations of {0,1,2} in lexicographic order; entry
    [p][q] is the composite p(q(i))."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
             for p in perms]
    return table, perms


def assert_splits(g):
    """Every element is the product of its A-part and its B-part."""
    for x in g.elements():
        ia, ib = g.proj_abstract(x)
        assert g.mul(g.A[ia], g.B[ib]) == x


def test_klein_four_projection_splits():
    g = klein_four()
    assert g.order == 4 and g.identity == 0
    # abelian with A, B the factors: proj is the identity splitting
    assert_splits(g)


def test_constructor_requires_validation():
    with pytest.raises(TypeError):
        FiniteGroup(cyclic_table(3), (0,), (0,), 0, (0, 2, 1),
                    ((0, 0),) * 3)


def test_s3_quotient_failure():
    table, perms = s3_table()
    e = perms.index((0, 1, 2))
    a = perms.index((1, 0, 2))      # the transposition (01)
    b = perms.index((1, 2, 0))      # a 3-cycle
    b2 = perms.index((2, 0, 1))
    with pytest.raises(GroupValidationError, match="order 2"):
        validate_group(table, A=(e, a), B=(e, b, b2))


def test_not_generating():
    table, perms = s3_table()
    e = perms.index((0, 1, 2))
    a = perms.index((1, 0, 2))
    with pytest.raises(GroupValidationError, match="not generating"):
        validate_group(table, A=(e, a), B=(e, a))


def test_non_associative_rejected():
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(GroupValidationError):
        validate_group(table, A=(0,), B=(0,))


def drawn_table(rng):
    """A small group table relabelled at random, then often broken: one or
    two entries redrawn, two rows swapped (a Latin square, rarely a group)
    or every entry drawn; A and B random lists of elements, usually with the
    identity."""
    c = cyclic_table
    bases = [c(1), c(2), c(3), c(4), c(6), s3_table()[0],
             direct_product_table(c(2), c(2)),
             direct_product_table(c(2), c(4))]
    base = bases[rng.integers(len(bases))]
    n = len(base)
    label = rng.permutation(n)
    table = np.empty((n, n), dtype=int)
    table[np.ix_(label, label)] = label[np.array(base)]
    kind = rng.integers(5)
    if kind in (1, 2):
        table[rng.integers(n, size=kind), rng.integers(n, size=kind)] = (
            rng.integers(n, size=kind))
    elif kind == 3:
        rows = rng.permutation(n)[:2]
        table[rows] = table[rows[::-1]]
    elif kind == 4:
        table = rng.integers(n, size=(n, n))

    def subset():
        members = rng.permutation(n)[:rng.integers(n + 1)].tolist()
        if rng.random() < 0.7 and label[0] not in members:
            members.insert(0, int(label[0]))
        return members

    return table.tolist(), subset(), subset()


def associative_over_all_triples(table) -> bool:
    """(xy)z == x(yz) for every triple, as two (n, n, n) arrays."""
    T = np.array(table)
    return np.array_equal(T[T, :], np.take(T, T, axis=1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_associativity_matches_the_check_over_all_triples(seed):
    """The check on generators (when the products of A u B fill the table)
    or on every element rejects a drawn table as non-associative exactly
    when the check over all triples does."""
    table, A, B = drawn_table(np.random.default_rng(seed))
    try:
        validate_group(table, A, B)
        rejected = False
    except GroupValidationError as exc:
        rejected = str(exc) == "table is non-associative"
    assert rejected == (not associative_over_all_triples(table))


def test_validation_memory_is_quadratic_in_the_order():
    """Z16 x Z16 validates in a few (n, n) arrays: the check over all
    triples held two (n, n, n) arrays, 273 MiB at order 256."""
    table = direct_product_table(cyclic_table(16), cyclic_table(16))
    tracemalloc.start()
    try:
        g = validate_group(table, A=tuple(range(0, 256, 16)),
                           B=tuple(range(16)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 256 and g.identity == 0
    assert peak < 16 * 2 ** 20


def test_subgroup_closure_checked():
    table = direct_product_table(cyclic_table(2), cyclic_table(2))
    with pytest.raises(GroupValidationError, match="A not closed"):
        validate_group(table, A=(0, 1, 2), B=(0, 3))


def test_direct_product_group_z2_z3():
    g = z2_z3()
    assert g.order == 6
    assert len(g.A) == 2 and len(g.B) == 3
    assert_splits(g)


def test_projection_is_decomposition_invariant():
    # products of A-parts of any decomposition equal the A-part of the product
    g = klein_four()
    for x in g.elements():
        for y in g.elements():
            xa, xb = g.proj_abstract(x)
            ya, yb = g.proj_abstract(y)
            za, zb = g.proj_abstract(g.mul(x, y))
            # abelian A, B of order 2: abstract positions add mod 2
            assert za == (xa + ya) % 2 and zb == (xb + yb) % 2


def test_cayley_graph_of_klein_four_is_c4():
    cg = cayley_graph(klein_four())
    assert cg.vertex_count == 4 and cg.edge_count == 4
    assert all(cg.degree(v) == 2 for v in range(4))


def test_group_file_roundtrip(tmp_path):
    g = z2_z3()
    path = tmp_path / "g.grp"
    write_group_file(g, path)
    h = read_group_file(path)
    assert h.table == g.table and h.A == g.A and h.B == g.B


def test_group_file_requires_sections(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("order 2\ntable\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="A and B"):
        read_group_file(path)
