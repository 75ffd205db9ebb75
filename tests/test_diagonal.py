import itertools
import math
from fractions import Fraction

import pytest

from sepprof import diagonal
from sepprof.diagonal import (DiagonalElement, DiagonalSpec, apply_generator,
                              ball, cocycle_norms, embed_lamp_graph,
                              in_range_set, range_of)
from sepprof.errors import BudgetError
from sepprof.groups import (cyclic_table, direct_product_table, klein_four,
                            validate_group)


def multiply(spec, z1, z2):
    """Oracle for the product rule (f, i)(g, j) = (h, i + j) with
    h_x = f_x g_{x-i}, identity lamps dropped."""
    lamps = []
    for s, (group, _) in enumerate(spec.levels):
        entries = dict(z1.lamps[s])
        for pos, elem in z2.lamps[s]:
            at = pos + z1.cursor
            entries[at] = group.mul(entries.get(at, group.identity), elem)
        lamps.append(tuple(sorted((pos, elem) for pos, elem in entries.items()
                                  if elem != group.identity)))
    return DiagonalElement(z1.cursor + z2.cursor, tuple(lamps))


def inverse(spec, z):
    """Oracle for the inverse (f, i)^-1 = (h, -i) with h_x = f_{x+i}^-1."""
    lamps = []
    for s, (group, _) in enumerate(spec.levels):
        lamps.append(tuple(sorted(
            (pos - z.cursor, group.inv(elem)) for pos, elem in z.lamps[s])))
    return DiagonalElement(-z.cursor, tuple(lamps))


def single_level():
    return DiagonalSpec([(klein_four(), 0)])


def two_level():
    return DiagonalSpec([(klein_four(), 0), (klein_four(), 3)])


def three_level():
    # the window of the radius-3 ball holds 85 bits: two code words
    return DiagonalSpec([(klein_four(), 0), (klein_four(), 3),
                         (klein_four(), 7)])


def relabelled_identity():
    """Z2 x Z2 relabelled by x -> (x + 3) % 4, so its identity is 3."""
    k4 = klein_four()
    label = [(x + 3) % 4 for x in range(4)]
    table = [[0] * 4 for _ in range(4)]
    for x in range(4):
        for y in range(4):
            table[label[x]][label[y]] = label[k4.mul(x, y)]
    group = validate_group(table, A=[label[a] for a in k4.A],
                           B=[label[b] for b in k4.B])
    assert group.identity == 3
    return DiagonalSpec([(group, 0), (group, 3)])


def order_six():
    """Z2 x Z3 on both levels: digits in base 6."""
    group = validate_group(direct_product_table(cyclic_table(2),
                                                cyclic_table(3)),
                           A=(0, 3), B=(0, 1, 2))
    return DiagonalSpec([(group, 0), (group, 2)])


def test_spec_validates_k_sequence():
    with pytest.raises(ValueError, match="k_0"):
        DiagonalSpec([(klein_four(), 1)])
    with pytest.raises(ValueError, match="exceed"):
        DiagonalSpec([(klein_four(), 0), (klein_four(), 0)])
    DiagonalSpec([(klein_four(), 0), (klein_four(), 1), (klein_four(), 3)])


def test_tau_and_involution():
    spec = single_level()
    z = apply_generator(spec, spec.identity(), ("tau", 1))
    assert z.cursor == 1 and z.lamps == ((),)
    a = spec.a_positions()[0]
    za = apply_generator(spec, spec.identity(), ("a", a))
    assert apply_generator(spec, za, ("a", a)) == spec.identity()


def test_write_positions_follow_cursor_offsets():
    spec = two_level()
    z = spec.identity()
    for _ in range(3):
        z = apply_generator(spec, z, ("tau", 1))
    z = apply_generator(spec, z, ("a", spec.a_positions()[0]))
    # cursor 3: the a-write lands at 3 - k_s per level: 3 for k=0, 0 for k=3
    assert dict(z.lamps[0]) == {3: 2}
    assert dict(z.lamps[1]) == {0: 2}
    zb = apply_generator(spec, z, ("b", spec.b_positions()[0]))
    assert dict(zb.lamps[0]) == {3: 2 + 1} or dict(zb.lamps[0]) == {3: 3}
    assert dict(zb.lamps[1]) == {0: 2, 6: 1}


def test_generator_action_matches_product_rule():
    spec = two_level()
    z = spec.identity()
    moves = [("tau", 1), ("a", 1), ("tau", 1), ("b", 1), ("tau", -1), ("a", 1)]
    for gen in moves:
        z = apply_generator(spec, z, gen)
        # right translation by the generator's element agrees with multiply
        g = apply_generator(spec, spec.identity(), gen)
        assert multiply(spec, z, multiply(spec, inverse(spec, g), g)) == z
    w = spec.identity()
    for gen in moves:
        w = multiply(spec, w, apply_generator(spec, spec.identity(), gen))
    assert w == z


def test_inverse_is_two_sided():
    spec = two_level()
    z = spec.identity()
    for gen in [("tau", 1), ("a", 1), ("b", 1), ("tau", 1), ("a", 1)]:
        z = apply_generator(spec, z, gen)
    assert multiply(spec, z, inverse(spec, z)) == spec.identity()
    assert multiply(spec, inverse(spec, z), z) == spec.identity()


def wreath_oracle_ball(radius):
    """Independent BFS for Z2xZ2 wr Z: states ((lamps...), cursor)."""
    ident = ((), 0)

    def moves(state):
        lamps, cur = state
        lamps = dict(lamps)
        out = []
        for d in (1, -1):
            out.append((tuple(sorted(lamps.items())), cur + d))
        for gen in (1, 2):
            new = dict(lamps)
            new[cur] = new.get(cur, 0) ^ gen
            if new[cur] == 0:
                del new[cur]
            out.append((tuple(sorted(new.items())), cur))
        return out

    seen = {ident}
    frontier = [ident]
    for _ in range(radius):
        nxt = []
        for st in frontier:
            for w in moves(st):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
def test_ball_growth_matches_wreath_oracle(radius):
    spec = single_level()
    result = ball(spec, radius)
    assert len(result.elements) == wreath_oracle_ball(radius)


def test_ball_budget_guard(monkeypatch):
    monkeypatch.setattr(diagonal, "MAX_ELEMENTS", 10)
    with pytest.raises(BudgetError):
        ball(single_level(), 6)


def test_ball_word_lengths_subadditive():
    spec = single_level()
    result = ball(spec, 4)
    elements = result.elements[:12]
    for z1, z2 in itertools.product(elements, repeat=2):
        prod = multiply(spec, z1, z2)
        if prod in result.word_length:
            assert result.word_length[prod] <= (result.word_length[z1]
                                                + result.word_length[z2])


def test_range_examples():
    spec = single_level()
    assert range_of(spec, spec.identity(), 4) == 0
    z = spec.identity()
    for _ in range(5):
        z = apply_generator(spec, z, ("tau", 1))
    assert range_of(spec, z, 8) == 5
    lamp = apply_generator(spec, spec.identity(), ("a", 1))
    assert range_of(spec, lamp, 4) == 0  # k = 0 writes under the cursor


def test_range_window_exhaustion():
    spec = single_level()
    z = spec.identity()
    for _ in range(5):
        z = apply_generator(spec, z, ("tau", 1))
    with pytest.raises(BudgetError, match="window"):
        range_of(spec, z, 3)


def oracle_ball(spec, radius):
    """Plain BFS ball: (elements, word-length items, Cayley edges)."""
    dist = {spec.identity(): 0}
    frontier = [spec.identity()]
    for d in range(1, radius + 1):
        nxt = []
        for z in frontier:
            for gen in spec.generators():
                w = apply_generator(spec, z, gen)
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    index = {z: i for i, z in enumerate(dist)}
    edges = []
    for z, i in index.items():
        for gen in spec.generators():
            j = index.get(apply_generator(spec, z, gen))
            if j is not None and i < j:
                edges.append((i, j))
    return tuple(dist), list(dist.items()), tuple(sorted(edges))


def box_reachable(spec, lo, hi, cache):
    """Every element reached from the identity with the cursor in [lo, hi]."""
    if (lo, hi) not in cache:
        seen = {spec.identity()}
        frontier = list(seen)
        while frontier:
            nxt = []
            for z in frontier:
                for gen in spec.generators():
                    w = apply_generator(spec, z, gen)
                    if lo <= w.cursor <= hi and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        cache[lo, hi] = frozenset(seen)
    return cache[lo, hi]


def oracle_range_set(spec, r):
    """U_r as the union of the r + 1 diameter-r cursor boxes around 0."""
    cache = {}
    return frozenset().union(*(box_reachable(spec, lo, lo + r, cache)
                               for lo in range(-r, 1)))


def oracle_range_of(spec, z, window, cache):
    """Smallest d such that some box [lo, lo + d] around 0 and z reaches z."""
    lo_req, hi_req = min(0, z.cursor), max(0, z.cursor)
    for d in range(hi_req - lo_req, window + 1):
        for lo in range(hi_req - d, lo_req + 1):
            if z in box_reachable(spec, lo, lo + d, cache):
                return d
    return None


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_ball_matches_oracle_on_two_levels(radius):
    spec = two_level()
    result = ball(spec, radius)
    elements, lengths, edges = oracle_ball(spec, radius)
    assert result.elements == elements
    assert list(result.word_length.items()) == lengths
    assert result.graph.edges == edges


@pytest.mark.parametrize("make_spec", [single_level, two_level])
@pytest.mark.parametrize("r", [0, 1, 2, 4])
def test_in_range_set_is_membership_in_range_set(make_spec, r):
    """in_range_set answers z in U_r, the union of the diameter-r cursor
    boxes around 0 (``oracle_range_set``), for every member of U_r and for
    every element of a ball of radius 6 (single level) or 4 (two levels)."""
    spec = make_spec()
    members = oracle_range_set(spec, r)
    contains = in_range_set(spec, r)
    assert all(contains(z) for z in members)
    radius = 6 if make_spec is single_level else 4
    elements = ball(spec, radius).elements
    assert [contains(z) for z in elements] == [z in members for z in elements]


@pytest.mark.parametrize("make_spec", [single_level, two_level])
def test_range_of_matches_box_search(make_spec):
    spec = make_spec()
    cache = {}
    for z in ball(spec, 4).elements:
        assert range_of(spec, z, 6) == oracle_range_of(spec, z, 6, cache)


def test_range_searches_keep_their_budget(monkeypatch):
    spec = two_level()
    monkeypatch.setattr(diagonal, "MAX_ELEMENTS", 100)
    with pytest.raises(BudgetError, match="exceeded"):
        in_range_set(spec, 4)
    with pytest.raises(BudgetError, match="exceeded"):
        cocycle_norms(spec, 2, [spec.identity()])
    z = spec.identity()
    for _ in range(5):
        z = apply_generator(spec, z, ("tau", 1))
    monkeypatch.setattr(diagonal, "MAX_ELEMENTS", 10)
    with pytest.raises(BudgetError, match="exceeded"):
        range_of(spec, z, 8)


def test_range_set_is_exact():
    spec = single_level()
    u2 = oracle_range_set(spec, 2)
    for z in u2:
        assert range_of(spec, z, 4) <= 2
    for z in ball(spec, 4).elements:
        if range_of(spec, z, 6) <= 2:
            assert z in u2


def test_range_invariant_under_cursor_writes():
    # at a k = 0 level, lamp writes happen under the cursor and need no new
    # cursor positions, so they never change the range
    spec = single_level()
    for z in ball(spec, 3).elements:
        base = range_of(spec, z, 5)
        for gen in (("a", 1), ("b", 1)):
            assert range_of(spec, apply_generator(spec, z, gen), 5) == base


def test_cocycle_values():
    spec = single_level()
    ident = spec.identity()
    tau = apply_generator(spec, ident, ("tau", 1))
    z = ident
    for _ in range(5):
        z = apply_generator(spec, z, ("tau", 1))
    norms = cocycle_norms(
        spec, 1, [ident, apply_generator(spec, ident, ("a", 1)), tau, z])
    assert norms[0] == 0.0
    assert norms[1] == 0.0
    assert norms[2] == pytest.approx(1.0)
    assert norms[3] >= 2.0 / 3.0


def test_cocycle_rejects_negative_j():
    spec = single_level()
    with pytest.raises(ValueError, match="j must be >= 0"):
        cocycle_norms(spec, -1, [spec.identity()])


@pytest.mark.parametrize("j", [1, 2])
def test_cocycle_sums_are_exact(j):
    # the float sums equal the rational ones, so no set order can move them
    spec = single_level()
    r = 2 ** j
    members = oracle_range_set(spec, r)

    def r_phi(z):
        # r times the tent value, an integer
        return max(0, r - abs(z.cursor)) if z in members else 0

    support = members | {apply_generator(spec, u, ("tau", -1)) for u in members}
    grad = Fraction(sum(
        (r_phi(g) - r_phi(apply_generator(spec, g, ("tau", 1)))) ** 2
        for g in support), r * r)
    lamps_and_cursor, tau3 = spec.identity(), spec.identity()
    for gen in [("a", spec.a_positions()[0]), ("tau", 1), ("tau", 1),
                ("b", spec.b_positions()[0])]:
        lamps_and_cursor = apply_generator(spec, lamps_and_cursor, gen)
    for _ in range(3):
        tau3 = apply_generator(spec, tau3, ("tau", 1))
    zs = [lamps_and_cursor, tau3]
    for z, norm in zip(zs, cocycle_norms(spec, j, zs)):
        shifted = {multiply(spec, u, z): u for u in members}
        num = Fraction(sum(
            (r_phi(h) - (r_phi(shifted[h]) if h in shifted else 0)) ** 2
            for h in members | shifted.keys()), r * r)
        assert norm.hex() == math.sqrt(float(num / grad)).hex()


def test_embedding_two_level():
    report = embed_lamp_graph(two_level(), 1, 1)
    assert report.lamp_graph.vertex_count == 576
    assert report.injective
    assert report.violations == ()


def test_embedding_r0_single_level():
    report = embed_lamp_graph(two_level(), 1, 0)
    assert report.injective and report.violations == ()


def test_embedding_rejects_large_r():
    with pytest.raises(ValueError, match="k_s/2"):
        embed_lamp_graph(two_level(), 1, 2)



def test_three_level_codes_take_two_words():
    spec = three_level()
    assert diagonal._Window(spec, -3, 3).words == 2
    assert diagonal._Window(spec, 0, 3).words == 2
    assert diagonal._Window(spec, 0, 2).words == 1


@pytest.mark.parametrize("make_spec", [three_level, relabelled_identity,
                                       order_six])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_coded_ball_matches_oracle(make_spec, radius):
    spec = make_spec()
    result = ball(spec, radius)
    elements, lengths, edges = oracle_ball(spec, radius)
    assert result.elements == elements
    assert list(result.word_length.items()) == lengths
    assert result.graph.edges == edges
    assert result.graph.labels == elements


@pytest.mark.parametrize("make_spec,r", [
    (three_level, 0), (three_level, 1), (three_level, 2), (three_level, 3),
    (relabelled_identity, 0), (relabelled_identity, 2),
    (order_six, 0), (order_six, 1), (order_six, 2)])
def test_coded_range_sets_match_oracle(make_spec, r):
    spec = make_spec()
    members = oracle_range_set(spec, r)
    contains = in_range_set(spec, r)
    assert all(contains(z) for z in members)
    elements = ball(spec, 3).elements
    assert [contains(z) for z in elements] == [z in members for z in elements]


@pytest.mark.parametrize("make_spec", [three_level, relabelled_identity,
                                       order_six])
def test_coded_range_of_matches_box_search(make_spec):
    spec = make_spec()
    cache = {}
    for z in ball(spec, 2).elements:
        assert range_of(spec, z, 5) == oracle_range_of(spec, z, 5, cache)



@pytest.mark.parametrize("make_spec", [three_level, relabelled_identity,
                                       order_six])
def test_coded_cocycle_norms_match_products(make_spec):
    """cocycle_norms at j = 1 equals, bit for bit, the norms formed from
    ``multiply`` on U_2 in exact arithmetic."""
    spec = make_spec()
    r = 2
    members = oracle_range_set(spec, r)

    def r_phi(z):
        return r - abs(z.cursor) if z in members and abs(z.cursor) < r else 0

    def distance_sq(g):
        return 2 * sum(r_phi(u) * (r_phi(u) - r_phi(multiply(spec, u, g)))
                       for u in members)

    tau = apply_generator(spec, spec.identity(), ("tau", 1))
    zs = ball(spec, 2).elements
    expected = [math.sqrt(float(Fraction(distance_sq(z), distance_sq(tau))))
                for z in zs]
    assert [x.hex() for x in cocycle_norms(spec, 1, zs)] == \
        [x.hex() for x in expected]

def counted_bfs(spec, lo, hi, radius):
    """Element-at-a-time confined BFS: yields (element, word length) and
    raises BudgetError once more than ``diagonal.MAX_ELEMENTS`` elements
    have been seen, checked after each new element is yielded."""
    start = spec.identity()
    seen = {start}
    yield start, 0
    frontier, d = [start], 0
    while frontier and d < radius:
        d += 1
        nxt = []
        for z in frontier:
            for gen in spec.generators():
                w = apply_generator(spec, z, gen)
                if lo <= w.cursor <= hi and w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    yield w, d
                    if len(seen) > diagonal.MAX_ELEMENTS:
                        raise BudgetError("exceeded")
        frontier = nxt


def translates(z, d):
    """The targets t^-lo z of the diameter-d boxes [lo, lo + d] around 0
    and z's cursor."""
    lo_req, hi_req = min(0, z.cursor), max(0, z.cursor)
    return {DiagonalElement(z.cursor - lo, tuple(
        tuple((pos - lo, e) for pos, e in level) for level in z.lamps))
        for lo in range(hi_req - d, lo_req + 1)}


def counted_range_of(spec, z, window):
    """range_of over ``counted_bfs``, stopping at the first target met."""
    for d in range(abs(z.cursor), window + 1):
        if not translates(z, d).isdisjoint(
                w for w, _ in counted_bfs(spec, 0, d, math.inf)):
            return d
    raise BudgetError("window")


def outcome(compute):
    try:
        return compute()
    except BudgetError:
        return "budget"


@pytest.mark.parametrize("make_spec,radius", [
    (single_level, 4), (three_level, 3), (order_six, 3)])
def test_ball_budget_boundary(monkeypatch, make_spec, radius):
    spec = make_spec()
    size = len(ball(spec, radius).elements)
    for budget in (0, 1, size - 1, size, size + 1):
        monkeypatch.setattr(diagonal, "MAX_ELEMENTS", budget)
        expected = outcome(lambda: len(list(
            counted_bfs(spec, -radius, radius, radius))))
        assert expected == ("budget" if budget < size else size)
        assert outcome(lambda: len(ball(spec, radius).elements)) == expected


@pytest.mark.parametrize("make_spec,r", [
    (single_level, 4), (three_level, 4), (order_six, 2)])
def test_range_set_budget_boundary(monkeypatch, make_spec, r):
    """in_range_set and cocycle_norms at r = 2^j both run the BFS of the
    [0, r] cursor box: one below its size and at it, each raises
    BudgetError exactly when the element-at-a-time search does, and
    otherwise answers as it does without a budget."""
    spec = make_spec()
    j = r.bit_length() - 1
    size = sum(1 for _ in counted_bfs(spec, 0, r, math.inf))
    zs = ball(spec, 1).elements
    norms = cocycle_norms(spec, j, zs)
    for budget in (size - 1, size):
        monkeypatch.setattr(diagonal, "MAX_ELEMENTS", budget)
        expected = outcome(lambda: sum(
            1 for _ in counted_bfs(spec, 0, r, math.inf)))
        assert expected == ("budget" if budget < size else size)
        assert outcome(lambda: cocycle_norms(spec, j, zs)) == (
            "budget" if expected == "budget" else norms)
        contains = outcome(lambda: in_range_set(spec, r))
        assert (contains == "budget") == (expected == "budget")
        assert contains == "budget" or all(map(contains, zs))


def test_range_of_budget_boundary(monkeypatch):
    """At budgets around the target's place in BFS order, range_of raises
    or returns as the element-at-a-time search does, also when the target
    comes before the element that passes the budget in its word length."""
    spec = two_level()
    within_level = 0
    for z in ball(spec, 3).elements[1:]:
        d = range_of(spec, z, 6)
        order = list(counted_bfs(spec, 0, d, math.inf))
        targets = translates(z, d)
        p = next(i for i, (w, _) in enumerate(order) if w in targets)
        if p + 1 < len(order) and order[p + 1][1] == order[p][1]:
            within_level += 1
        for budget in (p - 1, p, p + 1):
            monkeypatch.setattr(diagonal, "MAX_ELEMENTS", budget)
            expected = outcome(lambda: counted_range_of(spec, z, 6))
            if d == abs(z.cursor):
                # one search: elements 1..p - 1 pass the budget check
                assert expected == (d if p <= max(budget, 1) else "budget")
            assert outcome(lambda: range_of(spec, z, 6)) == expected
        monkeypatch.undo()
    assert within_level > 10
