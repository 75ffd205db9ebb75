import itertools

import pytest

from sepprof.diagonal import (DiagonalSpec, apply_generator, ball,
                              cocycle_norms, embed_lamp_graph, inverse,
                              multiply, range_of, range_set,
                              read_diagonal_spec)
from sepprof.errors import BudgetError
from sepprof.groups import klein_four, write_group_file


def single_level():
    return DiagonalSpec([(klein_four(), 0)])


def two_level():
    return DiagonalSpec([(klein_four(), 0), (klein_four(), 3)])


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


def test_ball_budget_guard():
    with pytest.raises(BudgetError):
        ball(single_level(), 6, max_elements=10)


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


def test_range_set_is_exact():
    spec = single_level()
    u2 = range_set(spec, 2)
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


def test_spec_file_roundtrip(tmp_path):
    write_group_file(klein_four(), tmp_path / "k4.grp")
    (tmp_path / "delta.spec").write_text(
        "# two levels\nlevel k4.grp 0\nlevel k4.grp 3\n")
    spec = read_diagonal_spec(tmp_path / "delta.spec")
    assert spec.level_count == 2 and spec.k(1) == 3
