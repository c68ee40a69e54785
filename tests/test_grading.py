"""Decoration parsing, grades, boxes and minimal roots."""

import itertools

import pytest

from cominuscule import (
    Decoration,
    DecorationError,
    box,
    box_union,
    build_root_system,
    diagram_type,
    grade_diagram,
    sweep_inputs,
)


def graded(pairs, dec, **kw):
    return grade_diagram(diagram_type(*pairs), Decoration.from_string(dec), **kw)


def p_grade(g, root):
    """Grade of a coefficient tuple, read through its root index."""
    return g.grade_of_root[g.rs.roots.index(root)]


def test_decoration_parsing():
    d = Decoration.from_string("xoox")
    assert d.crossed == (True, False, False, True)
    assert d.crossed_nodes() == (0, 3)
    assert str(d) == "xoox"
    with pytest.raises(DecorationError):
        Decoration.from_string("xo?o")


def test_simple_root_grades():
    g = graded([("B", 4)], "oxoo")
    for i, simple in enumerate(g.rs.simple_roots):
        assert p_grade(g, simple) == (1 if i == 1 else 0)


def test_grade_is_coefficient_sum_over_crosses():
    g = graded([("G", 2)], "ox")
    assert p_grade(g, (3, 2)) == 2
    assert p_grade(g, (3, 1)) == 1
    assert g.max_grades == (2,)


def test_grade_is_odd_under_negation():
    g = graded([("F", 4)], "oxox")
    for r in g.rs.positive_roots:
        assert p_grade(g, tuple(-c for c in r)) == -p_grade(g, r)


def test_compact_roots_closed_under_reflection():
    g = graded([("D", 5)], "ooxoo")
    grade = g.grade_of_root
    compact = [i for i, x in enumerate(grade) if x == 0]
    for a in compact:
        for b in compact:
            assert grade[g.rs._refl[a][b]] == 0


def test_box_single_cross_at_node_two_of_b():
    for r in range(2, 7):
        g = graded([("B", r)], "ox" + "o" * (r - 2))
        assert box(g) == (frozenset({g.rs.highest_roots[0]}),)
        assert frozenset(tuple(-c for c in r) for r in box_union(g)) == frozenset(
            {tuple(-c for c in g.rs.highest_roots[0])}
        )


def test_borel_box_is_highest_root_per_component():
    for pairs in [[("A", 3)], [("C", 3)], [("E", 6)], [("A", 2), ("G", 2)]]:
        dtype = diagram_type(*pairs)
        g = grade_diagram(dtype, Decoration((True,) * dtype.total_rank))
        assert box(g) == tuple(frozenset({t}) for t in g.rs.highest_roots)


def test_c_family_box_prefix():
    # first cross at node L (node 1 uncrossed): the box is exactly the
    # top-grade roots e_i+e_j with i <= j <= L, and the walk chain
    # 2e_1, e_1+e_2, 2e_2, ..., 2e_L sits inside it
    def e_plus_e(r, i, j):
        v = [0] * r
        for k in (i, j):
            for m in range(k, r):
                v[m - 1] += 1
        v[r - 1] = 1  # the long simple 2e_r enters once
        return tuple(v)

    for r, dec in [(4, "oxoo"), (5, "ooxoo"), (6, "ooxoxo")]:
        L = dec.index("x") + 1
        g = graded([("C", r)], dec)
        part = box(g)[0]
        expected = {
            e_plus_e(r, i, j)
            for i in range(1, L + 1)
            for j in range(i, L + 1)
        }
        assert part == expected
        assert len(part) == L * (L + 1) // 2
        walk = [e_plus_e(r, 1, 1)]
        for i in range(1, L):
            walk += [e_plus_e(r, i, i + 1), e_plus_e(r, i + 1, i + 1)]
        assert set(walk) <= part and len(walk) == 2 * L - 1


def test_g2_short_node_box_and_minimals():
    g = graded([("G", 2)], "xo")
    assert box(g) == (frozenset({(3, 1), (3, 2)}),)
    assert frozenset(tuple(-c for c in r) for r in box_union(g)) == frozenset(
        {(-3, -1), (-3, -2)}
    )


def test_box_always_contains_highest_root():
    for family, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4)]:
        dtype = diagram_type((family, rank))
        for bits in itertools.product((True, False), repeat=rank):
            if not any(bits):
                continue
            g = grade_diagram(dtype, Decoration(bits))
            parts = box(g)
            assert g.rs.highest_roots[0] in parts[0]
            assert box_union(g) == parts[0]


def test_decoration_length_checked():
    with pytest.raises(DecorationError):
        graded([("B", 4)], "oxo")


def test_point_factors():
    with pytest.raises(DecorationError):
        graded([("A", 2), ("A", 1)], "xoo")
    g = graded([("A", 2), ("A", 1)], "xoo", allow_point_factors=True)
    assert g.point_components == (1,)
    assert box(g) == (frozenset({(1, 0, 0), (1, 1, 0)}), frozenset())
    # fully crossless input is a pure point factor
    g = graded([("A", 2)], "oo", allow_point_factors=True)
    assert g.point_components == (0,)
    assert box_union(g) == frozenset()


def test_max_grade_at_least_one_when_crossed():
    rs = build_root_system(diagram_type(("E", 7)))
    for i in range(7):
        dec = Decoration(tuple(j == i for j in range(7)))
        g = grade_diagram(rs.dtype, dec)
        assert g.max_grades[0] >= 1


# ------------------------------------------------------------ packed grades


def _all_decorations(dtype):
    rank = dtype.total_rank
    for bits in itertools.product((False, True), repeat=rank):
        yield Decoration(bits)


def _assert_grades_are_coefficient_sums(dtype, decoration):
    g = grade_diagram(dtype, decoration, allow_point_factors=True)
    crossed = decoration.crossed_nodes()
    want = [sum(r[j] for j in crossed) for r in g.rs.roots]
    assert g.grade_of_root == want
    # the box: positive roots at their component's top grade, if above 0
    top = [sum(r[j] for j in crossed) for r in g.rs.highest_roots]
    comp = g.rs.component_of_root
    half = len(g.rs.positive_roots)
    assert g.box_idx == [
        i for i in range(half, 2 * half) if 0 < want[i] == top[comp[i]]
    ]


def test_packed_grades_on_every_sweep_input():
    count = 0
    for dtype in sweep_inputs(7):
        for dec in _all_decorations(dtype):
            if any(dec.crossed):
                _assert_grades_are_coefficient_sums(dtype, dec)
                count += 1
    assert count == 1180


@pytest.mark.parametrize(
    "pairs",
    [[("A", 1), ("G", 2)], [("B", 3), ("A", 2)], [("D", 4), ("A", 1), ("A", 1)]],
)
def test_packed_grades_on_products(pairs):
    dtype = diagram_type(*pairs)
    for dec in _all_decorations(dtype):
        _assert_grades_are_coefficient_sums(dtype, dec)
