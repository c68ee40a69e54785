"""Decoration parsing, grades, boxes and minimal roots."""

import itertools
from types import SimpleNamespace

import pytest

from cominuscule import (
    Decoration,
    DecorationError,
    GradedRootSystem,
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
    """Grade of a coefficient tuple: the packed byte at its root index,
    negated for a negative root."""
    i = g.rs.roots.index(root)
    return g.grades[i] if i >= len(g.rs.positive_roots) else -g.grades[i]


def test_decoration_parsing():
    d = Decoration.from_string("xoox")
    assert d.crossed == (True, False, False, True)
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
    grades = g.grades
    compact = [i for i, x in enumerate(grades) if x == 0]
    for a in compact:
        for b in compact:
            assert grades[g.rs._refl[a][b]] == 0


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
    crossed = [j for j, c in enumerate(decoration.crossed) if c]
    want = [sum(r[j] for j in crossed) for r in g.rs.roots]
    # byte i of the packed grades is |grade| of root i, negative roots included
    assert list(g.grades) == [abs(x) for x in want]
    # the top grades are the highest roots' crossed sums
    top = [sum(r[j] for j in crossed) for r in g.rs.highest_roots]
    assert g.max_grades == tuple(top)
    # the box: positive roots at their component's top grade, if above 0
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
    [
        [("A", 1), ("G", 2)],
        [("B", 3), ("A", 2)],
        [("D", 4), ("A", 1), ("A", 1)],
        [("A", 3), ("A", 3)],
        [("A", 2), ("B", 2)],
    ],
)
def test_packed_grades_on_products(pairs):
    # every decoration, so each factor crossed and a crossless factor under
    # allow_point_factors among them
    dtype = diagram_type(*pairs)
    for dec in _all_decorations(dtype):
        _assert_grades_are_coefficient_sums(dtype, dec)


class _Unreadable:
    """A sequence that tells its length and refuses to give up an item."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        raise AssertionError("grading read a coefficient tuple")

    def __iter__(self):
        raise AssertionError("grading read a coefficient tuple")


@pytest.mark.parametrize(
    "pairs", [[("B", 4)], [("D", 5)], [("E", 6)], [("A", 2), ("B", 2)]]
)
def test_grading_reads_no_coefficient_tuple(pairs):
    # a stand-in build whose coefficient tuples can be counted but not read
    rs = build_root_system(diagram_type(*pairs))
    blind = SimpleNamespace(**vars(rs))
    for name in ("roots", "positive_roots", "highest_roots", "simple_roots"):
        setattr(blind, name, _Unreadable(len(getattr(rs, name))))
    for dec in _all_decorations(rs.dtype):
        want = GradedRootSystem(rs, dec, allow_point_factors=True)
        got = GradedRootSystem(blind, dec, allow_point_factors=True)
        assert got.grades == want.grades
        assert got.max_grades == want.max_grades
        assert got.box_idx == want.box_idx
        assert got.point_components == want.point_components


# ------------------------------------------------ box as an intersection


def _assert_box_is_the_intersection_of_single_cross_boxes(dtype, decoration, single):
    """box(S) = the intersection of box({j}) over the crossed j of each
    component: a root reaches its component's top grade exactly when each
    crossed coefficient equals the highest root's.  `single` caches the box
    of each one-cross decoration of `dtype`."""
    rank = dtype.total_rank
    g = grade_diagram(dtype, decoration, allow_point_factors=True)
    of_node = g.rs.component_of_node
    want = set()
    for ci in range(len(dtype.components)):
        boxes = []
        for j in range(rank):
            if decoration.crossed[j] and of_node[j] == ci:
                if j not in single:
                    one = Decoration(tuple(i == j for i in range(rank)))
                    single[j] = set(
                        grade_diagram(dtype, one, allow_point_factors=True).box_idx
                    )
                boxes.append(single[j])
        if boxes:
            want |= set.intersection(*boxes)
    assert g.box_idx == sorted(want)


def test_box_is_the_intersection_of_single_cross_boxes():
    count = 0
    for dtype in sweep_inputs(8):
        single = {}
        for dec in _all_decorations(dtype):
            if any(dec.crossed):
                _assert_box_is_the_intersection_of_single_cross_boxes(
                    dtype, dec, single
                )
                count += 1
    assert count == 2455


@pytest.mark.parametrize(
    "pairs",
    [
        [("A", 2), ("A", 1)],
        [("B", 3), ("A", 2)],
        [("G", 2), ("D", 4)],
        [("A", 3), ("A", 3)],
        [("C", 3), ("A", 1), ("F", 4)],
    ],
)
def test_box_is_the_intersection_on_products_with_point_factors(pairs):
    dtype = diagram_type(*pairs)
    single = {}
    for dec in _all_decorations(dtype):
        _assert_box_is_the_intersection_of_single_cross_boxes(dtype, dec, single)
