"""Subsystem extraction: worked fixtures, dual-route agreement, structure.

The two construction routes share nothing but the ambient root system, so
exhaustive agreement over small products is the main correctness check here.
"""

import itertools
from itertools import compress
from operator import add

import pytest

import cominuscule.subsystem as subsystem
from cominuscule import (
    ClassificationError,
    Decoration,
    Subsystem,
    associated_diagram,
    box_union,
    decorated_diagram,
    diagram_type,
    direct_subsystem,
    generate_subsystem,
    grade_diagram,
    perpendicular_compacts,
    sweep_inputs,
)
from cominuscule.grading import GradedRootSystem
from cominuscule.rootsys import RootSystem
from cominuscule.subsystem import _fixed_idx, _make_subsystem

from checkers import check_grading, decorations, sweep_decorations


def run(pairs, dec):
    return grade_diagram(diagram_type(*pairs), Decoration.from_string(dec))


# ---------------------------------------------------------------- fixtures


def test_f4_last_node_gives_b4():
    graded = run([("F", 4)], "ooox")
    sub = generate_subsystem(graded)
    assert sub.simples == (
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 1, 2, 2),
        (1, 0, 0, 0),
    )
    assert len(sub.roots) == 32
    out = decorated_diagram(sub)
    assert str(out) == "B4:xooo"
    # Bourbaki node 1 of the subsystem is not an ambient simple root.
    assert out.node_embedding == (
        (0, 1, 2, 2),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    )


def test_g2_first_node_gives_long_root_a2():
    graded = run([("G", 2)], "xo")
    sub = generate_subsystem(graded)
    assert sub.simples == ((0, 1), (3, 1))
    assert sub.roots == {(0, 1), (3, 1), (3, 2), (0, -1), (-3, -1), (-3, -2)}
    out = decorated_diagram(sub)
    assert str(out) == "A2:xo"
    assert out.node_embedding == ((3, 1), (0, 1))


def test_g2_second_node_gives_highest_root_only():
    graded = run([("G", 2)], "ox")
    sub = generate_subsystem(graded)
    assert sub.roots == {(3, 2), (-3, -2)}
    assert str(decorated_diagram(sub)) == "A1:x"


def test_b5_two_crossings_gives_a3():
    graded = run([("B", 5)], "xooxo")
    sub = generate_subsystem(graded)
    assert sub.simples == (
        (0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 1, 1, 2, 2),
    )
    assert len(sub.roots) == 12
    out = decorated_diagram(sub)
    assert str(out) == "A3:xoo"
    assert out.node_embedding[0] == (1, 1, 1, 2, 2)


def test_b5_interior_single_cross_is_a_line():
    graded = run([("B", 5)], "oxooo")
    sub = generate_subsystem(graded)
    theta = (1, 2, 2, 2, 2)
    assert sub.roots == {theta, (-1, -2, -2, -2, -2)}
    assert sub.simples == (theta,)
    assert sum(compress(theta, graded.decoration.crossed)) == graded.max_grades[0]
    assert str(decorated_diagram(sub)) == "A1:x"


def test_d6_middle_cross_gives_a3():
    graded = run([("D", 6)], "ooxooo")
    sub = generate_subsystem(graded)
    assert sub.simples == (
        (0, 1, 0, 0, 0, 0),
        (0, 1, 2, 2, 1, 1),
        (1, 0, 0, 0, 0, 0),
    )
    assert str(decorated_diagram(sub)) == "A3:xoo"


# ------------------------------------------------- perpendicular compacts


def compact_roots(graded):
    """The grade-0 roots as coefficient tuples."""
    marks = graded.decoration.crossed
    return {r for r in graded.rs.roots if sum(compress(r, marks)) == 0}



def test_perpendicular_compacts_quadric_case():
    # With only the highest root in play every compact root is orthogonal.
    graded = run([("B", 5)], "oxooo")
    sub = generate_subsystem(graded)
    perp = perpendicular_compacts(sub)
    zero_grade = compact_roots(graded)
    assert perp == zero_grade
    assert len(perp) == 20


def test_compact_roots_split_between_subsystem_and_perpendicular():
    for pairs, dec in [
        ([("B", 5)], "xooxo"),
        ([("C", 4)], "ooxo"),
        ([("F", 4)], "xoox"),
        ([("D", 5)], "oooox"),
    ]:
        graded = run(pairs, dec)
        sub = generate_subsystem(graded)
        perp = perpendicular_compacts(sub)
        compacts = compact_roots(graded)
        inside = sub.roots & compacts
        assert perp | inside == compacts
        assert not perp & inside


def test_perpendicular_compacts_empty_for_projective_space():
    # A_r crossed at an end leaves no compact root orthogonal to everything.
    graded = run([("A", 4)], "xooo")
    sub = generate_subsystem(graded)
    assert perpendicular_compacts(sub) == frozenset()


def _subsystems_by_box(max_rank):
    """The generated subsystem of each (type, box) of the sweep to max_rank."""
    out = {}
    for dtype, dec in sweep_decorations(max_rank):
        graded = grade_diagram(dtype, dec)
        key = (dtype, tuple(graded.box_idx))
        if key not in out:
            out[key] = generate_subsystem(graded)
    return out


def test_fixed_set_from_the_simple_roots_is_the_row_filter_on_every_rank_8_box():
    subs = _subsystems_by_box(8)
    assert len(subs) == 305
    for sub in subs.values():
        check_grading(sub.graded.rs, sub.graded.decoration)


def test_fixed_set_is_the_roots_pairing_to_zero_with_every_member():
    subs = _subsystems_by_box(6)
    assert len(subs) == 150
    for sub in subs.values():
        rs = sub.graded.rs
        zero = [
            b
            for b in range(len(rs.roots))
            if all(rs.pair(b, a) == 0 for a in sub.members)
        ]
        assert _fixed_idx(rs, sub._simple_idx) == zero


def test_decorated_diagram_recognizes_each_cartan_matrix_once_per_root_system(
    monkeypatch,
):
    real = subsystem.recognize_labelings
    calls = []

    def counting(cartan):
        calls.append(cartan)
        return real(cartan)

    monkeypatch.setattr(subsystem, "recognize_labelings", counting)
    count = 0
    for dtype in sweep_inputs(7):
        rs = RootSystem(dtype)  # with an empty memo
        subs = [
            generate_subsystem(GradedRootSystem(rs, dec))
            for dec in decorations(dtype.total_rank)
        ]
        calls.clear()
        kept = [decorated_diagram(sub) for sub in subs]
        assert sorted(calls) == sorted({sub.cartan for sub in subs}), dtype
        # each answer read from the memo is the one a cleared memo gives
        for sub, dd in zip(subs, kept):
            rs._recognized.clear()
            assert decorated_diagram(sub) == dd
        count += len(subs)
    assert count == 1180


# ------------------------------------------------- exhaustive dual routes

_TYPES_BY_RANK = {
    1: [("A", 1)],
    2: [("A", 2), ("B", 2), ("G", 2)],
    3: [("A", 3), ("B", 3), ("C", 3)],
    4: [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)],
    5: [("A", 5), ("B", 5), ("C", 5), ("D", 5)],
}


def _all_types(max_total):
    """Non-decreasing component sequences with total rank <= max_total."""

    def rec(start, budget):
        yield ()
        for rank in range(1, budget + 1):
            for t in _TYPES_BY_RANK.get(rank, []):
                if t < start:
                    continue
                for rest in rec(t, budget - rank):
                    yield (t,) + rest

    return [p for p in rec(("A", 0), max_total) if p]


def _full_decorations(pairs):
    """Every decoration string crossing each component at least once."""
    per_component = [[str(d) for d in decorations(rank)] for _, rank in pairs]
    for combo in itertools.product(*per_component):
        yield "".join(combo)


def _assert_routes_agree(graded):
    a = generate_subsystem(graded)
    b = direct_subsystem(graded)
    assert a.roots == b.roots
    assert a.simples == b.simples
    assert a.cartan == b.cartan
    assert (a.graded, a.members) == (b.graded, b.members)
    return a


def _assert_structure(graded, sub):
    rs = graded.rs
    # Simple system shape: diagonal 2, off-diagonal non-positive.
    for i, row in enumerate(sub.cartan):
        assert row[i] == 2
        assert all(v <= 0 for j, v in enumerate(row) if j != i)
    # Closed under negation, grades -t/0/+t antisymmetrically, t the top
    # grade of the member's component.
    marks, last = graded.decoration.crossed, len(rs.roots) - 1
    grade = [sum(compress(r, marks)) for r in rs.roots]
    for i in sub.members:
        t = graded.max_grades[rs.component_of_root[i]]
        assert last - i in sub.members
        assert grade[i] in (-t, 0, t)
        assert grade[last - i] == -grade[i]
    box = {rs.roots.index(r) for r in box_union(graded)}
    assert box <= sub.members
    assert all(grade[i] == graded.max_grades[rs.component_of_root[i]] for i in box)
    # Every positive member reaches a simple root by subtracting simples.
    simple_set = set(sub.simples)
    positive = set(rs.positive_roots)
    for r in sub.roots:
        if r not in positive or r in simple_set:
            continue
        assert any(
            tuple(x - y for x, y in zip(r, s)) in sub.roots
            for s in sub.simples
        )


def test_routes_agree_on_all_small_products():
    seen = 0
    for pairs in _all_types(5):
        for dec in _full_decorations(pairs):
            graded = run(list(pairs), dec)
            sub = _assert_routes_agree(graded)
            _assert_structure(graded, sub)
            out = decorated_diagram(sub)
            # One subsystem component per crossed ambient component.
            assert len(out.dtype.components) == len(pairs)
            assert out == associated_diagram(graded)
            seen += 1
    assert seen > 500


def test_routes_agree_on_exceptional_types():
    for pairs in ([("E", 6)], [("E", 7)], [("F", 4)], [("G", 2)]):
        for dec in decorations(pairs[0][1]):
            if sum(dec.crossed) <= 3:
                _assert_routes_agree(grade_diagram(diagram_type(*pairs), dec))


def test_direct_route_simples_after_replace():
    # simples and cartan are derived from the member mask on first use, so a
    # copy made before either was read derives them itself
    for pairs, dec in [
        ([("F", 4)], "ooox"),
        ([("E", 7)], "oxoooox"),
        ([("B", 3), ("A", 2)], "oxoxo"),
    ]:
        graded = run(pairs, dec)
        ref = generate_subsystem(graded)
        sub = direct_subsystem(graded)
        copy = Subsystem(sub.graded, frozenset(sub.members))
        assert not {"simples", "cartan"} & vars(copy).keys()
        assert copy.simples == ref.simples
        assert copy.cartan == ref.cartan
        assert decorated_diagram(copy) == decorated_diagram(ref)


# ----------------------------------------------------------- point factors


def test_point_factor_components_contribute_no_roots():
    graded = grade_diagram(
        diagram_type(("A", 2), ("B", 3)),
        Decoration.from_string("ooxoo"),
        allow_point_factors=True,
    )
    sub = _assert_routes_agree(graded)
    # All members live in the crossed component's coordinate block.
    assert all(r[0] == r[1] == 0 for r in sub.roots)
    out = decorated_diagram(sub)
    assert len(out.dtype.components) == 1
    assert str(out) == "B3:xoo"


def test_all_point_factors_give_empty_subsystem():
    graded = grade_diagram(
        diagram_type(("A", 2)),
        Decoration.from_string("oo"),
        allow_point_factors=True,
    )
    sub = _assert_routes_agree(graded)
    assert sub.roots == frozenset()
    assert sub.simples == ()
    assert perpendicular_compacts(sub) == frozenset(graded.rs.roots)
    # An empty subsystem has no diagram; diagram types cannot be empty.
    with pytest.raises(ClassificationError):
        decorated_diagram(sub)


# ------------------------------------------------------------ error paths


def test_two_crossed_simples_is_rejected():
    sub = generate_subsystem(run([("A", 3)], "xoo"))
    doctored = run([("A", 3)], "xoo")
    # a second simple root in the box is a second crossed node
    extra = next(i for i in sub._simple_idx if i not in doctored.box_idx)
    doctored.box_idx = sorted(doctored.box_idx + [extra])
    bad = Subsystem(doctored, sub.members)
    with pytest.raises(ClassificationError, match="2 simple roots in the box"):
        decorated_diagram(bad)


def test_decorated_diagram_reads_the_box_and_no_grade():
    graded = run([("E", 6)], "xooooo")
    sub = generate_subsystem(graded)
    want = decorated_diagram(sub)
    doctored = run([("E", 6)], "xooooo")
    half = len(doctored.rs.positive_roots)
    doctored.grades = bytes(
        0 if i >= half and i in sub.members else g
        for i, g in enumerate(doctored.grades)
    )
    assert doctored.box_idx == graded.box_idx
    assert decorated_diagram(Subsystem(doctored, sub.members)) == want


def test_intermediate_grade_is_rejected():
    # A grade-1 root in a grading whose top grade is 2 violates trichotomy.
    graded = run([("B", 3)], "oxo")
    assert graded.max_grades[0] == 2
    alpha2 = graded.rs.roots.index((0, 1, 0))
    assert graded.grades[alpha2] == 1
    with pytest.raises(ClassificationError):
        _make_subsystem(graded, {alpha2})


def test_trichotomy_error_names_the_smallest_bad_root():
    graded = run([("B", 3)], "oxo")
    top = graded.max_grades[0]
    grade = [sum(compress(r, graded.decoration.crossed)) for r in graded.rs.roots]
    bad = [i for i, g in enumerate(grade) if g not in (-top, 0, top)]
    # two bad roots in a set that iterates the larger one first
    pairs = ({a, b} for a in bad for b in bad if a < b)
    members = next(s for s in pairs if next(iter(s)) != min(s))
    lo = min(members)
    with pytest.raises(ClassificationError) as info:
        _make_subsystem(graded, members)
    assert str(info.value) == (
        f"root {graded.rs.roots[lo]} has grade {grade[lo]}, outside {{-2, 0, 2}}"
    )


# ------------------------------------------------------------ simple roots


def _pairwise_simple_idx(sub):
    """The simple members by definition: positive members that are not a sum
    of two positive members, ordered by (component, root)."""
    rs = sub.graded.rs
    half = len(rs.positive_roots)
    comp = rs.component_of_root
    pos = sorted((i for i in sub.members if i >= half), key=lambda i: (comp[i], i))
    sums = {tuple(map(add, rs.roots[a], rs.roots[b])) for a in pos for b in pos}
    return [i for i in pos if rs.roots[i] not in sums]


def test_simple_roots_match_the_pairwise_sum_definition():
    seen = set()
    for dtype, dec in sweep_decorations(8):
        graded = grade_diagram(dtype, dec)
        key = (dtype, tuple(graded.box_idx))
        if key not in seen:
            seen.add(key)
            sub = generate_subsystem(graded)
            assert sub._simple_idx == _pairwise_simple_idx(sub)
    assert len(seen) == 305


# ------------------------------------------------------ diagram automorphisms


def _automorphisms(family, rank):
    """The nontrivial automorphisms of a connected diagram in Bourbaki
    numbering, each as the 0-based image of every node."""
    nodes = list(range(rank))
    if family == "A" and rank >= 2:
        return [nodes[::-1]]
    if family == "D" and rank == 4:  # triality permutes the three legs 1, 3, 4
        legs = (0, 2, 3)
        return [
            [dict(zip(legs, perm)).get(i, i) for i in nodes]
            for perm in itertools.permutations(legs)
            if perm != legs
        ]
    if family == "D":
        return [nodes[:-2] + [rank - 1, rank - 2]]
    if family == "E" and rank == 6:
        return [[5, 1, 4, 3, 2, 0]]
    return []


def test_diagram_automorphisms_leave_the_output_diagram_unchanged():
    # metamorphic: no rule table, just the pipeline on both sides of a
    # symmetry of the input diagram
    pairs = 0
    for dtype in sweep_inputs(8):
        (comp,) = dtype.components
        autos = _automorphisms(comp.family, comp.rank)
        if not autos:
            continue
        out = {}
        for dec in decorations(comp.rank):
            dd = associated_diagram(grade_diagram(dtype, dec))
            out[dec.crossed] = (dd.dtype, dd.decoration)
        for sigma in autos:
            for crossed, image in out.items():
                moved = [False] * comp.rank
                for i, c in enumerate(crossed):
                    moved[sigma[i]] = c
                if tuple(moved) != crossed:
                    assert out[tuple(moved)] == image, (dtype, crossed, sigma)
                    pairs += 1
    assert pairs == 786
