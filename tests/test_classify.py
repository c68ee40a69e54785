"""Cartan matrix recognition and the table of cominuscule varieties."""

import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cominuscule import (
    ClassificationError,
    Decoration,
    DecorationError,
    InvalidDiagramError,
    NotCominusculeError,
    classify_cominuscule,
    cominuscule_id,
    diagram_type,
    recognize_labelings,
)
from cominuscule.rootsys import build_root_system, component_cartan
from cominuscule.subsystem import DecoratedDiagram

ALL_IRREDUCIBLE = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


# ----------------------------------------------------------- recognition


@pytest.mark.parametrize("family,rank", ALL_IRREDUCIBLE)
def test_identity_labeling_recognized(family, rank):
    ((fam, r, labelings),) = recognize_labelings(component_cartan(family, rank))
    assert (fam, r) == (family, rank)
    assert min(labelings) == tuple(range(rank))


def test_product_recognized_in_block_order():
    rs = build_root_system(diagram_type(("A", 2), ("B", 3), ("G", 2)))
    found = recognize_labelings(rs.cartan)
    assert [(family, rank) for family, rank, _ in found] == [
        ("A", 2),
        ("B", 3),
        ("G", 2),
    ]
    assert tuple(v for _, _, labelings in found for v in min(labelings)) == tuple(
        range(7)
    )


def _permuted(cartan, perm):
    n = len(cartan)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = cartan[i][j]
    return out


@pytest.mark.parametrize(
    "pairs",
    [
        [("A", 5)],
        [("B", 4)],
        [("C", 4)],
        [("D", 5)],
        [("D", 4)],
        [("E", 6)],
        [("E", 7)],
        [("E", 8)],
        [("F", 4)],
        [("G", 2)],
        [("A", 2), ("C", 3)],
        [("B", 2), ("D", 4), ("A", 1)],
    ],
)
def test_recognition_is_permutation_invariant(pairs):
    base = build_root_system(diagram_type(*pairs)).cartan
    n = len(base)
    rng = random.Random(20260815 + n)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        scrambled = _permuted(base, perm)
        found = recognize_labelings(scrambled)
        assert sorted((family, rank) for family, rank, _ in found) == sorted(
            pairs
        )
        # Every returned labeling must reproduce the standard matrix exactly.
        for family, rank, labelings in found:
            std = component_cartan(family, rank)
            for nodes in labelings:
                for i in range(rank):
                    for j in range(rank):
                        assert scrambled[nodes[i]][nodes[j]] == std[i][j]


# Every canonical irreducible type up to rank 12.
CANONICAL = (
    [("A", r) for r in range(1, 13)]
    + [("B", r) for r in range(2, 13)]
    + [("C", r) for r in range(3, 13)]
    + [("D", r) for r in range(4, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _automorphisms(family, rank):
    """Order of the Dynkin diagram's automorphism group, in closed form."""
    if (family == "A" and rank >= 2) or (family, rank) == ("E", 6):
        return 2
    if family == "D":
        return 6 if rank == 4 else 2
    return 1


def _block_cartan(pairs):
    n = sum(rank for _, rank in pairs)
    out = [[0] * n for _ in range(n)]
    start = 0
    for family, rank in pairs:
        std = component_cartan(family, rank)
        for i in range(rank):
            for j in range(rank):
                out[start + i][start + j] = std[i][j]
        start += rank
    return out


@st.composite
def permuted_products(draw):
    """At most three canonical types of total rank <= 12, and a node permutation."""
    pairs, budget = [], 12
    for _ in range(draw(st.integers(1, 3))):
        fits = [p for p in CANONICAL if p[1] <= budget]
        if not fits:
            break
        pairs.append(draw(st.sampled_from(fits)))
        budget -= pairs[-1][1]
    perm = draw(st.permutations(range(12 - budget)))
    return pairs, perm


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(permuted_products())
def test_labelings_follow_a_node_permutation(case):
    pairs, perm = case
    base = _block_cartan(pairs)
    expected = Counter(
        (family, rank, frozenset(tuple(perm[v] for v in c) for c in labelings))
        for family, rank, labelings in recognize_labelings(base)
    )
    found = recognize_labelings(_permuted(base, perm))
    assert Counter(
        (family, rank, frozenset(labelings)) for family, rank, labelings in found
    ) == expected
    assert sorted((family, rank) for family, rank, _ in found) == sorted(pairs)
    for family, rank, labelings in found:
        assert len(set(labelings)) == len(labelings) == _automorphisms(family, rank)


def test_g2_orientation():
    # The short root's row carries the -3; Bourbaki puts it first.
    assert recognize_labelings([[2, -1], [-3, 2]]) == (("G", 2, ((1, 0),)),)
    assert recognize_labelings([[2, -3], [-1, 2]]) == (("G", 2, ((0, 1),)),)


def test_b2_orientation():
    # The -2 sits in the short node's row; Bourbaki node 1 is the long one.
    assert recognize_labelings([[2, -1], [-2, 2]]) == (("B", 2, ((0, 1),)),)
    assert recognize_labelings([[2, -2], [-1, 2]]) == (("B", 2, ((1, 0),)),)


def test_bc_distinguished_by_last_edge():
    ((b3, _, _),) = recognize_labelings(component_cartan("B", 3))
    ((c3, _, _),) = recognize_labelings(component_cartan("C", 3))
    assert (b3, c3) == ("B", "C")
    # Transposing swaps the families.
    t = [list(r) for r in zip(*component_cartan("B", 3))]
    assert recognize_labelings(t)[0][0] == "C"


def test_labelings_expose_automorphisms():
    ((fam, rank, labelings),) = recognize_labelings(component_cartan("A", 3))
    assert (fam, rank) == ("A", 3)
    assert set(labelings) == {(0, 1, 2), (2, 1, 0)}
    ((fam, rank, labelings),) = recognize_labelings(component_cartan("D", 4))
    assert len(labelings) == 6  # triality permutes the three tips
    ((fam, rank, labelings),) = recognize_labelings(component_cartan("E", 6))
    assert len(labelings) == 2
    ((fam, rank, labelings),) = recognize_labelings(component_cartan("E", 7))
    assert len(labelings) == 1
    ((fam, rank, labelings),) = recognize_labelings(component_cartan("F", 4))
    assert len(labelings) == 1


def test_recognition_leaves_no_reference_cycles():
    # a self-referencing closure would leave a function <-> cell cycle per
    # call for the cyclic collector
    cartan = component_cartan("D", 4)
    gc.collect()
    gc.disable()
    try:
        ((_, _, labelings),) = recognize_labelings(cartan)
        assert len(labelings) == 6
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------- rejects


def _star(*arms):
    """Simply-laced Cartan matrix of a center node with arms of these lengths."""
    n = 1 + sum(arms)
    out = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    v = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            out[prev][v] = out[v][prev] = -1
            prev, v = v, v + 1
    return out


@pytest.mark.parametrize(
    "cartan",
    [
        [[2, -2], [-2, 2]],  # edge multiplicity 4
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # cycle
        [
            [2, -1, -1, -1, -1],
            [-1, 2, 0, 0, 0],
            [-1, 0, 2, 0, 0],
            [-1, 0, 0, 2, 0],
            [-1, 0, 0, 0, 2],
        ],  # degree-4 star
        [
            [2, -1, 0, 0, 0, 0],
            [-1, 2, -1, -1, 0, 0],
            [0, -1, 2, 0, 0, 0],
            [0, -1, 0, 2, -1, -1],
            [0, 0, 0, -1, 2, 0],
            [0, 0, 0, -1, 0, 2],
        ],  # two branch nodes
        [
            [2, -1, 0, -1, 0, -1, 0],
            [-1, 2, -1, 0, 0, 0, 0],
            [0, -1, 2, 0, 0, 0, 0],
            [-1, 0, 0, 2, -1, 0, 0],
            [0, 0, 0, -1, 2, 0, 0],
            [-1, 0, 0, 0, 0, 2, -1],
            [0, 0, 0, 0, 0, -1, 2],
        ],  # three arms of length 2
        [[2, -3, 0], [-1, 2, -1], [0, -1, 2]],  # triple edge beyond rank 2
        [[2, -2, 0], [-1, 2, -2], [0, -1, 2]],  # two double edges
        [
            [2, -1, 0, 0, 0],
            [-1, 2, -1, 0, 0],
            [0, -2, 2, -1, 0],
            [0, 0, -1, 2, -1],
            [0, 0, 0, -1, 2],
        ],  # interior double edge at rank 5
        _star(1, 2, 5),  # the rank-9 "E9" shape
        _star(1, 3, 3),  # affine E7
        [
            [2, -1, -1, -2],
            [-1, 2, 0, 0],
            [-1, 0, 2, 0],
            [-1, 0, 0, 2],
        ],  # branched with a double edge
        [[2, -4], [-1, 2]],  # edge multiplicity 4, one-sided
        [
            [2, 0, 0, 0],
            [0, 2, -1, -1],
            [0, -1, 2, -1],
            [0, -1, -1, 2],
        ],  # A1 times a 3-cycle
        [[2, -1, 0], [-1, 2, -1]],  # not square
        [[2, -1], [-1, 1]],  # diagonal not 2
        [[2, 1], [1, 2]],  # positive off-diagonal
        [[2, 0], [-1, 2]],  # asymmetric zero pattern
        [[2, -1.0], [-1, 2]],  # non-integer entry
        [],  # empty
    ],
)
def test_invalid_cartan_rejected(cartan):
    with pytest.raises(ClassificationError):
        recognize_labelings(cartan)


# ---------------------------------------------------------------- the table


def test_table_projective_family():
    line = cominuscule_id("A", 1, 1)
    assert (line.dimension, line.description) == (1, "projective line P^1")
    p4 = cominuscule_id("A", 4, 1)
    assert (p4.dimension, p4.description) == (4, "projective space P^4")
    assert cominuscule_id("A", 4, 4).crossed_node == 1  # dual of P^4


def test_table_grassmannian_canonicalizes_the_node():
    g = cominuscule_id("A", 5, 2)
    assert (g.crossed_node, g.embedded_node, g.dimension) == (2, 2, 8)
    assert g.description == "Grassmannian of 2-planes in C^6"
    dual = cominuscule_id("A", 5, 4)
    assert (dual.crossed_node, dual.embedded_node) == (2, 4)
    assert dual.key() == g.key()


def test_table_quadrics_and_lagrangians():
    b = cominuscule_id("B", 4, 1)
    assert (b.dimension, b.description) == (
        7,
        "quadric hypersurface Q^7 in P^8",
    )
    assert str(b) == "B4, node 1 crossed, dim 7 - quadric hypersurface Q^7 in P^8"
    c = cominuscule_id("C", 3, 3)
    assert (c.dimension, c.description) == (
        6,
        "space of Lagrangian 3-planes in C^6",
    )
    d = cominuscule_id("D", 5, 1)
    assert (d.dimension, d.description) == (
        8,
        "quadric hypersurface Q^8 in P^9",
    )


def test_table_spinor_varieties():
    s = cominuscule_id("D", 5, 4)
    assert (s.crossed_node, s.embedded_node, s.dimension) == (5, 4, 10)
    assert s.description == "space of null 5-planes in C^10"
    assert s.key() == cominuscule_id("D", 5, 5).key()


def test_table_exceptional_minuscule():
    e6 = cominuscule_id("E", 6, 6)
    assert (e6.crossed_node, e6.embedded_node, e6.dimension) == (1, 6, 16)
    assert e6.description == "complexified octave projective plane"
    assert e6.key() == cominuscule_id("E", 6, 1).key()
    e7 = cominuscule_id("E", 7, 7)
    assert (e7.crossed_node, e7.dimension) == (7, 27)
    assert e7.description == "space of null octave 3-planes in octave 6-space"


@pytest.mark.parametrize(
    "family,rank,node",
    [("B", 3, 2), ("B", 3, 3), ("C", 3, 1), ("C", 3, 2), ("D", 5, 2), ("D", 5, 3)]
    + [("E", 6, n) for n in (2, 3, 4, 5)]
    + [("E", 7, n) for n in range(1, 7)]
    + [("E", 8, n) for n in range(1, 9)]
    + [("F", 4, n) for n in range(1, 5)]
    + [("G", 2, n) for n in (1, 2)],
)
def test_table_rejects_non_cominuscule_nodes(family, rank, node):
    with pytest.raises(NotCominusculeError):
        cominuscule_id(family, rank, node)


def test_table_rejects_out_of_range_nodes():
    with pytest.raises(InvalidDiagramError):
        cominuscule_id("A", 3, 0)
    with pytest.raises(InvalidDiagramError):
        cominuscule_id("A", 3, 4)


# --------------------------------------------------- classifying diagrams


def _diagram(pairs, dec):
    dtype = diagram_type(*pairs)
    rs = build_root_system(dtype)
    return DecoratedDiagram(
        dtype, Decoration.from_string(dec), rs.simple_roots
    )


def test_classify_product_componentwise():
    ids = classify_cominuscule(_diagram([("A", 2), ("B", 3)], "xoxoo"))
    assert [c.key() for c in ids] == [("A", 2, 1, 2), ("B", 3, 1, 5)]


def test_classify_requires_one_cross_per_component():
    with pytest.raises(DecorationError):
        classify_cominuscule(_diagram([("A", 2), ("B", 3)], "xxxoo"))
    with pytest.raises(DecorationError):
        classify_cominuscule(_diagram([("A", 2), ("B", 3)], "xoooo"))


def test_classify_propagates_table_errors():
    with pytest.raises(NotCominusculeError):
        classify_cominuscule(_diagram([("F", 4)], "xooo"))
