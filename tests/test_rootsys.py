"""Root system construction against closed forms and the Euclidean oracle."""

import re
from operator import add, sub

import pytest

from cominuscule import (
    Component,
    Decoration,
    DiagramType,
    InvalidDiagramError,
    build_root_system,
    cominuscule_id,
    diagram_type,
    normalize_component,
)
from cominuscule import rootsys
from cominuscule.rootsys import MAX_ROOTS, _build, _highest_root, component_cartan

from conftest import coefficient_set

ALL_IRREDUCIBLE = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def positive_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    return {"F": 24, "G": 6}[family]


@pytest.mark.parametrize("family,rank", ALL_IRREDUCIBLE)
def test_positive_root_counts(family, rank):
    rs = build_root_system(diagram_type((family, rank)))
    assert len(rs.positive_roots) == positive_count(family, rank)
    assert len(rs.roots) == 2 * len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", ALL_IRREDUCIBLE)
def test_agrees_with_euclidean_model(family, rank):
    rs = build_root_system(diagram_type((family, rank)))
    model = coefficient_set(family, rank)
    assert set(rs.roots) == model
    # the model's unique root of greatest height is the highest root, which
    # the build reads from the marks table
    top = max(map(sum, model))
    assert [r for r in model if sum(r) == top] == [rs.highest_roots[0]]


def test_highest_root_marks_give_the_root_count_at_every_rank():
    # |roots| = rank (1 + sum of marks) for every canonical type the CLI
    # accepts, with no build; tier-1 builds few types above rank 8
    types = [(f, r) for r in range(1, 46) for f in rootsys._canonical_families(r)]
    assert len(types) == 179
    for family, rank in types:
        theta = _highest_root(Component(family, rank))
        assert len(theta) == rank
        assert rank * (1 + sum(theta)) == 2 * positive_count(family, rank)


@pytest.mark.parametrize(
    "marks,message",
    [
        # E7's last two marks swapped: the sum, and so the root count, is kept
        ((2, 2, 3, 4, 3, 1, 2), "component E7 does not have (2, 2, 3, 4, 3, 1, 2)"),
        # one mark raised by 1: the table now promises 7 (1 + 18) roots
        ((2, 2, 3, 4, 3, 2, 2), "component E7 closed to 126 roots, expected 133"),
    ],
)
def test_a_wrong_highest_root_fails_the_build(monkeypatch, marks, message):
    monkeypatch.setattr(rootsys, "_highest_root", lambda comp: marks)
    with pytest.raises(InvalidDiagramError, match=re.escape(message)):
        _build.__wrapped__(diagram_type(("E", 7)))


def test_a_closure_past_the_root_count_stops(monkeypatch):
    # D9 with node 9 joined to node 6 instead of node 7 (Bourbaki numbering)
    # has arms of 5, 2 and 1 nodes at node 6: the affine E8 shape, whose
    # real roots never close; the marks promise D9's 72 positive roots
    real = rootsys._edges

    def affine(family, rank):
        edges = real(family, rank)
        if family == "D":
            edges = edges[:-1] + [(rank - 4, rank - 1, -1, -1)]
        return edges

    monkeypatch.setattr(rootsys, "_edges", affine)
    with pytest.raises(InvalidDiagramError, match="more than 72 positive roots"):
        _build.__wrapped__(diagram_type(("D", 9)))


@pytest.mark.parametrize(
    "family,rank,top",
    [
        ("A", 4, (1, 1, 1, 1)),
        ("B", 4, (1, 2, 2, 2)),
        ("C", 4, (2, 2, 2, 1)),
        ("D", 5, (1, 2, 2, 1, 1)),
        ("E", 6, (1, 2, 2, 3, 2, 1)),
        ("E", 7, (2, 2, 3, 4, 3, 2, 1)),
        ("E", 8, (2, 3, 4, 6, 5, 4, 3, 2)),
        ("F", 4, (2, 3, 4, 2)),
        ("G", 2, (3, 2)),
    ],
)
def test_highest_roots(family, rank, top):
    rs = build_root_system(diagram_type((family, rank)))
    assert rs.highest_roots == (top,)
    assert tuple(rs.roots[i] for i in rs.highest_idx) == rs.highest_roots
    # no positive root strictly dominates the highest root
    for r in rs.positive_roots:
        assert all(c <= t for c, t in zip(r, top))


def pairing(rs, beta, alpha):
    """<beta, alpha-check> of two coefficient tuples, through root indices."""
    return rs.pair(rs.roots.index(beta), rs.roots.index(alpha))


def reflect(rs, alpha, beta):
    """Reflection of beta in alpha, coefficient tuples in and out."""
    return rs.roots[rs._refl[rs.roots.index(alpha)][rs.roots.index(beta)]]


def test_pairing_and_reflection_basics():
    a2 = build_root_system(diagram_type(("A", 2)))
    assert pairing(a2, (1, 0), (0, 1)) == -1
    assert reflect(a2, (1, 0), (1, 0)) == (-1, 0)
    assert reflect(a2, (0, 1), (1, 0)) == (1, 1)

    g2 = build_root_system(diagram_type(("G", 2)))
    assert pairing(g2, (1, 0), (0, 1)) == -1
    assert pairing(g2, (0, 1), (1, 0)) == -3
    assert reflect(g2, (1, 0), (0, 1)) == (3, 1)

    b3 = build_root_system(diagram_type(("B", 3)))
    assert pairing(b3, (0, 1, 2), (0, 1, 2)) == 2


def test_reflection_stays_inside():
    # every row of the table is a permutation of the root indices
    rs = build_root_system(diagram_type(("F", 4)))
    m = len(rs.roots)
    for row in rs._refl:
        assert sorted(row) == list(range(m))


def test_normalization_collapses():
    assert normalize_component("B", 1) == (Component("A", 1), (0,))
    assert normalize_component("C", 1) == (Component("A", 1), (0,))
    assert normalize_component("C", 2) == (Component("B", 2), (1, 0))
    assert normalize_component("D", 3) == (Component("A", 3), (1, 0, 2))
    with pytest.raises(InvalidDiagramError):
        normalize_component("D", 2)


def test_component_bounds():
    for family, rank in [("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 3), ("H", 2)]:
        with pytest.raises(InvalidDiagramError):
            Component(family, rank)
    with pytest.raises(InvalidDiagramError):
        diagram_type()


def test_value_types_are_immutable_and_validated():
    for value, field in [
        (Component("A", 2), "rank"),
        (Decoration.from_string("xo"), "crossed"),
        (cominuscule_id("A", 2, 1), "dimension"),
    ]:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    with pytest.raises(InvalidDiagramError):
        Component("Q", 1)
    with pytest.raises(InvalidDiagramError):
        DiagramType(())
    # a copy is validated as a new value is
    with pytest.raises(InvalidDiagramError):
        Component("A", 2)._replace(rank=0)
    with pytest.raises(InvalidDiagramError):
        diagram_type(("A", 1))._replace(components=())


def test_product_structure():
    rs = build_root_system(diagram_type(("A", 2), ("B", 2)))
    assert str(rs.dtype) == "A2xB2"
    assert rs.dtype.ranges() == ((0, 2), (2, 4))
    assert len(rs.positive_roots) == 3 + 4
    assert rs.highest_roots == ((1, 1, 0, 0), (0, 0, 1, 2))
    assert tuple(rs.roots[i] for i in rs.highest_idx) == rs.highest_roots
    assert rs.component_of_root[rs.roots.index((1, 0, 0, 0))] == 0
    assert rs.component_of_root[rs.roots.index((0, 0, 1, 1))] == 1
    assert rs.component_of_node == (0, 0, 1, 1)
    # no mixed-component roots
    for r in rs.roots:
        assert sum(1 for c in r[:2] if c) == 0 or sum(1 for c in r[2:] if c) == 0


def test_roots_are_deterministic():
    one = _build.__wrapped__(diagram_type(("D", 5)))
    two = _build.__wrapped__(diagram_type(("D", 5)))
    assert one.roots == two.roots
    assert one.cartan == two.cartan
    assert one.simple_roots == two.simple_roots


def test_cartan_matrices_match_multiplicities():
    # the B/C pair differ only by transposing the double edge
    b = component_cartan("B", 3)
    c = component_cartan("C", 3)
    assert b[2][1] == -2 and b[1][2] == -1
    assert c[2][1] == -1 and c[1][2] == -2
    f = component_cartan("F", 4)
    assert f[2][1] == -2 and f[1][2] == -1
    g = component_cartan("G", 2)
    assert g[0][1] == -3 and g[1][0] == -1
    e7 = component_cartan("E", 7)
    assert e7[1][3] == e7[3][1] == -1 and e7[1][2] == 0


# ------------------------------------------------------- keyed root index


def symmetrizer(family: str, rank: int) -> tuple[int, ...]:
    """d with d_i C_ij = d_j C_ji, in closed form: d_i is proportional to the
    squared length of simple root i (Bourbaki numbering, short roots 1)."""
    if family == "B":
        return (2,) * (rank - 1) + (1,)
    if family == "C":
        return (1,) * (rank - 1) + (2,)
    if family == "F":
        return (2, 2, 1, 1)
    if family == "G":
        return (1, 3)
    return (1,) * rank


@pytest.mark.parametrize(
    "pairs",
    [
        pytest.param([p], id=f"{p[0]}-{p[1]}")
        for p in ALL_IRREDUCIBLE + [("A", 20), ("B", 12), ("D", 12)]
    ]
    + [
        pytest.param(pairs, id="x".join(f"{f}{r}" for f, r in pairs))
        for pairs in (
            [("A", 2), ("B", 2)],
            [("G", 2), ("A", 1), ("A", 1)],
            [("D", 4), ("A", 3)],
            [("E", 6), ("C", 3)],
        )
    ],
)
def test_keyed_reflection_table_is_exact(pairs):
    # every entry against beta - <beta, alpha-check> alpha in tuple arithmetic,
    # with <beta, alpha-check> = 2(beta, alpha)/(alpha, alpha) from the
    # symmetrized Cartan form (x, y) = sum x_i d_i C_ij y_j; a product's
    # symmetrizer is its components' symmetrizers side by side, and the
    # entries across components are checked too
    rs = build_root_system(diagram_type(*pairs))
    roots = rs.roots
    d, C = sum((symmetrizer(*p) for p in pairs), ()), rs.cartan
    n = len(d)
    assert all(d[i] * C[i][j] == d[j] * C[j][i] for i in range(n) for j in range(n))
    refl = rs._refl
    for a, alpha in enumerate(roots):
        form = [d[i] * sum(C[i][j] * alpha[j] for j in range(n)) for i in range(n)]
        norm = sum(x * y for x, y in zip(alpha, form))
        for b, beta in enumerate(roots):
            k, rest = divmod(2 * sum(x * y for x, y in zip(beta, form)), norm)
            assert rest == 0
            assert roots[refl[a][b]] == tuple(x - k * y for x, y in zip(beta, alpha))


@pytest.mark.parametrize(
    "pairs,i,j",
    [
        ([("A", 3)], 0, 2),
        ([("D", 5)], 3, 4),
        ([("E", 8)], 0, 1),
        ([("A", 1), ("B", 2)], 0, 2),
    ],
)
def test_key_lookup_rejects_non_roots(pairs, i, j):
    rs = build_root_system(diagram_type(*pairs))
    assert pairing(rs, rs.simple_roots[i], rs.simple_roots[j]) == 0
    n = rs.dtype.total_rank
    zero = (0,) * n
    double = tuple(2 * c for c in rs.simple_roots[i])
    orthogonal_sum = tuple(
        x + y for x, y in zip(rs.simple_roots[i], rs.simple_roots[j])
    )
    keys = [
        sum(c * w for c, w in zip(v, rs._weights))
        for v in (zero, double, orthogonal_sum)
    ]
    assert [rs.key_index.get(k, -1) for k in keys] == [-1, -1, -1]
    assert [rs.key_index[k] for k in rs.keys] == list(range(len(rs.roots)))


def test_a40_keys_stay_exact():
    # a mixed-radix key over 40 nodes overflows int64 and must stay exact
    rs = _build.__wrapped__(diagram_type(("A", 40)))
    m = len(rs.roots)
    assert m == 1640
    assert len(set(rs.keys)) == m
    assert [len(row) for row in rs._refl] == [m] * m
    # each row is a permutation of the roots: reflections are bijections
    assert all(sorted(row) == list(range(m)) for row in rs._refl)
    # a root reflects in itself to its negative, which sits at index m-1-i
    assert [rs._refl[i][i] for i in range(m)] == list(range(m))[::-1]
    theta = rs.roots.index(rs.highest_roots[0])
    assert reflect(rs, rs.simple_roots[0], rs.highest_roots[0]) == (0,) + (1,) * 39
    assert [rs.key_index[rs.keys[i]] for i in (0, theta)] == [0, theta]


@pytest.mark.parametrize(
    "pairs",
    [[p] for p in ALL_IRREDUCIBLE if p[1] > 1]
    + [[("A", 1), ("A", 1), ("A", 1)], [("A", 1), ("G", 2)]],
)
def test_looked_up_vectors_have_key_digits_in_range(pairs):
    # a key reads the coefficients as digits in base b, so a vector's key
    # names it exactly when every coefficient lies within +-(b-1)/2.  Members
    # of a subsystem and roots of a box are positive roots, so sums (the
    # simple-root search) and differences (direct_subsystem) of two positive
    # roots cover every decoration's lookups, and root + e_i the Hasse
    # edges.  A1 alone has one digit and nothing to carry into.
    rs = build_root_system(diagram_type(*pairs))
    bound = (rs._weights[1] - 1) // 2
    pos = rs.positive_roots
    units = rs.simple_roots
    vectors = (
        [tuple(map(add, a, b)) for a in pos for b in pos]
        + [tuple(map(sub, a, b)) for a in pos for b in pos]
        + [tuple(map(add, a, e)) for a in pos for e in units]
    )
    assert max(abs(c) for v in vectors for c in v) <= bound


def test_root_count_cap_is_checked_before_building():
    # A40 (1640 roots) fits; a product of two does not, and neither does A100
    assert 2 * positive_count("A", 40) <= MAX_ROOTS
    for pairs, count in ([[("A", 40), ("A", 40)], 3280], [[("A", 100)], 10100]):
        with pytest.raises(InvalidDiagramError, match=f"{count} roots.*{MAX_ROOTS}"):
            _build.__wrapped__(diagram_type(*pairs))


# ------------------------------------------------------- packed columns


@pytest.mark.parametrize(
    "family,rank,height", [("A", 44, 44), ("B", 31, 61), ("C", 31, 61), ("D", 32, 61)]
)
def test_largest_types_under_the_root_cap_have_height_at_most_61(family, rank, height):
    # the next rank of each family is over the cap
    with pytest.raises(InvalidDiagramError, match="over the limit"):
        _build.__wrapped__(diagram_type((family, rank + 1)))
    rs = _build.__wrapped__(diagram_type((family, rank)))
    assert max(sum(r) for r in rs.highest_roots) == height <= 61
    # crossing every node grades each root by its height up to sign, byte i
    # for root i
    heights = list(sum(rs.columns).to_bytes(len(rs.roots), "little"))
    assert heights == [abs(sum(r)) for r in rs.roots]


def test_height_guard_fires_before_building(monkeypatch):
    monkeypatch.setattr(rootsys, "MAX_ROOTS", 10**6)

    def no_closure(*args):
        raise AssertionError(f"closing a rank-{len(args[0])} component")

    monkeypatch.setattr(rootsys, "_close_simples", no_closure)
    for pairs, height in (
        ([("A", 256)], 256),
        ([("B", 129)], 257),
        ([("A", 1), ("D", 130)], 257),
    ):
        with pytest.raises(InvalidDiagramError, match=f"height {height}, over.* 255"):
            _build.__wrapped__(diagram_type(*pairs))
