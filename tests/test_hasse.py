"""Hasse diagrams of positive roots: shape, splitting, exports."""

from itertools import compress

import pytest

from cominuscule import (
    Decoration,
    box,
    box_union,
    diagram_type,
    export,
    flag_hasse,
    generate_subsystem,
    grade_diagram,
    hasse,
    highest_component,
    restrict,
    sweep_inputs,
)
from cominuscule.cli import parse_spec
from cominuscule.hasse import _highest_walk
from cominuscule.rootsys import build_root_system

from checkers import sweep_decorations


def rs_for(*pairs):
    return build_root_system(diagram_type(*pairs))


def graded_for(pairs, dec, allow=False):
    return grade_diagram(
        diagram_type(*pairs), Decoration.from_string(dec), allow_point_factors=allow
    )


# ----------------------------------------------------------------- shape


def test_a1_json_is_byte_exact():
    h = hasse(rs_for(("A", 1)))
    assert export(h, "json") == b'{"nodes":[{"coeffs":[1],"grade":1}],"edges":[]}\n'


def test_f4_has_24_positive_roots():
    h = hasse(rs_for(("F", 4)))
    assert len(h.nodes) == 24
    assert h.nodes[0] == ((0, 0, 0, 1), 1)
    assert h.nodes[-1] == ((2, 3, 4, 2), 11)


@pytest.mark.parametrize("rank", range(1, 8))
def test_a_family_edge_count(rank):
    # Every height>=2 root drops to exactly two lower roots.
    h = hasse(rs_for(("A", rank)))
    assert len(h.edges) == rank * rank - rank


@pytest.mark.parametrize(
    "pairs",
    [[("A", r)] for r in range(1, 9)]
    + [[("B", r)] for r in range(2, 9)]
    + [[("C", r)] for r in range(3, 9)]
    + [[("D", r)] for r in range(4, 9)]
    + [[("E", 6)], [("E", 7)], [("E", 8)], [("F", 4)], [("G", 2)]]
    + [[("A", 2), ("B", 3)], [("G", 2), ("A", 1), ("D", 4)]]
    + [[("A", 1), ("A", 1), ("A", 1)], [("A", 1), ("G", 2)]],
)
def test_keyed_edges_match_tuple_successors(pairs):
    # reference: sort the positive roots by (height, root), then for each
    # node in order and each label look the tuple root + e_i up in a dict
    rs = rs_for(*pairs)
    roots = sorted(rs.positive_roots, key=lambda r: (sum(r), r))
    index = {r: i for i, r in enumerate(roots)}
    edges = []
    for a, root in enumerate(roots):
        for i in range(len(root)):
            b = index.get(root[:i] + (root[i] + 1,) + root[i + 1 :])
            if b is not None:
                edges.append((a, b, i + 1))
    h = hasse(rs)
    assert h.nodes == tuple((r, sum(r)) for r in roots)
    assert h.edges == tuple(edges)


def test_nodes_sorted_by_height_then_root():
    h = hasse(rs_for(("B", 3)))
    assert list(h.nodes) == sorted(h.nodes, key=lambda n: (n[1], n[0]))


def test_edges_increase_height_by_one():
    h = hasse(rs_for(("D", 4)))
    for a, b, lab in h.edges:
        ra, ha = h.nodes[a]
        rb, hb = h.nodes[b]
        assert hb == ha + 1
        assert 1 <= lab <= 4
        assert tuple(y - x for x, y in zip(ra, rb)) == tuple(
            int(i == lab - 1) for i in range(4)
        )


def test_sources_are_the_simple_roots():
    rs = rs_for(("C", 3))
    h = hasse(rs)
    targets = {b for _, b, _ in h.edges}
    sources = {h.nodes[i][0] for i in range(len(h.nodes)) if i not in targets}
    assert sources == set(rs.simple_roots)


def test_product_rows_interleave_components():
    h = hasse(rs_for(("A", 1), ("A", 2)))
    assert [n for n in h.nodes] == [
        ((0, 0, 1), 1),
        ((0, 1, 0), 1),
        ((1, 0, 0), 1),
        ((0, 1, 1), 2),
    ]
    assert set(h.edges) == {(0, 3, 2), (1, 3, 3)}


# -------------------------------------------------------------- splitting


def test_flag_erases_exactly_the_crossed_labels():
    graded = graded_for([("F", 4)], "oxox")
    full = hasse(graded.rs)
    flag = flag_hasse(graded)
    assert flag.nodes == full.nodes
    assert set(flag.edges) == {e for e in full.edges if e[2] not in (2, 4)}


def test_flag_pieces_have_constant_grade():
    graded = graded_for([("E", 6)], "ooxooo")
    grade = {r: sum(compress(r, graded.decoration.crossed)) for r in graded.rs.roots}
    flag = flag_hasse(graded)
    adj = {i: set() for i in range(len(flag.nodes))}
    for a, b, _ in flag.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    for start in range(len(flag.nodes)):
        if start in seen:
            continue
        stack, piece = [start], {start}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in piece:
                    piece.add(w)
                    stack.append(w)
        seen |= piece
        grades = {grade[flag.nodes[i][0]] for i in piece}
        assert len(grades) == 1


@pytest.mark.parametrize(
    "pairs,dec",
    [
        ([("A", 4)], "oxoo"),
        ([("B", 4)], "xooo"),
        ([("C", 3)], "oox"),
        ([("D", 5)], "oooox"),
        ([("F", 4)], "ooox"),
        ([("G", 2)], "xo"),
        ([("E", 6)], "xooooo"),
    ],
)
def test_highest_piece_is_the_box(pairs, dec):
    graded = graded_for(pairs, dec)
    (piece,) = highest_component(flag_hasse(graded), graded)
    assert piece == box_union(graded)


def test_highest_piece_per_component_in_a_product():
    graded = graded_for([("A", 1), ("A", 2)], "oxo", allow=True)
    pieces = highest_component(flag_hasse(graded), graded)
    # Uncrossed factor keeps its whole positive poset in one piece.
    assert pieces[0] == frozenset({(1, 0, 0)})
    assert pieces[1] == box(graded)[1] == frozenset({(0, 1, 0), (0, 1, 1)})


def _piece_indices(graded):
    """highest_component's pieces but the point components', as one
    ascending list of root indices."""
    index = {r: i for i, r in enumerate(graded.rs.roots)}
    pieces = highest_component(flag_hasse(graded), graded)
    return sorted(
        index[r]
        for c, piece in enumerate(pieces)
        if c not in graded.point_components
        for r in piece
    )


def test_walk_finds_the_highest_pieces_on_every_rank_7_sweep_input():
    count = 0
    for dtype, dec in sweep_decorations(7):
        graded = grade_diagram(dtype, dec)
        assert _highest_walk(graded) == _piece_indices(graded)
        count += 1
    assert count == 1180


@pytest.mark.parametrize(
    "spec",
    [
        "E6xA2:xooooxox",
        "D5xA3:xoooxoxo",
        "D6xA2:oxoooxox",
        "C4xA1xF4:oxoxxoxoo",
        "A1xA2:oxo",  # a point component has no piece in the walk
        "A44:oooxooooooooooooooooooooooooooooooooooooooxo",
        "D32:oxooooooooooooooooooooooooooooox",
    ],
)
def test_walk_finds_the_highest_pieces_on_products_and_at_the_root_cap(spec):
    dtype, dec = parse_spec(spec)
    graded = grade_diagram(dtype, dec, allow_point_factors=True)
    assert _highest_walk(graded) == _piece_indices(graded) == graded.box_idx


def _key_walk(graded):
    """The walk level by level over keys: each level is the keys one
    non-crossed simple root below the last level's that are roots' keys."""
    rs = graded.rs
    index = rs.key_index
    steps = [w for w, c in zip(rs._weights, graded.decoration.crossed) if not c]
    points = graded.point_components
    level = [rs.keys[i] for ci, i in enumerate(rs.highest_idx) if ci not in points]
    reached = []
    while level:
        reached += level
        level = {d for k in level for w in steps if (d := k - w) in index}
    return sorted([index[k] for k in reached])


def test_down_lists_are_the_roots_one_simple_root_below():
    # by coefficient tuples: root i minus e_j, wherever that is a root
    for dtype in sweep_inputs(8):
        rs = build_root_system(dtype)
        index = {r: i for i, r in enumerate(rs.roots)}
        half = len(rs.positive_roots)
        want = [()] * half
        for r in rs.positive_roots:
            below = [r[:j] + (r[j] - 1,) + r[j + 1 :] for j in range(len(r))]
            want.append(tuple((j, index[b]) for j, b in enumerate(below) if b in index))
        assert rs._down == tuple(want), dtype


def test_walk_over_down_lists_is_the_key_walk_on_every_rank_8_sweep_input():
    count = 0
    for dtype, dec in sweep_decorations(8):
        graded = grade_diagram(dtype, dec)
        assert _highest_walk(graded) == _key_walk(graded), (dtype, dec)
        count += 1
    assert count == 2455


@pytest.mark.parametrize(
    "spec",
    [
        "E6xA2:xooooxox",
        "D5xA3:xoooxoxo",
        "D6xA2:oxoooxox",
        "C4xA1xF4:oxoxxoxoo",
        "A1xA2:oxo",
        "A44:oooxooooooooooooooooooooooooooooooooooooooxo",
        "D32:oxooooooooooooooooooooooooooooox",
    ],
)
def test_walk_over_down_lists_is_the_key_walk_on_products(spec):
    dtype, dec = parse_spec(spec)
    graded = grade_diagram(dtype, dec, allow_point_factors=True)
    assert _highest_walk(graded) == _key_walk(graded)


def test_quadric_box_is_a_chain():
    for rank in range(2, 7):
        graded = graded_for([("B", rank)], "x" + "o" * (rank - 1))
        flag = flag_hasse(graded)
        (piece,) = highest_component(flag, graded)
        chain = restrict(flag, piece)
        assert len(chain.nodes) == 2 * rank - 1
        heights = [h for _, h in chain.nodes]
        assert heights == list(range(1, 2 * rank))
        assert len(chain.edges) == 2 * rank - 2
        labels = sorted(lab for _, _, lab in chain.edges)
        assert labels == sorted(list(range(2, rank + 1)) * 2)


def test_grassmannian_box_is_a_grid():
    # A5 crossed at 2: the box is a 2x4 grid graded by antidiagonals.
    graded = graded_for([("A", 5)], "oxooo")
    flag = flag_hasse(graded)
    (piece,) = highest_component(flag, graded)
    grid = restrict(flag, piece)
    assert len(grid.nodes) == 8
    profile: dict[int, int] = {}
    for _, h in grid.nodes:
        profile[h] = profile.get(h, 0) + 1
    assert profile == {1: 1, 2: 2, 3: 2, 4: 2, 5: 1}


def test_box_minimum_is_the_crossed_subsystem_simple():
    for pairs, dec in [
        ([("B", 5)], "xooxo"),
        ([("C", 4)], "ooox"),
        ([("F", 4)], "ooox"),
        ([("E", 7)], "oooooox"),
    ]:
        graded = graded_for(pairs, dec)
        flag = flag_hasse(graded)
        (piece,) = highest_component(flag, graded)
        poset = restrict(flag, piece)
        targets = {b for _, b, _ in poset.edges}
        sources = [
            poset.nodes[i][0] for i in range(len(poset.nodes)) if i not in targets
        ]
        sub = generate_subsystem(graded)
        marks = graded.decoration.crossed
        (crossed,) = [s for s in sub.simples if sum(compress(s, marks)) > 0]
        assert sources == [crossed]


def test_restrict_reindexes_edges():
    h = hasse(rs_for(("A", 3)))
    keep = frozenset({(1, 0, 0), (1, 1, 0), (1, 1, 1)})
    sub = restrict(h, keep)
    assert [r for r, _ in sub.nodes] == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert set(sub.edges) == {(0, 1, 2), (1, 2, 3)}


# ---------------------------------------------------------------- exports


def test_exports_are_deterministic_across_rebuilds():
    graded = graded_for([("C", 3)], "oox")
    flag = flag_hasse(graded)
    rebuilt = restrict(flag, frozenset(r for r, _ in flag.nodes))
    assert flag is not rebuilt
    for fmt in ("json", "dot", "text"):
        assert export(flag, fmt) == export(rebuilt, fmt)


def test_dot_export_shape():
    out = export(hasse(rs_for(("G", 2))), "dot").decode()
    lines = out.splitlines()
    assert lines[0] == "digraph hasse {"
    assert lines[1] == "rankdir=BT;"
    assert lines[-1] == "}"
    assert out.endswith("}\n")
    assert sum(1 for l in lines if "rank=same" in l) == 5
    assert sum(1 for l in lines if " -> " in l) == 5
    assert '"0,1" -> "1,1" [label=1];' in lines


def test_text_export_shape():
    out = export(hasse(rs_for(("G", 2))), "text").decode()
    lines = out.splitlines()
    assert lines[0] == "height 1: (0,1) (1,0)"
    assert lines[4] == "height 5: (3,2)"
    assert "(3,1) -2-> (3,2)" in lines


def test_json_export_round_trips():
    import json

    h = flag_hasse(graded_for([("D", 4)], "xooo"))
    doc = json.loads(export(h, "json"))
    assert len(doc["nodes"]) == len(h.nodes)
    assert doc["edges"][0].keys() == {"from", "to", "label"}


def test_unknown_format_rejected():
    h = hasse(rs_for(("A", 1)))
    with pytest.raises(ValueError):
        export(h, "svg")
