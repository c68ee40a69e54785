"""Labeled Hasse diagrams of positive roots, and their exports.

Nodes are positive roots layered by height; an edge labeled i joins a root
to root-plus-simple-i.  The flag variant erases edges labeled by crossed
nodes, which splits the diagram; the piece holding a component's highest
root recovers that component's box.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .grading import GradedRootSystem
from .rootsys import DiagramType, Root, RootSystem, build_root_system


class HasseDiagram(NamedTuple):
    """nodes: (root, height) sorted by (height, root); edges: (from, to, label).

    Edge labels are 1-based global simple-root indices.
    """

    nodes: tuple[tuple[Root, int], ...]
    edges: tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=None)
def _full_hasse(dtype: DiagramType) -> HasseDiagram:
    rs = build_root_system(dtype)
    # byte a of the sum of all columns is the height of root a, up to sign,
    # and a stable sort by height keeps ties in root order; the positive
    # roots sort last
    half = len(rs.positive_roots)
    height = sum(rs.columns).to_bytes(len(rs.roots), "little")
    pos = sorted(range(half, 2 * half), key=height.__getitem__)
    node_of = {a: t for t, a in enumerate(pos)}
    nodes = tuple((rs.roots[a], height[a]) for a in pos)
    # root + simple root i by its key, edges ordered by (from, label)
    keys, at = rs.keys, rs.key_index
    edges = []
    for t, a in enumerate(pos):
        for i, w in enumerate(rs._weights):
            b = at.get(keys[a] + w)
            if b is not None:
                edges.append((t, node_of[b], i + 1))
    return HasseDiagram(nodes, tuple(edges))


def hasse(rs: RootSystem) -> HasseDiagram:
    """Full Hasse diagram on the positive roots."""
    return _full_hasse(rs.dtype)


def flag_hasse(graded: GradedRootSystem) -> HasseDiagram:
    """Full diagram minus every edge labeled by a crossed node."""
    full = hasse(graded.rs)
    keep = (False,) + tuple(not c for c in graded.decoration.crossed)  # by label
    return HasseDiagram(full.nodes, tuple(e for e in full.edges if keep[e[2]]))


def highest_component(
    h: HasseDiagram, graded: GradedRootSystem
) -> tuple[frozenset[Root], ...]:
    """Per ambient component, the piece of h holding its highest root."""
    nodes = h.nodes
    adj: list[list[int]] = [[] for _ in nodes]
    for a, b, _ in h.edges:
        adj[a].append(b)
        adj[b].append(a)
    out = []
    for top in graded.rs.highest_roots:
        start = nodes.index((top, sum(top)))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(frozenset(nodes[i][0] for i in seen))
    return tuple(out)


def _highest_walk(graded: GradedRootSystem) -> list[int]:
    """The root indices of the pieces `highest_component` finds, ascending,
    point components left out, by a walk down from each highest root.

    The walk subtracts the non-crossed simple roots and keeps every key that
    is a root's.  Every positive root b other than the highest root t of its
    piece has a root b + a_j (Humphreys, *Introduction to Lie Algebras*
    §10.4), and j is not crossed: t bounds every root coefficientwise and b
    already has t's crossed coefficients.  So walking down from t reaches
    the whole piece.  A simple root of another component never leads to a
    root, and each step lowers the height by one, so the levels are
    disjoint.  The walk starts from the keys at the highest roots' indices
    and reads keys and the decoration, never a grade.
    """
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


def restrict(h: HasseDiagram, roots: frozenset[Root]) -> HasseDiagram:
    """Induced subdiagram on a subset of the nodes."""
    keep = [i for i, (r, _) in enumerate(h.nodes) if r in roots]
    remap = {old: new for new, old in enumerate(keep)}
    return HasseDiagram(
        tuple(h.nodes[i] for i in keep),
        tuple(
            (remap[a], remap[b], lab)
            for a, b, lab in h.edges
            if a in remap and b in remap
        ),
    )


def _coeffs(root: Root) -> str:
    return ",".join(str(c) for c in root)


def export(h: HasseDiagram, format: str) -> bytes:
    """Serialize a diagram; identical inputs give byte-identical output."""
    if format == "json":
        import json

        doc = {
            "nodes": [{"coeffs": list(r), "grade": g} for r, g in h.nodes],
            "edges": [{"from": a, "to": b, "label": lab} for a, b, lab in h.edges],
        }
        return (json.dumps(doc, separators=(",", ":")) + "\n").encode()
    if format not in ("dot", "text"):
        raise ValueError(f"unknown export format {format!r}; use dot, json or text")
    by_height: dict[int, list[Root]] = {}
    for r, g in h.nodes:
        by_height.setdefault(g, []).append(r)
    if format == "dot":
        lines = ["digraph hasse {", "rankdir=BT;"]
        for g in sorted(by_height):
            row = " ".join(f'"{_coeffs(r)}";' for r in by_height[g])
            lines.append("{ rank=same; " + row + " }")
        for a, b, lab in h.edges:
            lines.append(
                f'"{_coeffs(h.nodes[a][0])}" -> "{_coeffs(h.nodes[b][0])}" [label={lab}];'
            )
        lines.append("}")
    else:
        lines = []
        for g in sorted(by_height):
            row = " ".join("(" + _coeffs(r) + ")" for r in by_height[g])
            lines.append(f"height {g}: {row}")
        for a, b, lab in h.edges:
            lines.append(
                f"({_coeffs(h.nodes[a][0])}) -{lab}-> ({_coeffs(h.nodes[b][0])})"
            )
    return ("\n".join(lines) + "\n").encode()
