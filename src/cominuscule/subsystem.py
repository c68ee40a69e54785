"""The root subsystem spanned by the extreme-grade roots of a decoration.

Two independent constructions of the same subsystem: generate_subsystem
closes the top- and bottom-grade roots under reflection, direct_subsystem
takes them together with their pairwise differences.  Either way the result
carries an induced simple system whose decorated diagram is the answer the
rest of the package is about.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import NamedTuple

from .classify import recognize_labelings
from .errors import ClassificationError
from .grading import Decoration, GradedRootSystem
from .rootsys import Component, DiagramType, Root, RootSystem


class Subsystem:
    """A reflection-closed set of ambient roots with its induced simple system.

    `members` is the frozenset of ambient root indices; every member's grade
    is -t, 0 or t, t the top grade of its component.  `roots` is the same set
    as coefficient tuples.  `roots`, `simples` and `cartan` are derived from
    `members` on first use, so a subsystem whose simple system is never read
    never pays for it.
    """

    def __init__(self, graded: GradedRootSystem, members: frozenset[int]) -> None:
        self.graded = graded
        self.members = members

    @cached_property
    def roots(self) -> frozenset[Root]:
        roots = self.graded.rs.roots
        return frozenset(roots[i] for i in self.members)

    @cached_property
    def _simple_idx(self) -> list[int]:
        # positives ordered by (component, root).  A non-simple positive root
        # is a positive root plus a simple one (Humphreys, Introduction to Lie
        # Algebras, 10.2), and root order is lexicographic, which extends the
        # coefficientwise order, so that simple root is met first: a member
        # is simple when no simple root kept so far leaves a positive member
        rs = self.graded.rs
        half = len(rs.positive_roots)
        comp, keys = rs.component_of_root, rs.keys
        pos = sorted((i for i in self.members if i >= half), key=lambda i: (comp[i], i))
        positive = {keys[i] for i in pos}
        simple: list[int] = []
        for i in pos:
            k = keys[i]
            if all(k - keys[s] not in positive for s in simple):
                simple.append(i)
        return simple

    @cached_property
    def simples(self) -> tuple[Root, ...]:
        """Positive members not expressible as a sum of two positive members."""
        roots = self.graded.rs.roots
        return tuple(roots[i] for i in self._simple_idx)

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """Induced Cartan matrix: entry [i][j] is <simple_j, simple_i-check>."""
        s, pair = self._simple_idx, self.graded.rs.pair
        return tuple(tuple(pair(b, a) for b in s) for a in s)


class DecoratedDiagram(NamedTuple):
    """A diagram type with a decoration, plus where its nodes sit upstream.

    node_embedding[i] is the ambient root realizing global node i (components
    concatenated, Bourbaki order inside each).  For user-built diagrams the
    embedding is just the diagram's own simple roots.
    """

    dtype: DiagramType
    decoration: Decoration
    node_embedding: tuple[Root, ...]

    def __str__(self) -> str:
        return f"{self.dtype}:{self.decoration}"


def _make_subsystem(graded: GradedRootSystem, members: set[int]) -> Subsystem:
    """The subsystem on a set of root indices, checking the grade trichotomy."""
    rs = graded.rs
    grades, top, comp = graded.grades, graded.max_grades, rs.component_of_root
    # the error names the smallest bad root, whatever order the set iterates in
    bad = None
    for i in members:
        if grades[i] not in (0, top[comp[i]]) and (bad is None or i < bad):
            bad = i
    if bad is not None:
        g = sum(compress(rs.roots[bad], graded.decoration.crossed))
        t = top[comp[bad]]
        raise ClassificationError(
            f"root {rs.roots[bad]} has grade {g}, outside {{-{t}, 0, {t}}}"
        )
    return Subsystem(graded, frozenset(members))


def generate_subsystem(graded: GradedRootSystem) -> Subsystem:
    """Reflection closure of the top-grade roots and their negatives.

    The closure is the orbit of the box under the reflections in the box
    roots: s_(w a) = w s_a w^-1, so reflecting in the roots found adds none.
    """
    refl = graded.rs._refl
    last = len(refl) - 1
    rows = [refl[a] for a in graded.box_idx]
    members = set(graded.box_idx) | {last - a for a in graded.box_idx}
    frontier = list(members)
    while frontier:
        fresh = {row[b] for row in rows for b in frontier} - members
        members |= fresh
        frontier = list(fresh)
    return _make_subsystem(graded, members)


def direct_subsystem(graded: GradedRootSystem) -> Subsystem:
    """Top-grade roots, their negatives, and their pairwise differences.

    Independent of generate_subsystem by construction; the two must agree.
    The two share only the root index: this route reads the keys, the other
    the reflection table.
    """
    rs = graded.rs
    last = len(rs.roots) - 1
    box = graded.box_idx
    members = set(box) | {last - a for a in box}
    keys = [rs.keys[a] for a in box]
    members.update(map(rs.key_index.get, [ka - kb for ka in keys for kb in keys]))
    members.discard(None)
    return _make_subsystem(graded, members)


def decorated_diagram(sub: Subsystem) -> DecoratedDiagram:
    """Name the subsystem's diagram and cross its simple roots in the box.

    Among the automorphic Bourbaki labelings of each component, take the one
    placing the crossed node earliest; this makes the output a fixed point of
    the pipeline instead of flipping under chain reversal or fork swaps.  It
    reads no grade, so it depends on the members and the box alone.

    The recognition of the subsystem's Cartan matrix is kept on the ambient
    root system, keyed by the matrix, so each distinct matrix is validated
    and recognized once per root system.  The key holds only ints from
    `RootSystem.pair`; the public `recognize_labelings` keeps no memo, so a
    matrix with a float entry equal to an int one is still rejected there.
    """
    box, simple = set(sub.graded.box_idx), sub._simple_idx
    cartan, memo = sub.cartan, sub.graded.rs._recognized
    found = memo.get(cartan)
    if found is None:
        found = memo[cartan] = recognize_labelings(cartan)
    components: list[Component] = []
    order: list[int] = []
    crossed: list[bool] = []
    for family, rank, labelings in found:
        def marks(nodes: tuple[int, ...]) -> tuple[bool, ...]:
            return tuple(simple[i] in box for i in nodes)

        nodes = min(labelings, key=lambda c: ([not m for m in marks(c)], c))
        local = marks(nodes)
        if sum(local) != 1:
            raise ClassificationError(
                f"subsystem component has {sum(local)} simple roots in the box,"
                " expected 1"
            )
        components.append(Component(family, rank))
        order.extend(nodes)
        crossed.extend(local)
    embedding = tuple(sub.simples[i] for i in order)
    return DecoratedDiagram(
        DiagramType(tuple(components)), Decoration(tuple(crossed)), embedding
    )


def _fixed_idx(rs: RootSystem, simple: list[int]) -> list[int]:
    """Ambient root indices fixed by the reflection in every member of the
    subsystem whose simple roots, as positive root indices, are `simple`.

    The reflections in the simple roots generate the subsystem's Weyl group,
    which holds the reflection in every member, so a root fixed by each of
    them is fixed by all.  It reads no grades, so it depends on the root
    system and the subsystem alone.
    """
    half = len(rs.positive_roots)
    # b is fixed exactly when -b is: search the positive half, then mirror
    found = list(range(half, 2 * half))
    for a in simple:
        row = rs._refl[a]
        found = [b for b in found if row[b] == b]
    return [2 * half - 1 - b for b in reversed(found)] + found


def perpendicular_compacts(sub: Subsystem) -> frozenset[Root]:
    """Ambient grade-0 roots pairing to zero with every subsystem member."""
    rs, grades = sub.graded.rs, sub.graded.grades
    fixed = _fixed_idx(rs, sub._simple_idx)
    return frozenset(rs.roots[b] for b in fixed if grades[b] == 0)


def associated_diagram(graded: GradedRootSystem) -> DecoratedDiagram:
    """Full pipeline step: decoration in, associated decorated diagram out."""
    return decorated_diagram(generate_subsystem(graded))
