"""The root subsystem spanned by the extreme-grade roots of a decoration.

Two independent constructions of the same subsystem: generate_subsystem
closes the top- and bottom-grade roots under reflection, direct_subsystem
takes them together with their pairwise differences.  Either way the result
carries an induced simple system whose decorated diagram is the answer the
rest of the package is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classify import recognize_labelings
from .errors import ClassificationError
from .grading import Decoration, GradedRootSystem
from .rootsys import Component, DiagramType, Root, RootSystem, _root_index


@dataclass(frozen=True)
class Subsystem:
    """A reflection-closed set of ambient roots with its induced simple system.

    `members` is a boolean mask over the ambient root indices; `roots` is the
    same set as coefficient tuples.  `roots`, `simples` and `cartan` are
    derived from `members` on first use, so a subsystem whose simple system
    is never read never pays for it.
    check_grades rescales each member's grade by its component's top grade,
    so values are always -1, 0 or +1.
    """

    graded: GradedRootSystem
    members: np.ndarray = field(compare=False, repr=False)
    check_grades: dict[Root, int]

    @property
    def ambient(self) -> RootSystem:
        return self.graded.rs

    @cached_property
    def roots(self) -> frozenset[Root]:
        roots = self.graded.rs.roots
        return frozenset(roots[i] for i in self.members.nonzero()[0].tolist())

    @cached_property
    def _simple_idx(self) -> np.ndarray:
        # positives ordered by (component, root); the simple ones are those no
        # sum of two positive members lands on
        rs = self.graded.rs
        idx = self.members.nonzero()[0]
        pos = idx[rs.sign[idx] > 0]
        pos = pos[np.argsort(rs.component_of_root[pos], kind="stable")]
        hit = np.zeros(len(rs.roots), dtype=bool)
        hit[rs.combine(pos, pos, 1)] = True
        return pos[~hit[pos]]

    @cached_property
    def simples(self) -> tuple[Root, ...]:
        """Positive members not expressible as a sum of two positive members."""
        roots = self.graded.rs.roots
        return tuple(roots[i] for i in self._simple_idx.tolist())

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """Induced Cartan matrix: entry [i][j] is <simple_j, simple_i-check>."""
        s = self._simple_idx
        return tuple(map(tuple, self.graded.rs._pair[s, s[:, None]].tolist()))


@dataclass(frozen=True)
class DecoratedDiagram:
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


def _make_subsystem(graded: GradedRootSystem, members) -> Subsystem:
    """The subsystem on a member mask (or on a set of coefficient tuples)."""
    rs = graded.rs
    if not isinstance(members, np.ndarray):
        mask = np.zeros(len(rs.roots), dtype=bool)
        mask[[_root_index(rs, r) for r in members]] = True
        members = mask
    members.flags.writeable = False
    idx = members.nonzero()[0]

    g = graded.grade_of_root[idx]
    top = graded.top_of_root[idx]
    check = np.sign(g)
    bad = check * top != g
    if bad.any():
        i = int(bad.argmax())
        raise ClassificationError(
            f"root {rs.roots[idx[i]]} has grade {g[i]},"
            f" outside {{-{top[i]}, 0, {top[i]}}}"
        )
    check_grades = dict(zip(map(rs.roots.__getitem__, idx.tolist()), check.tolist()))
    return Subsystem(graded, members, check_grades)


def generate_subsystem(graded: GradedRootSystem) -> Subsystem:
    """Reflection closure of the top-grade roots and their negatives."""
    rs = graded.rs
    members = graded.box_mask | graded.box_mask[::-1]
    while True:
        idx = members.nonzero()[0]
        closure = np.zeros_like(members)
        closure[rs._refl[idx[:, None], idx].ravel()] = True
        if not (closure & ~members).any():
            break
        members |= closure
    return _make_subsystem(graded, members)


def direct_subsystem(graded: GradedRootSystem) -> Subsystem:
    """Top-grade roots, their negatives, and their pairwise differences.

    Independent of generate_subsystem by construction; the two must agree.
    The two share the root index and keys, not the reflection table or the
    closure.
    """
    box = graded.box_idx
    members = graded.box_mask | graded.box_mask[::-1]
    members[graded.rs.combine(box, box, -1)] = True
    return _make_subsystem(graded, members)


def decorated_diagram(sub: Subsystem) -> DecoratedDiagram:
    """Name the subsystem's diagram and cross its grade +1 simple roots.

    Among the automorphic Bourbaki labelings of each component, take the one
    placing the crossed node earliest; this makes the output a fixed point of
    the pipeline instead of flipping under chain reversal or fork swaps.
    """
    components: list[Component] = []
    order: list[int] = []
    crossed: list[bool] = []
    for family, rank, labelings in recognize_labelings(sub.cartan):
        def marks(nodes: tuple[int, ...]) -> tuple[bool, ...]:
            return tuple(sub.check_grades[sub.simples[i]] == 1 for i in nodes)

        nodes = min(labelings, key=lambda c: ([not m for m in marks(c)], c))
        local = marks(nodes)
        if sum(local) != 1:
            raise ClassificationError(
                f"subsystem component has {sum(local)} grade-1 simple roots,"
                " expected 1"
            )
        components.append(Component(family, rank))
        order.extend(nodes)
        crossed.extend(local)
    embedding = tuple(sub.simples[i] for i in order)
    return DecoratedDiagram(
        DiagramType(tuple(components)), Decoration(tuple(crossed)), embedding
    )


def perpendicular_mask(sub: Subsystem) -> np.ndarray:
    """Mask of the ambient grade-0 roots pairing to zero with every member."""
    graded = sub.graded
    return (graded.grade_of_root == 0) & ~graded.rs._pair[:, sub.members].any(1)


def perpendicular_compacts(sub: Subsystem) -> frozenset[Root]:
    """Ambient grade-0 roots pairing to zero with every subsystem member."""
    roots = sub.graded.rs.roots
    return frozenset(roots[i] for i in perpendicular_mask(sub).nonzero()[0].tolist())


def associated_diagram(graded: GradedRootSystem) -> DecoratedDiagram:
    """Full pipeline step: decoration in, associated decorated diagram out."""
    return decorated_diagram(generate_subsystem(graded))
