"""Decorations and the grading they induce on a root system.

Crossing a set of nodes grades every root by the sum of its coefficients
over the crossed nodes.  Per component, the roots sitting at the top grade
form the box; their negatives are the minimal roots.  A component with no
cross contributes nothing and is normally an input error.  The grading reads
the root system's packed columns, lengths and indices, never a coefficient
tuple; only `box` and `box_union` turn root indices into tuples, for callers.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .errors import DecorationError
from .rootsys import DiagramType, Root, RootSystem, build_root_system


class Decoration(NamedTuple):
    """Which nodes of a diagram are crossed, as a 0/1-style boolean tuple."""

    crossed: tuple[bool, ...]

    @staticmethod
    def from_string(text: str) -> "Decoration":
        marks = []
        for pos, ch in enumerate(text):
            if ch == "x":
                marks.append(True)
            elif ch == "o":
                marks.append(False)
            else:
                raise DecorationError(
                    f"bad decoration character {ch!r} at position {pos}; use 'x' or 'o'"
                )
        return Decoration(tuple(marks))

    def __str__(self) -> str:
        return "".join("x" if c else "o" for c in self.crossed)


class GradedRootSystem:
    """A root system together with the grading cut out by a decoration.

    `grades` holds |grade| of root i in byte i: one sum of the crossed
    nodes' packed columns, read back as bytes (a build refuses any height
    above 255, so no byte carries).  It is the only copy of the grading: a
    grade has its root's sign, and the readers ask only whether a grade is 0
    or its component's top grade.  A component's top grade is the byte at
    its highest root's index, and the box, the ascending list `box_idx` of
    root indices, is found by searching the positive roots' bytes for each
    component's top grade.  The negative half mirrors the positive half.  It
    stays because the sweep counts grades at members and fixed roots of
    both signs by root index; without it each count would first map a
    negative index to its positive root's.
    """

    def __init__(
        self,
        rs: RootSystem,
        decoration: Decoration,
        *,
        allow_point_factors: bool = False,
    ) -> None:
        if len(decoration.crossed) != rs.dtype.total_rank:
            raise DecorationError(
                f"decoration length {len(decoration.crossed)} != rank"
                f" {rs.dtype.total_rank} of {rs.dtype}"
            )
        self.rs = rs
        self.decoration = decoration

        # the decoration's marks pick the crossed nodes' columns; a highest
        # root is positive, so its byte is its grade
        packed = sum(compress(rs.columns, decoration.crossed))
        self.grades = grades = packed.to_bytes(len(rs.roots), "little")
        self.max_grades = top = tuple([grades[i] for i in rs.highest_idx])
        # point factors have top grade 0 and no box; another component's roots
        # may share a component's top grade, so with several the hits are
        # filtered by component and the box sorted
        comp = rs.component_of_root
        half = len(rs.positive_roots)
        several = len(top) > 1
        box = []
        for ci, t in enumerate(top):
            if t:
                i = grades.find(t, half)
                while i >= 0:
                    if not several or comp[i] == ci:
                        box.append(i)
                    i = grades.find(t, i + 1)
        if several:
            box.sort()
        self.box_idx = box

        self.point_components = tuple(i for i, m in enumerate(top) if m == 0)
        if self.point_components and not allow_point_factors:
            names = ", ".join(
                str(rs.dtype.components[i]) for i in self.point_components
            )
            raise DecorationError(
                f"component(s) {names} carry no cross; enable point-factor"
                " dropping to ignore them"
            )


def grade_diagram(
    dtype: DiagramType,
    decoration: Decoration,
    *,
    allow_point_factors: bool = False,
) -> GradedRootSystem:
    return GradedRootSystem(
        build_root_system(dtype), decoration, allow_point_factors=allow_point_factors
    )


def box(graded: GradedRootSystem) -> tuple[frozenset[Root], ...]:
    """Top-grade positive roots of each component; empty slot for point factors."""
    rs = graded.rs
    parts: list[list[Root]] = [[] for _ in rs.dtype.components]
    for i in graded.box_idx:
        parts[rs.component_of_root[i]].append(rs.roots[i])
    return tuple(frozenset(p) for p in parts)


def box_union(graded: GradedRootSystem) -> frozenset[Root]:
    roots = graded.rs.roots
    return frozenset(roots[i] for i in graded.box_idx)
