"""Decorations and the grading they induce on a root system.

Crossing a set of nodes grades every root by the sum of its coefficients
over the crossed nodes.  Per component, the roots sitting at the top grade
form the box; their negatives are the minimal roots.  A component with no
cross contributes nothing and is normally an input error.
"""

from __future__ import annotations

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

    def crossed_nodes(self) -> tuple[int, ...]:
        """0-based indices of the crossed nodes."""
        return tuple(i for i, c in enumerate(self.crossed) if c)

    def __str__(self) -> str:
        return "".join("x" if c else "o" for c in self.crossed)


class GradedRootSystem:
    """A root system together with the grading cut out by a decoration.

    Per root index it holds the list `grade_of_root`, and the box as the
    ascending list `box_idx`, both computed once here.  The grades of the
    positive roots are one sum of the crossed nodes' packed columns, read
    back a byte per root (a build refuses any height above 255, so no byte
    carries), and are mirrored onto the negatives.  A component's top grade
    is the grade of its highest root.
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

        crossed = decoration.crossed_nodes()
        half = len(rs.positive_roots)
        packed = sum([rs.columns[j] for j in crossed])
        grade = list(packed.to_bytes(half, "little"))
        self.grade_of_root = [-g for g in reversed(grade)] + grade
        self.max_grades = top = tuple(
            sum([r[j] for j in crossed]) for r in rs.highest_roots
        )
        # point factors have top grade 0 and no box
        comp = rs.component_of_root
        self.box_idx = [
            i for i, g in enumerate(grade, half) if g and g == top[comp[i]]
        ]

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
