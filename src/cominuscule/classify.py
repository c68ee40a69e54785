"""Recognition of finite-type Cartan matrices and the cominuscule table.

recognize_labelings() names each component of an abstract Cartan matrix and
lists every relabeling of its nodes into Bourbaki numbering.  Recognition
matches each connected component against rootsys.component_cartan of every
canonical type of its rank, so the shape of each Dynkin diagram is written
down once, there.  classify_cominuscule() matches a one-cross-per-component
decorated diagram against the table of irreducible cominuscule varieties.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (
    ClassificationError,
    DecorationError,
    InvalidDiagramError,
    NotCominusculeError,
)
from .rootsys import _canonical_families, component_cartan

if TYPE_CHECKING:  # pragma: no cover
    from .subsystem import DecoratedDiagram

Matrix = Sequence[Sequence[int]]


def _validate_cartan(cartan: Matrix) -> int:
    n = len(cartan)
    for i, row in enumerate(cartan):
        if len(row) != n:
            raise ClassificationError("Cartan matrix is not square")
        for j, v in enumerate(row):
            if not isinstance(v, int):
                raise ClassificationError("Cartan matrix entries must be integers")
            if i == j:
                if v != 2:
                    raise ClassificationError("Cartan diagonal must be all 2")
            elif v > 0:
                raise ClassificationError("off-diagonal Cartan entries must be <= 0")
            elif (v == 0) != (cartan[j][i] == 0):
                raise ClassificationError("Cartan zero pattern must be symmetric")
    return n


def _component_nodes(cartan: Matrix, n: int) -> list[list[int]]:
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in range(n):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if j not in seen and cartan[i][j] != 0:
                    seen.add(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _signature(cartan: Matrix, nodes: Sequence[int], i: int) -> tuple:
    """Sorted (row, column) pairs of node i's nonzero off-diagonal entries."""
    return tuple(
        sorted((cartan[i][j], cartan[j][i]) for j in nodes if j != i and cartan[i][j])
    )


@lru_cache(maxsize=None)
def _standard(rank: int) -> tuple[tuple[str, Matrix, tuple], ...]:
    """Per canonical family of this rank: its Cartan matrix and node signatures."""
    out = []
    for family in _canonical_families(rank):
        std = component_cartan(family, rank)
        sigs = tuple(_signature(std, range(rank), b) for b in range(rank))
        out.append((family, std, sigs))
    return tuple(out)


def _matches(
    cartan: Matrix,
    options: list[list[int]],
    std: Matrix,
    c: tuple[int, ...] = (),
) -> list[tuple[int, ...]]:
    """Every labeling extending c with cartan[c[i]][c[j]] == std[i][j], c[b]
    from options[b].

    Backtracks in Bourbaki node order.  A node cannot be reused: its diagonal
    entry 2 never equals an off-diagonal entry of std.  The search recurses
    through this module-level function, not a closure, so it leaves no
    reference cycle for the garbage collector.
    """
    b = len(c)
    if b == len(options):
        return [c]
    found: list[tuple[int, ...]] = []
    for v in options[b]:
        if all(
            cartan[v][c[a]] == std[b][a] and cartan[c[a]][v] == std[a][b]
            for a in range(b)
        ):
            found.extend(_matches(cartan, options, std, c + (v,)))
    return found


def recognize_labelings(
    cartan: Matrix,
) -> tuple[tuple[str, int, tuple[tuple[int, ...], ...]], ...]:
    """Per component: family, rank, and every Bourbaki labeling that fits.

    Each component is matched against component_cartan of every canonical
    family of its rank.  Multiple labelings appear exactly when the diagram
    has automorphisms (chain reversal, fork swap, D4 triality, E6
    reflection).  Callers that carry extra structure, like a decoration, pick
    among them.
    """
    n = _validate_cartan(cartan)
    if n == 0:
        raise ClassificationError("empty Cartan matrix")
    out: list[tuple[str, int, tuple[tuple[int, ...], ...]]] = []
    for nodes in _component_nodes(cartan, n):
        rank = len(nodes)
        sigs = [_signature(cartan, nodes, v) for v in nodes]
        profile = sorted(sigs)
        for family, std, std_sigs in _standard(rank):
            if profile != sorted(std_sigs):
                continue
            options = [[v for v, s in zip(nodes, sigs) if s == t] for t in std_sigs]
            valid = _matches(cartan, options, std)
            if valid:
                out.append((family, rank, tuple(valid)))
                break
        else:
            raise ClassificationError(
                f"component on nodes {nodes} matches no finite-type Cartan"
                f" matrix of rank {rank}"
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# The cominuscule table
# ---------------------------------------------------------------------------

class CominusculeId(NamedTuple):
    """One table row: which cominuscule variety a crossed component is.

    crossed_node is the canonical representative under diagram automorphisms;
    embedded_node is the node actually crossed in the diagram at hand.
    """

    family: str
    rank: int
    crossed_node: int
    embedded_node: int
    dimension: int
    description: str

    def key(self) -> tuple[str, int, int, int]:
        return (self.family, self.rank, self.crossed_node, self.dimension)

    def __str__(self) -> str:
        return (
            f"{self.family}{self.rank}, node {self.crossed_node} crossed,"
            f" dim {self.dimension} - {self.description}"
        )


def cominuscule_id(family: str, rank: int, node: int) -> CominusculeId:
    """Table lookup for an irreducible component with one crossed node."""
    if not 1 <= node <= rank:
        raise InvalidDiagramError(f"node {node} out of range for {family}{rank}")

    if family == "A":
        k = min(node, rank + 1 - node)
        dim = k * (rank + 1 - k)
        if rank == 1:
            desc = "projective line P^1"
        elif k == 1:
            desc = f"projective space P^{rank}"
        else:
            desc = f"Grassmannian of {k}-planes in C^{rank + 1}"
        return CominusculeId("A", rank, k, node, dim, desc)
    if family == "B" and node == 1:
        return CominusculeId(
            "B", rank, 1, 1, 2 * rank - 1,
            f"quadric hypersurface Q^{2 * rank - 1} in P^{2 * rank}",
        )
    if family == "C" and node == rank:
        return CominusculeId(
            "C", rank, rank, rank, rank * (rank + 1) // 2,
            f"space of Lagrangian {rank}-planes in C^{2 * rank}",
        )
    if family == "D":
        if node == 1:
            return CominusculeId(
                "D", rank, 1, 1, 2 * rank - 2,
                f"quadric hypersurface Q^{2 * rank - 2} in P^{2 * rank - 1}",
            )
        if node in (rank - 1, rank):
            return CominusculeId(
                "D", rank, rank, node, rank * (rank - 1) // 2,
                f"space of null {rank}-planes in C^{2 * rank}",
            )
    if family == "E" and rank == 6 and node in (1, 6):
        return CominusculeId(
            "E", 6, 1, node, 16, "complexified octave projective plane"
        )
    if family == "E" and rank == 7 and node == 7:
        return CominusculeId(
            "E", 7, 7, 7, 27, "space of null octave 3-planes in octave 6-space"
        )
    raise NotCominusculeError(
        f"{family}{rank} with node {node} crossed is not cominuscule"
    )


def classify_cominuscule(diagram: "DecoratedDiagram") -> tuple[CominusculeId, ...]:
    """Identify each component of a one-cross-per-component decorated diagram."""
    out: list[CominusculeId] = []
    for (start, stop), comp in zip(
        diagram.dtype.ranges(), diagram.dtype.components
    ):
        crossed = [
            i - start + 1
            for i in range(start, stop)
            if diagram.decoration.crossed[i]
        ]
        if len(crossed) != 1:
            raise DecorationError(
                f"component {comp} must have exactly one crossed node,"
                f" found {len(crossed)}"
            )
        out.append(cominuscule_id(comp.family, comp.rank, crossed[0]))
    return tuple(out)
