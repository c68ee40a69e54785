"""Recognition of finite-type Cartan matrices and the cominuscule table.

recognize_labelings() names each component of an abstract Cartan matrix and
lists every relabeling of its nodes into Bourbaki numbering.  Recognition
tries the canonical families of a component's rank in turn and matches the
component against each family's edge list, rootsys._edges, so the shape of
each Dynkin diagram is written down once, there.  classify_cominuscule()
matches a one-cross-per-component decorated diagram against the table of
irreducible cominuscule varieties.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .errors import (
    ClassificationError,
    DecorationError,
    InvalidDiagramError,
    NotCominusculeError,
)
from .rootsys import _canonical_families, _edges

if TYPE_CHECKING:  # pragma: no cover
    from .subsystem import DecoratedDiagram

Matrix = Sequence[Sequence[int]]


def _validate_cartan(cartan: Matrix) -> list[list[int]]:
    """Check the entries; return each node's neighbours, in column order."""
    n = len(cartan)
    if any(len(row) != n for row in cartan):
        raise ClassificationError("Cartan matrix is not square")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(cartan):
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
            elif v:
                nbrs[i].append(j)
    return nbrs


def _component_nodes(nbrs: list[list[int]]) -> list[list[int]]:
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in range(len(nbrs)):
        if start not in seen:
            comp = [start]
            seen.add(start)
            for i in comp:  # the loop also visits the nodes appended in it
                for j in nbrs[i]:
                    if j not in seen:
                        seen.add(j)
                        comp.append(j)
            comps.append(sorted(comp))
    return comps


@lru_cache(maxsize=None)
def _standard(family: str, rank: int) -> tuple[tuple, tuple[int, ...]]:
    """The family's diagram, read from its edges: per Bourbaki position b,
    its earlier neighbours a as (a, C[b][a], C[a][b]); and per position, its
    degree."""
    earlier: list[list[tuple[int, int, int]]] = [[] for _ in range(rank)]
    degree = [0] * rank
    for i, j, cij, cji in _edges(family, rank):
        earlier[j].append((i, cji, cij))
        degree[i] += 1
        degree[j] += 1
    return tuple(map(tuple, earlier)), tuple(degree)


def _labelings(
    cartan: Matrix,
    nbrs: list[list[int]],
    nodes: list[int],
    earlier: tuple[tuple[tuple[int, int, int], ...], ...],
    degree: tuple[int, ...],
) -> Iterator[tuple[int, ...]]:
    """Every labeling c of nodes with cartan[c[i]][c[j]] == C[i][j], C the
    standard matrix that `earlier` and `degree` describe.

    Fills the Bourbaki positions in order from a stack of partial labelings.
    Position b's candidates are the neighbours of the node at b's first
    earlier neighbour, or all nodes where b has none (position 0, E's node
    2).  One is kept if it has b's degree, is not placed yet, and matches the
    standard entries both ways towards b's earlier neighbours.  A full
    labeling then has every standard edge, and since each node has its
    position's degree, no other.
    """
    rank = len(degree)
    stack: list[tuple[int, ...]] = [()]
    while stack:
        c = stack.pop()
        b = len(c)
        if b == rank:
            yield c
            continue
        before = earlier[b]
        for v in nbrs[c[before[0][0]]] if before else nodes:
            if len(nbrs[v]) == degree[b] and v not in c and all(
                cartan[v][c[a]] == cba and cartan[c[a]][v] == cab
                for a, cba, cab in before
            ):
                stack.append(c + (v,))


def recognize_labelings(
    cartan: Matrix,
) -> tuple[tuple[str, int, tuple[tuple[int, ...], ...]], ...]:
    """Per component: family, rank, and every Bourbaki labeling that fits.

    Each component is matched against rootsys._edges of the canonical
    families of its rank, one family at a time, until one fits.  Multiple
    labelings appear exactly when the diagram has automorphisms (chain
    reversal, fork swap, D4 triality, E6 reflection).  Callers that carry
    extra structure, like a decoration, pick among them.
    """
    nbrs = _validate_cartan(cartan)
    if not nbrs:
        raise ClassificationError("empty Cartan matrix")
    out: list[tuple[str, int, tuple[tuple[int, ...], ...]]] = []
    for nodes in _component_nodes(nbrs):
        rank = len(nodes)
        for family in _canonical_families(rank):
            earlier, degree = _standard(family, rank)
            valid = tuple(sorted(_labelings(cartan, nbrs, nodes, earlier, degree)))
            if valid:
                out.append((family, rank, valid))
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


@lru_cache(maxsize=None, typed=True)
def cominuscule_id(family: str, rank: int, node: int) -> CominusculeId:
    """Table lookup for an irreducible component with one crossed node.

    A pure function of its arguments, so each answer is kept; `typed` keeps
    a call with 1.0 from returning the answer for 1.
    """
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
