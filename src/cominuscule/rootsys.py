"""Finite reduced root systems of types A-G and their products.

At the API edge a root is a tuple of integer coefficients over the simple
roots, using Bourbaki node numbering inside each component.  Inside the
package a root is its integer index into `RootSystem.roots`, and each root
carries an exact integer key: its coefficients read as the digits of a
mixed-radix number.  Construction closes the simple roots of the whole
block-diagonal Cartan matrix under the simple reflections, in one closure for
every component at once that computes each pairing once; the reflection
table's simple rows come from those pairings, the others by conjugation, so
the reflection of one root in another is a table read and a pairing is one
exact division.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from operator import itemgetter, mul

from .errors import InvalidDiagramError

Root = tuple[int, ...]

# The largest root count a build accepts.  The reflection table is dense
# m x m (a negative root shares its positive root's row), so this bounds a
# build's time and memory: at the cap the table holds 2M references, 16 MB.
# A count comes from the highest roots' marks, before any closure; A40 has 1640.
MAX_ROOTS = 2000

# Inclusive rank bounds for canonical (already normalized) components.
_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class Component(namedtuple("Component", "family rank")):
    """One irreducible factor: family letter plus rank."""

    __slots__ = ()
    family: str
    rank: int

    def __new__(cls, family: str, rank: int) -> "Component":
        bounds = _RANK_BOUNDS.get(family)
        if bounds is None:
            raise InvalidDiagramError(f"unknown family {family!r}")
        lo, hi = bounds
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidDiagramError(f"rank {rank} out of range for family {family}")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable) -> "Component":
        # _replace builds through _make, so a copy is validated too
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def normalize_component(family: str, rank: int) -> tuple[Component, tuple[int, ...]]:
    """Canonicalize a family/rank pair and report the node relabeling.

    Low-rank coincidences collapse: B1 and C1 become A1, C2 becomes B2 with
    the two nodes swapped, and D3 becomes A3 (the D3 diagram is the A3 chain
    entered middle-node-first).  D2 is rejected outright since it is not
    irreducible.  The returned tuple maps input node position i to the
    stored position (0-based).
    """
    if not isinstance(rank, int) or rank < 1:
        raise InvalidDiagramError(f"bad rank {rank!r} for family {family!r}")
    if family in ("B", "C") and rank == 1:
        return Component("A", 1), (0,)
    if family == "C" and rank == 2:
        return Component("B", 2), (1, 0)
    if family == "D" and rank == 2:
        raise InvalidDiagramError("D2 is not irreducible; write A1xA1 instead")
    if family == "D" and rank == 3:
        return Component("A", 3), (1, 0, 2)
    return Component(family, rank), tuple(range(rank))


class DiagramType(namedtuple("DiagramType", "components")):
    """An ordered product of irreducible components."""

    __slots__ = ()
    components: tuple[Component, ...]

    def __new__(cls, components: tuple[Component, ...]) -> "DiagramType":
        if not components:
            raise InvalidDiagramError("diagram must have at least one component")
        return super().__new__(cls, components)

    @classmethod
    def _make(cls, iterable) -> "DiagramType":
        return cls(*iterable)

    @property
    def total_rank(self) -> int:
        return sum(c.rank for c in self.components)

    def ranges(self) -> tuple[tuple[int, int], ...]:
        """Half-open global node index range of each component."""
        out, start = [], 0
        for c in self.components:
            out.append((start, start + c.rank))
            start += c.rank
        return tuple(out)

    def __str__(self) -> str:
        return "x".join(str(c) for c in self.components)


def diagram_type(*pairs: tuple[str, int]) -> DiagramType:
    """Build a DiagramType from (family, rank) pairs, normalizing each."""
    return DiagramType(tuple(normalize_component(f, r)[0] for f, r in pairs))


@lru_cache(maxsize=None)
def _canonical_families(rank: int) -> tuple[str, ...]:
    """Families with a canonical type of this rank; B1, C1, C2, D3 are aliases."""
    return tuple(
        family
        for family, (lo, hi) in _RANK_BOUNDS.items()
        if lo <= rank <= (hi or rank)
        and normalize_component(family, rank)[0] == Component(family, rank)
    )


# ---------------------------------------------------------------------------
# Cartan data
# ---------------------------------------------------------------------------

def _edges(family: str, rank: int) -> list[tuple[int, int, int, int]]:
    """The Dynkin diagram in Bourbaki numbering (Bourbaki, *Lie Groups and
    Lie Algebras*, Plates I-IX): (i, j, C[i][j], C[j][i]) per edge, i < j."""
    chain = [(i, i + 1, -1, -1) for i in range(rank - 1)]
    if family == "A":
        return chain
    if family == "B":  # last node is the short root: its row carries the -2
        return chain[:-1] + [(rank - 2, rank - 1, -1, -2)]
    if family == "C":
        return chain[:-1] + [(rank - 2, rank - 1, -2, -1)]
    if family == "D":
        return chain[:-1] + [(rank - 3, rank - 1, -1, -1)]
    if family == "E":
        return [(0, 2, -1, -1), (1, 3, -1, -1)] + chain[2:]
    if family == "F":
        return [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]  # nodes 3,4 short
    if family == "G":
        return [(0, 1, -3, -1)]  # node 1 short
    raise InvalidDiagramError(f"unknown family {family!r}")


def component_cartan(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix in Bourbaki numbering; entry [i][j] is <a_j, a_i-check>."""
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in _edges(family, rank):
        C[i][j], C[j][i] = cij, cji
    return tuple(tuple(row) for row in C)


def _highest_root(comp: Component) -> Root:
    """The highest root's coefficients, its marks, in Bourbaki numbering
    (Bourbaki, *Lie Groups and Lie Algebras*, Plates I-IX; Kac, Table Aff 1)."""
    return {
        "A": (1,) * comp.rank,
        "B": (1,) + (2,) * (comp.rank - 1),
        "C": (2,) * (comp.rank - 1) + (1,),
        "D": (1,) + (2,) * (comp.rank - 3) + (1, 1),
        "E": {
            6: (1, 2, 2, 3, 2, 1),
            7: (2, 2, 3, 4, 3, 2, 1),
            8: (2, 3, 4, 6, 5, 4, 3, 2),
        }.get(comp.rank),
        "F": (2, 3, 4, 2),
        "G": (3, 2),
    }[comp.family]


def _close_simples(
    cartan: tuple[tuple[int, ...], ...], count: int
) -> tuple[list[Root], list[list[tuple[int, int]]], list[tuple[int, int]]]:
    """The positive roots of a Cartan matrix in the order found, each one's
    nonzero pairings (i, <root, alpha_i-check>), and the steps that found
    them.

    Closes the simple roots under the simple reflections, keeping the
    positive images.  The simple roots come first, in node order; each later
    root is found by one step (i, d): it is s_i of the root found at d.  The
    closure stops with an error as soon as it finds more than `count` roots,
    the positive count the matrix should have: a matrix not of finite type
    never closes.
    """
    rank = len(cartan)
    roots = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(roots)
    pairings: list[list[tuple[int, int]]] = []
    steps: list[tuple[int, int]] = []
    # column j's nonzero entries (i, C[i][j])
    links = [[(i, c) for i, c in enumerate(col) if c] for col in zip(*cartan)]
    for d, v in enumerate(roots):  # the loop also visits the roots found in it
        # <v, alpha_i-check> = sum of C[i][j] v_j over v's support, so only a
        # node on or next to the support can pair nonzero; s_i fixes v when
        # the pairing is 0, so only the nonzero ones are kept
        sums: dict[int, int] = {}
        for j, c in enumerate(v):
            if c:
                for i, a in links[j]:
                    sums[i] = sums.get(i, 0) + a * c
        ks = [(i, k) for i, k in sorted(sums.items()) if k]
        pairings.append(ks)
        for i, k in ks:
            x = v[:i] + (v[i] - k,) + v[i + 1 :]
            # s_i maps every positive root except alpha_i to a positive root
            if x[i] >= 0 and x not in seen:
                if len(roots) == count:
                    raise InvalidDiagramError(
                        f"the closure found more than {count} positive roots"
                    )
                seen.add(x)
                roots.append(x)
                steps.append((i, d))
    return roots, pairings, steps


# ---------------------------------------------------------------------------
# RootSystem
# ---------------------------------------------------------------------------

class RootSystem:
    """A built root system.  Treat as immutable; all operations are pure.

    Inside the package a root is an index into `roots`, the coefficient
    tuples in lexicographic order: repeated builds are identical, the
    negative roots come first, and root m-1-i is the negative of root i.  Per
    root index the system holds `component_of_root` and `keys`, the
    coefficients read as mixed-radix digits in base 2h+3, h the largest
    height of a highest root.  Every sum or difference of two roots, and
    every root plus a simple root, has all its digits in -(h+1)..h+1, so its
    key is exact and `key_index` (key -> root index) looks it up.
    `_refl[a][b]` is the index of the reflection of root b in root a,
    `pair(b, a)` = <root_b, root_a-check> and `highest_idx` holds each
    component's highest root as a root index.  `columns[j]` packs
    |coefficient j| of every root into one int, root i's in byte i
    (little-endian; a negative root holds its positive root's byte), so a
    sum of columns adds the coefficients of all roots at once, up to sign.
    No byte of such a sum carries: it is at most the height of a root, and
    the constructor refuses a type whose highest root reaches height 256.
    `_down[i]` lists the roots one simple root below root i, built on first
    use for the walk down the Hasse diagram, and `_recognized` is
    `subsystem.decorated_diagram`'s memo of each Cartan matrix it
    recognized; both go with the root system when a cold cache drops it.

    Coefficient tuples are the API edge: `roots`, `positive_roots`,
    `highest_roots` (`_highest_root`'s marks, checked against the closure)
    and `simple_roots`.
    """

    def __init__(self, dtype: DiagramType) -> None:
        thetas = [_highest_root(c) for c in dtype.components]
        counts = [c.rank * (1 + sum(t)) for c, t in zip(dtype.components, thetas)]
        if sum(counts) > MAX_ROOTS:
            raise InvalidDiagramError(
                f"{dtype} has {sum(counts)} roots, over the limit of {MAX_ROOTS}"
            )
        # a grade is one byte of a sum of packed columns, so it must stay below
        # 256; the greatest height is the sum of the highest root's marks
        top = max(map(sum, thetas))
        if top > 255:
            raise InvalidDiagramError(
                f"{dtype} has a root of height {top}, over the limit of 255"
            )
        self.dtype = dtype
        n = dtype.total_rank
        cartan = [[0] * n for _ in range(n)]
        for (start, stop), c in zip(dtype.ranges(), dtype.components):
            for i, row in enumerate(component_cartan(c.family, c.rank)):
                cartan[start + i][start:stop] = row
        self.cartan = cartan = tuple(map(tuple, cartan))
        self.component_of_node = of_node = tuple(
            ci for ci, c in enumerate(dtype.components) for _ in range(c.rank)
        )
        self.simple_roots = tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        )
        self.highest_roots = highest = tuple(
            (0,) * start + t + (0,) * (n - stop)
            for (start, stop), t in zip(dtype.ranges(), thetas)
        )

        # <v, alpha_i-check> = 0 whenever v and alpha_i lie in different
        # components, so no simple reflection leaves a component and one
        # closure over all the simple roots closes each component in place
        positive, pairings, steps = _close_simples(cartan, sum(counts) // 2)
        order = sorted(range(len(positive)), key=positive.__getitem__)  # by root
        self.positive_roots = pos = tuple([positive[d] for d in order])
        comp = [of_node[next(j for j, c in enumerate(r) if c)] for r in pos]
        self.component_of_root = tuple(comp[::-1] + comp)
        # byte i of column j is |coefficient j| of root i: a negative root holds
        # its positive root's byte
        self.columns = tuple(
            int.from_bytes(bytes(c[::-1] + c), "little") for c in zip(*pos)
        )
        half = len(pos)
        self.roots = tuple(tuple(-c for c in r) for r in reversed(pos)) + pos

        self._weights = weights = tuple((2 * top + 3) ** j for j in range(n))
        keys = [sum(c * w for c, w in zip(r, weights)) for r in pos]
        self.keys = keys = tuple([-k for k in reversed(keys)] + keys)
        self.key_index = at = dict(zip(keys, range(2 * half)))
        tops = [sum(map(mul, t, weights)) for t in highest]
        # the closure must match the table: each component's root count, and
        # its highest root, the one positive root to which no simple root adds
        # (Humphreys, Introduction to Lie Algebras §10.4)
        for ci, (c, count, theta) in enumerate(zip(dtype.components, counts, highest)):
            closed = 2 * comp.count(ci)
            if closed != count:
                raise InvalidDiagramError(
                    f"component {c} closed to {closed} roots, expected {count}"
                )
            if tops[ci] not in at or any(tops[ci] + w in at for w in weights):
                raise InvalidDiagramError(
                    f"component {c} does not have {theta} as its highest root"
                )
        self.highest_idx = tuple([at[k] for k in tops])

        # s_i(b) = b - <b, alpha_i-check> alpha_i, found by its key for each
        # nonzero pairing the closure kept, and s_i(-b) = -s_i(b); every other
        # positive root is fixed
        fixed = list(range(half, 2 * half))
        rows = [fixed[:] for _ in weights]
        try:
            for p, d in enumerate(order):
                for i, k in pairings[d]:
                    rows[i][p] = at[keys[half + p] - weights[i] * k]
        except KeyError:
            raise InvalidDiagramError("a reflection left the root set") from None
        for i, row in enumerate(rows):  # in place, so each list goes at once
            rows[i] = tuple([2 * half - 1 - b for b in reversed(row)] + row)
        # rows[i] is s_i's row, the simple roots being found first, and each
        # step's root gets its row by conjugation: s_(s_i(v)) = s_i s_v s_i
        after = [itemgetter(*s) for s in rows]  # after[i](row) = row o s_i
        for i, d in steps:
            rows.append(itemgetter(*after[i](rows[d]))(rows[i]))
        rows = [rows[d] for d in order]
        self._refl = tuple(rows[::-1] + rows)  # s_(-a) = s_a
        # subsystem.decorated_diagram's memo: Cartan matrix -> recognition
        self._recognized: dict = {}

    @cached_property
    def _down(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per root index i, the pairs (j, b), j ascending, where root b =
        root i - alpha_j is a root; empty for a negative root.

        Found by key.  Such a b is positive: a positive root is not the sum
        of a simple root and a negative root, since that sum's height is
        below 1.  Built on first use, as only the walk down the Hasse
        diagram reads it.
        """
        keys, at, half = self.keys, self.key_index, len(self.positive_roots)
        steps = list(enumerate(self._weights))
        down = [()] * half
        for k in keys[half:]:
            down.append(
                tuple([(j, b) for j, w in steps if (b := at.get(k - w)) is not None])
            )
        return tuple(down)

    def pair(self, b: int, a: int) -> int:
        """<root_b, root_a-check> by index: b - s_a(b) is that many times a."""
        keys = self.keys
        return (keys[b] - keys[self._refl[a][b]]) // keys[a]

    def __repr__(self) -> str:
        return f"RootSystem({self.dtype}, {len(self.roots)} roots)"


_build = lru_cache(maxsize=None)(RootSystem)


def build_root_system(dtype: DiagramType) -> RootSystem:
    """Build (or fetch the cached copy of) the root system for a diagram type."""
    return _build(dtype)
