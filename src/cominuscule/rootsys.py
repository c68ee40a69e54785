"""Finite reduced root systems of types A-G and their products.

At the API edge a root is a tuple of integer coefficients over the simple
roots, using Bourbaki node numbering inside each component.  Inside the
package a root is its integer index into `RootSystem.roots`, and each root
carries an exact int64 key, a linear form in its coefficients that is checked
to be injective on the roots.  Construction closes the simple roots under
simple reflections; the pairing and reflection tables are then filled with
integer matrix products and key lookups, so pairings and reflections between
arbitrary roots are table reads.  All arithmetic is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .errors import InvalidDiagramError, NotARootError

Root = tuple[int, ...]

# The largest root count a build accepts.  The pairing and reflection tables
# are dense m x m, so this bounds a build's time and memory: at the cap the
# int64 pairing temporary takes 32 MB and the int32 reflection table 16 MB.
# A40 has 1640 roots.
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


@dataclass(frozen=True)
class Component:
    """One irreducible factor: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        bounds = _RANK_BOUNDS.get(self.family)
        if bounds is None:
            raise InvalidDiagramError(f"unknown family {self.family!r}")
        lo, hi = bounds
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidDiagramError(
                f"rank {self.rank} out of range for family {self.family}"
            )

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


@dataclass(frozen=True)
class DiagramType:
    """An ordered product of irreducible components."""

    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise InvalidDiagramError("diagram must have at least one component")

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

def component_cartan(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix in Bourbaki numbering; entry [i][j] is <a_j, a_i-check>."""
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        C[i][j] = cij
        C[j][i] = cji

    if family == "A":
        for i in range(rank - 1):
            edge(i, i + 1)
    elif family == "B":
        # last node is the short root: its row carries the -2
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, cij=-1, cji=-2)
    elif family == "C":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, cij=-2, cji=-1)
    elif family == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif family == "E":
        edge(0, 2)
        for i in range(2, rank - 1):
            edge(i, i + 1)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, cij=-1, cji=-2)  # nodes 3,4 short
        edge(2, 3)
    elif family == "G":
        edge(0, 1, cij=-3, cji=-1)  # node 1 short
    else:
        raise InvalidDiagramError(f"unknown family {family!r}")
    return tuple(tuple(row) for row in C)


_EXCEPTIONAL_ROOTS = {
    ("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12,
}


def _root_count(comp: Component) -> int:
    """Number of roots of an irreducible component, in closed form."""
    r = comp.rank
    if comp.family == "A":
        return r * (r + 1)
    if comp.family in ("B", "C"):
        return 2 * r * r
    if comp.family == "D":
        return 2 * r * (r - 1)
    return _EXCEPTIONAL_ROOTS[comp.family, comp.rank]


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Positive integer vector d with gcd 1 making diag(d) @ cartan symmetric."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                stack.append(j)
    if any(x is None for x in d):
        raise InvalidDiagramError("component Cartan matrix is disconnected")
    denom = 1
    for x in d:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in d]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    for i in range(n):
        for j in range(n):
            if ints[i] * cartan[i][j] != ints[j] * cartan[j][i]:
                raise InvalidDiagramError("Cartan matrix is not symmetrizable")
    return tuple(ints)


def _close_simples(cartan: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """All roots of the component, one coefficient row each, in the order found.

    Closes the simple roots under the simple reflections, one frontier of
    new roots at a time; rows are told apart by their bytes.
    """
    C = np.array(cartan, dtype=np.int64)
    rank = len(C)
    frontier = np.eye(rank, dtype=np.int64)
    found = [frontier]
    seen = {row.tobytes() for row in frontier}
    while len(frontier):
        K = frontier @ C.T  # K[r, i] = <root r, alpha_i-check>
        r, i = np.nonzero(K)
        images = frontier[r]
        images[np.arange(len(r)), i] -= K[r, i]
        fresh = []
        for row in images:
            b = row.tobytes()
            if b not in seen:
                seen.add(b)
                fresh.append(row)
        frontier = np.array(fresh, dtype=np.int64).reshape(-1, rank)
        found.append(frontier)
    return np.concatenate(found)


# ---------------------------------------------------------------------------
# Root helpers
# ---------------------------------------------------------------------------

def is_positive(root: Root) -> bool:
    """Sign of a root; coefficients of a root never mix signs."""
    for c in root:
        if c:
            return c > 0
    return False


def height(root: Root) -> int:
    return sum(root)


def _injective_key(M: np.ndarray, bound: int) -> np.ndarray:
    """Weights of a linear form that takes distinct values on the rows of M.

    The weights are pseudo-random below `bound` from a fixed seed.  The check,
    not the choice, makes the key exact; a collision moves on to the next seed.
    """
    for seed in range(16):
        rng = random.Random(seed)
        weights = np.array([rng.randrange(1, bound) for _ in M[0]], dtype=np.int64)
        keys = np.sort(M @ weights)
        if (keys[1:] != keys[:-1]).all():
            return weights
    raise InvalidDiagramError("no injective root key found")


# ---------------------------------------------------------------------------
# RootSystem
# ---------------------------------------------------------------------------

class RootSystem:
    """A built root system.  Treat as immutable; all operations are pure.

    Inside the package a root is an index into `roots`, the coefficient
    tuples in lexicographic order: repeated builds are byte-for-byte
    identical, the negative roots come first, and root m-1-i is the negative
    of root i.  Per root index the system holds the coefficient matrix `M`,
    `component_of_root`, `sign` (+1 or -1) and `keys`, an int64 linear form
    in the coefficients that is checked to be injective on the roots.  Being
    linear, the key of a sum or difference of roots is the sum or difference
    of their keys; `find` and `combine` search the sorted keys and confirm
    every hit on the coefficients.  `_pair[b, a]` = <root_b, root_a-check>
    and `_refl[a, b]` is the index of the reflection of root b in root a.

    Coefficient tuples are the API edge: `roots`, `positive_roots`,
    `highest_roots`, `simple_roots` and the lazily built `index` dict.
    """

    def __init__(
        self,
        dtype: DiagramType,
        cartan: tuple[tuple[int, ...], ...],
        symmetrizer: tuple[int, ...],
        M: np.ndarray,
        highest_roots: tuple[Root, ...],
        component_of_node: tuple[int, ...],
    ) -> None:
        """M: the coefficient rows of all roots, in lexicographic order."""
        self.dtype = dtype
        self.cartan = cartan
        self.symmetrizer = symmetrizer
        self.roots = roots = tuple(map(tuple, M.tolist()))
        self.highest_roots = highest_roots
        self.component_of_node = component_of_node
        n = dtype.total_rank
        self.simple_roots = tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        )

        m = len(roots)
        if not (M[::-1] == -M).all():
            raise InvalidDiagramError("root set is not closed under negation")
        lead = (M != 0).argmax(1)  # first nonzero coefficient of each root
        self.M = M
        self.component_of_root = np.array(component_of_node, dtype=np.intp)[lead]
        self.sign = np.sign(M[np.arange(m), lead]).astype(np.int8)
        self.positive_roots = roots[m // 2 :]  # the negatives sort first

        # |coefficient sum| <= the largest height, and a reflection row adds at
        # most four keys' worth, so keys and their combinations fit in int64
        top = max(height(r) for r in highest_roots)
        self._weights = _injective_key(M, 2**62 // (4 * top))
        self.keys = M @ self._weights
        order = np.argsort(self.keys, kind="stable")
        # a sentinel key above every real one keeps each search in bounds
        self._sorted_keys = np.append(self.keys[order], np.iinfo(np.int64).max)
        self._key_order = np.append(order, -1)

        B = np.array(symmetrizer, dtype=np.int64)[:, None] * np.array(
            cartan, dtype=np.int64
        )
        G = M @ B @ M.T
        diag = G.diagonal().copy()
        G *= 2
        if (G % diag).any():
            raise InvalidDiagramError("pairing table is not integral")
        G //= diag
        # pair[b, a] = <root_b, root_a-check>, always within -3..3
        self._pair = G.astype(np.int8)
        del G  # m x m int64; free it before the reflection table
        refl = np.empty((m, m), dtype=np.int32)
        for a in range(m):
            row = self._locate(self.keys - self._pair[:, a] * self.keys[a])
            if (row < 0).any():
                raise InvalidDiagramError("a reflection left the root set")
            refl[a] = row
        self._refl = refl
        # the system is cached and shared: freeze its tables
        for table in (
            M, self.component_of_root, self.sign, self.keys,
            self._sorted_keys, self._key_order, self._pair, refl,
        ):
            table.flags.writeable = False

    def _locate(self, keys: np.ndarray) -> np.ndarray:
        """Index of the root carrying each key, -1 where no root does."""
        pos = self._sorted_keys.searchsorted(keys)
        return np.where(self._sorted_keys[pos] == keys, self._key_order[pos], -1)

    def find(self, vectors: np.ndarray) -> np.ndarray:
        """Index of each coefficient row in `roots`, -1 where it is not a root."""
        vectors = np.asarray(vectors, dtype=np.int64)
        idx = self._locate(vectors @ self._weights)
        hit = idx >= 0
        hit[hit] = (self.M[idx[hit]] == vectors[hit]).all(1)
        return np.where(hit, idx, -1)

    def combine(self, left: np.ndarray, right: np.ndarray, sign: int) -> np.ndarray:
        """Indices of the roots equal to root a + sign * root b, a in left, b in right.

        Keys find the candidates and coefficients confirm them; a root is
        listed once per pair that reaches it.
        """
        found = self._locate(self.keys[left][:, None] + sign * self.keys[right])
        i, j = (found >= 0).nonzero()
        c = found[i, j]
        M = self.M
        return c[(M[left[i]] + sign * M[right[j]] == M[c]).all(1)]

    @cached_property
    def index(self) -> dict[Root, int]:
        """Coefficient tuple -> root index; a view for callers holding tuples."""
        return {r: i for i, r in enumerate(self.roots)}

    def root_component(self, root: Root) -> int:
        """Index of the component a root lives in."""
        return int(self.component_of_root[_root_index(self, root)])

    def __repr__(self) -> str:
        return f"RootSystem({self.dtype}, {len(self.roots)} roots)"


@lru_cache(maxsize=None)
def _build(dtype: DiagramType) -> RootSystem:
    counts = [_root_count(c) for c in dtype.components]
    if sum(counts) > MAX_ROOTS:
        raise InvalidDiagramError(
            f"{dtype} has {sum(counts)} roots, over the limit of {MAX_ROOTS}"
        )
    total = dtype.total_rank
    cartan_rows = [[0] * total for _ in range(total)]
    symmetrizer: list[int] = []
    blocks: list[np.ndarray] = []
    highest: list[Root] = []
    comp_of: list[int] = []

    for ci, ((start, stop), comp, count) in enumerate(
        zip(dtype.ranges(), dtype.components, counts)
    ):
        C = component_cartan(comp.family, comp.rank)
        for i in range(comp.rank):
            for j in range(comp.rank):
                cartan_rows[start + i][start + j] = C[i][j]
        symmetrizer.extend(_symmetrizer(C))
        comp_of.extend([ci] * comp.rank)

        local = _close_simples(C)
        if len(local) != count:
            raise InvalidDiagramError(
                f"component {comp} closed to {len(local)} roots, expected {count}"
            )
        block = np.zeros((len(local), total), dtype=np.int64)
        block[:, start:stop] = local
        blocks.append(block)
        # the highest root of an irreducible system is its unique root of
        # greatest height
        heights = local.sum(1)
        if (heights == heights.max()).sum() != 1:
            raise InvalidDiagramError(f"component {comp} has no unique highest root")
        highest.append(tuple(block[heights.argmax()].tolist()))

    M = np.concatenate(blocks)
    M = M[np.lexsort(M.T[::-1])]
    return RootSystem(
        dtype,
        tuple(tuple(row) for row in cartan_rows),
        tuple(symmetrizer),
        M,
        tuple(highest),
        tuple(comp_of),
    )


def build_root_system(dtype: DiagramType) -> RootSystem:
    """Build (or fetch the cached copy of) the root system for a diagram type."""
    return _build(dtype)


def _root_index(rs: RootSystem, root: Root) -> int:
    """Index of a coefficient tuple; NotARootError for anything else."""
    try:
        v = np.asarray(root)
    except (TypeError, ValueError):
        v = None
    if v is not None and v.shape == (rs.dtype.total_rank,) and v.dtype.kind in "biu":
        i = int(rs.find(v[None])[0])
        if i >= 0:
            return i
    raise NotARootError(f"{root!r} is not a root of {rs.dtype}")


def pairing(rs: RootSystem, beta: Root, alpha: Root) -> int:
    """<beta, alpha-check> = 2(beta, alpha)/(alpha, alpha)."""
    return int(rs._pair[_root_index(rs, beta), _root_index(rs, alpha)])


def reflect(rs: RootSystem, alpha: Root, beta: Root) -> Root:
    """Reflection of beta in the hyperplane of alpha: beta - <beta, alpha-check> alpha."""
    return rs.roots[rs._refl[_root_index(rs, alpha), _root_index(rs, beta)]]
