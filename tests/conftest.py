"""Shared fixtures: an independent Euclidean model of each root system.

The package builds roots by reflection closure from Cartan matrices.  The
oracle here builds them from explicit coordinate descriptions in an ambient
integer lattice (scaled by 2 where half-integer entries would appear) and
solves each vector back into simple-root coefficients.  The two must agree
exactly; nothing below imports the package's construction code.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from cominuscule import Decoration, diagram_type, grade_diagram
from cominuscule.subsystem import (
    decorated_diagram,
    generate_subsystem,
)


def _e(n: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    v = [0] * n
    for coef, i in terms:
        v[i - 1] += coef
    return tuple(v)


def euclidean_model(family: str, rank: int):
    """(simple root vectors, all root vectors) in integer ambient coords."""
    r = rank
    if family == "A":
        n = r + 1
        simples = [_e(n, (1, i), (-1, i + 1)) for i in range(1, r + 1)]
        roots = [
            _e(n, (1, i), (-1, j))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        ]
    elif family == "B":
        n = r
        simples = [_e(n, (1, i), (-1, i + 1)) for i in range(1, r)] + [_e(n, (1, r))]
        roots = []
        for i in range(1, r + 1):
            roots += [_e(n, (1, i)), _e(n, (-1, i))]
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                for si, sj in itertools.product((1, -1), repeat=2):
                    roots.append(_e(n, (si, i), (sj, j)))
    elif family == "C":
        n = r
        simples = [_e(n, (1, i), (-1, i + 1)) for i in range(1, r)] + [_e(n, (2, r))]
        roots = []
        for i in range(1, r + 1):
            roots += [_e(n, (2, i)), _e(n, (-2, i))]
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                for si, sj in itertools.product((1, -1), repeat=2):
                    roots.append(_e(n, (si, i), (sj, j)))
    elif family == "D":
        n = r
        simples = [_e(n, (1, i), (-1, i + 1)) for i in range(1, r)] + [
            _e(n, (1, r - 1), (1, r))
        ]
        roots = []
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                for si, sj in itertools.product((1, -1), repeat=2):
                    roots.append(_e(n, (si, i), (sj, j)))
    elif family == "G":
        n = 3
        simples = [_e(n, (1, 1), (-1, 2)), _e(n, (-2, 1), (1, 2), (1, 3))]
        roots = []
        for i in (1, 2, 3):
            for j in range(i + 1, 4):
                roots.append(_e(n, (1, i), (-1, j)))
                roots.append(_e(n, (-1, i), (1, j)))
        for i in (1, 2, 3):
            j, k = [x for x in (1, 2, 3) if x != i]
            roots.append(_e(n, (2, i), (-1, j), (-1, k)))
            roots.append(_e(n, (-2, i), (1, j), (1, k)))
    elif family == "F":
        # doubled so the half-integer roots become integral
        n = 4
        simples = [
            _e(n, (2, 2), (-2, 3)),
            _e(n, (2, 3), (-2, 4)),
            _e(n, (2, 4)),
            _e(n, (1, 1), (-1, 2), (-1, 3), (-1, 4)),
        ]
        roots = []
        for i in range(1, 5):
            roots += [_e(n, (2, i)), _e(n, (-2, i))]
        for i in range(1, 5):
            for j in range(i + 1, 5):
                for si, sj in itertools.product((2, -2), repeat=2):
                    roots.append(_e(n, (si, i), (sj, j)))
        for signs in itertools.product((1, -1), repeat=4):
            roots.append(tuple(signs))
    elif family == "E":
        # doubled coordinates in Z^8 for all three ranks
        n = 8
        a1 = (1, -1, -1, -1, -1, -1, -1, 1)
        chain = [
            _e(n, (2, 1), (2, 2)),
            _e(n, (-2, 1), (2, 2)),
            _e(n, (-2, 2), (2, 3)),
            _e(n, (-2, 3), (2, 4)),
            _e(n, (-2, 4), (2, 5)),
            _e(n, (-2, 5), (2, 6)),
            _e(n, (-2, 6), (2, 7)),
        ]
        simples = [a1] + chain[: rank - 1]
        roots = []
        if rank == 8:
            for i in range(1, 9):
                for j in range(i + 1, 9):
                    for si, sj in itertools.product((2, -2), repeat=2):
                        roots.append(_e(n, (si, i), (sj, j)))
            for signs in itertools.product((1, -1), repeat=8):
                if signs.count(-1) % 2 == 0:
                    roots.append(signs)
        elif rank == 7:
            for i in range(1, 7):
                for j in range(i + 1, 7):
                    for si, sj in itertools.product((2, -2), repeat=2):
                        roots.append(_e(n, (si, i), (sj, j)))
            roots += [_e(n, (2, 7), (-2, 8)), _e(n, (-2, 7), (2, 8))]
            for signs in itertools.product((1, -1), repeat=6):
                if signs.count(-1) % 2 == 1:
                    roots.append(signs + (1, -1))
                    roots.append(tuple(-s for s in signs) + (-1, 1))
        else:
            for i in range(1, 6):
                for j in range(i + 1, 6):
                    for si, sj in itertools.product((2, -2), repeat=2):
                        roots.append(_e(n, (si, i), (sj, j)))
            for signs in itertools.product((1, -1), repeat=5):
                if signs.count(-1) % 2 == 0:
                    roots.append(signs + (-1, -1, 1))
                    roots.append(tuple(-s for s in signs) + (1, 1, -1))
    else:
        raise ValueError(family)
    return simples, roots


def _left_inverse(simples) -> list[list[Fraction]]:
    """Exact L with L S^T = identity, S the simples as rows, by Gauss-Jordan."""
    n, d = len(simples), len(simples[0])
    rows = [
        [Fraction(s[k]) for s in simples] + [Fraction(int(k == j)) for j in range(d)]
        for k in range(d)
    ]
    for col in range(n):
        p = next(i for i in range(col, d) if rows[i][col])
        rows[col], rows[p] = rows[p], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(d):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [row[n:] for row in rows[:n]]


def coefficient_set(family: str, rank: int) -> set[tuple[int, ...]]:
    """Every root as a coefficient tuple over the simples, solved exactly."""
    simples, roots = euclidean_model(family, rank)
    inverse = _left_inverse(simples)
    out = set()
    for v in roots:
        c = [sum(x * y for x, y in zip(row, v)) for row in inverse]
        assert all(x.denominator == 1 for x in c), (family, rank, v)
        c = tuple(int(x) for x in c)
        back = tuple(sum(ci * s[k] for ci, s in zip(c, simples)) for k in range(len(v)))
        assert back == tuple(v), (family, rank, v)
        out.add(c)
    assert len(out) == len(roots), (family, rank)
    return out


@pytest.fixture(scope="session")
def pipeline():
    def run(pairs, dec: str, allow: bool = False):
        dtype = diagram_type(*pairs)
        graded = grade_diagram(
            dtype, Decoration.from_string(dec), allow_point_factors=allow
        )
        sub = generate_subsystem(graded)
        return graded, sub, decorated_diagram(sub)

    return run
