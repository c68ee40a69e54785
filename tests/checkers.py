"""The build and grading invariants, one implementation each, and the sweep
inputs enumerated independently of the sweep's own loop.

Tier-1 runs the checkers on the types it builds, and CI's root-cap step runs
`check_every_type(45)`.  A failed assertion names its check first.
"""

import random
from itertools import islice, product
from operator import itemgetter

from cominuscule import Decoration, GradedRootSystem, sweep_inputs
from cominuscule.errors import InvalidDiagramError
from cominuscule.hasse import _highest_walk
from cominuscule.rootsys import MAX_ROOTS, RootSystem, _canonical_families, diagram_type
from cominuscule.subsystem import _fixed_idx, generate_subsystem


def decorations(rank, empty=False):
    """The decorations of `rank` nodes in the order of bits = 1 .. 2^rank - 1,
    node i crossed when bit i is set; from bits = 0 when `empty`."""
    # product varies its last place fastest, so its reversed marks count up
    marks = islice(product((False, True), repeat=rank), 0 if empty else 1, None)
    return (Decoration(m[::-1]) for m in marks)


def sweep_decorations(max_rank):
    """(type, decoration) for each nonempty decoration of each sweep type up
    to `max_rank`, in sweep order."""
    return ((t, d) for t in sweep_inputs(max_rank) for d in decorations(t.total_rank))


def check_build(rs):
    """Check a built root system against its coefficient tuples:
    - packed column: byte i of column j is |coefficient j| of root i;
    - involution: every positive row of the reflection table is one;
    - cartan: the simple roots' pairings give back the Cartan matrix;
    - highest roots: the roots at `highest_idx`."""
    m = len(rs.roots)
    for j, column in enumerate(rs.columns):
        packed = list(column.to_bytes(m, "little"))
        assert packed == [abs(r[j]) for r in rs.roots], ("packed column", rs.dtype, j)
    identity = tuple(range(m))
    for a in range(m // 2, m):
        row = rs._refl[a]
        assert itemgetter(*row)(row) == identity, ("involution", rs.dtype, a)
    simple = [rs.key_index[w] for w in rs._weights]
    pairs = tuple(tuple(rs.pair(b, a) for b in simple) for a in simple)
    assert pairs == rs.cartan, ("cartan", rs.dtype)
    highest = tuple(rs.roots[i] for i in rs.highest_idx)
    assert highest == rs.highest_roots, ("highest roots", rs.dtype)


def check_grading(rs, decoration):
    """Grade `rs` by `decoration`, point factors allowed, and check it against
    each root's crossed coefficients' sum:
    - grades: byte i of the packed grades is |sum| of root i;
    - top grades: the highest roots' sums;
    - box: the positive roots at their component's top grade, if above 0;
    - walk: the walk down from the highest roots reaches exactly the box;
    - fixed set: `_fixed_idx` of the generated subsystem's simple roots is
      the roots fixed by the reflection in every positive member."""
    graded = GradedRootSystem(rs, decoration, allow_point_factors=True)
    where = (rs.dtype, decoration)
    nodes = [j for j, c in enumerate(decoration.crossed) if c]
    want = [sum(r[j] for j in nodes) for r in rs.roots]
    assert list(graded.grades) == [abs(x) for x in want], ("grades", *where)
    top = [sum(r[j] for j in nodes) for r in rs.highest_roots]
    assert graded.max_grades == tuple(top), ("top grades", *where)
    comp, half = rs.component_of_root, len(rs.positive_roots)
    box = [i for i in range(half, 2 * half) if 0 < want[i] == top[comp[i]]]
    assert graded.box_idx == box, ("box", *where)
    assert _highest_walk(graded) == box, ("walk", *where)
    gen = generate_subsystem(graded)
    rows = list(range(half, 2 * half))
    for a in gen.members:
        if a >= half:
            rows = [b for b in rows if rs._refl[a][b] == b]
    rows = [2 * half - 1 - b for b in reversed(rows)] + rows
    assert _fixed_idx(rs, gen._simple_idx) == rows, ("fixed set", *where)


def check_every_type(max_rank):
    """Build each canonical type of rank 1 to `max_rank` uncached, skipping
    those over the root cap; run `check_build` on it and `check_grading` on
    three decorations drawn from one seeded generator.  Return the number of
    types built."""
    rng = random.Random(0)
    built = 0
    for rank in range(1, max_rank + 1):
        for family in _canonical_families(rank):
            try:
                rs = RootSystem(diagram_type((family, rank)))
            except InvalidDiagramError as e:
                if f"roots, over the limit of {MAX_ROOTS}" not in str(e):
                    raise
                continue
            built += 1
            check_build(rs)
            for _ in range(3):
                crossed = rng.sample(range(rank), rng.randint(1, rank))
                check_grading(rs, Decoration(tuple(j in crossed for j in range(rank))))
    return built
