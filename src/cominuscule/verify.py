"""Rule-based expected answers and the exhaustive verification sweep.

Each family has a closed-form rule mapping a decoration straight to the
cominuscule answer, with no root arithmetic.  The sweep runs the actual
pipeline over every decoration of every type in range, compares it against
the rules, and checks the structural invariants that tie the modules
together.  Rules and pipeline share only the final table lookup, so
agreement is meaningful.

The sweep checks on two levels.  Per (type, box), the box being the set of
top-grade roots, the box stage runs what the box decides: the two subsystem
routes and their comparison, the decorated diagram, which crosses the simple
roots in the box, and its classification; the component count; the box
against the piece of the `hasse` module's flag diagram holding the highest
root, a source that reads no grade; the classified dimension against |box|;
and idempotence, the pipeline run once per output diagram on that diagram.
Last it takes the fixed set, the roots fixed by the reflection in every
member.  A box's record, the members, the fixed set, whether the two are
disjoint and the classification's keys, is kept when its stage found
nothing, and an output's image when it was computed without an error, so a
failing box or output fails again on every input that has it.  Per input,
the checks read its own grades and decoration, in this order: the grade
trichotomy, the expected answer from the family's rule, the compact
dichotomy, and the walk over root indices down from the highest root, which
must reach exactly the box.  The grade checks read the input's packed grade
bytes at the members and the fixed set, one byte per root index (a negative
root reads its positive's byte): the trichotomy passes when every member's
byte is 0 or the top grade (on a type of one component), and the dichotomy
when the two sets are disjoint and their grade-0 roots number all the
grade-0 roots.  Only when a count disagrees does the input rebuild its
subsystem, or the dichotomy's sets, to name the roots that fail.  An input
reports its own mismatches first, then those of a box stage it ran.

One `sweep` call deals its types to one bin per CPU it may use and takes
the same path at any count: it forks a child per bin but the first, which
it sweeps itself, so with one bin it forks nothing.  Each pass over a share
of the types owns the images memo for that pass and a box memo per type,
and returns each type's mismatches.  Inputs of different types share
nothing but the images memo, which keeps only clean results, so the report
is the same for any number of processes, except for `elapsed`: the
mismatches are merged in type order, and an input fails when it has at
least one.
"""

from __future__ import annotations

import os
import time
from itertools import islice, product
from operator import itemgetter
from typing import Iterable, NamedTuple

from .classify import CominusculeId, classify_cominuscule, cominuscule_id
from .errors import CominusculeError, InvalidDiagramError
from .grading import Decoration, GradedRootSystem, box, grade_diagram
from .hasse import _highest_walk, flag_hasse, highest_component
from .rootsys import DiagramType, Root, _canonical_families, diagram_type
from .subsystem import (
    DecoratedDiagram,
    _fixed_idx,
    _make_subsystem,
    associated_diagram,
    decorated_diagram,
    direct_subsystem,
    generate_subsystem,
)


class ExpectedResult(NamedTuple):
    dtype: DiagramType
    decoration: Decoration
    expected: tuple[CominusculeId, ...]
    rule_source: str


def _proj(n: int) -> CominusculeId:
    return cominuscule_id("A", n, 1)


def _lagrangian(rank: int) -> CominusculeId:
    if rank == 2:
        return cominuscule_id("B", 2, 1)
    return cominuscule_id("C", rank, rank)


def _spinor(rank: int) -> CominusculeId:
    # low ranks collapse: the D3 spinor is P^3, the D4 spinor is the quadric Q^6
    if rank == 3:
        return cominuscule_id("A", 3, 1)
    if rank == 4:
        return cominuscule_id("D", 4, 1)
    return cominuscule_id("D", rank, rank)


def _expect_a(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    p, q = min(s), max(s)
    return cominuscule_id("A", p + rank - q, p), "A:interval"


def _expect_b(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    if 2 in s:
        return _proj(1), "B:point"
    if 1 in s:
        rest = s - {1}
        if not rest:
            return cominuscule_id("B", rank, 1), "B:quadric-self"
        return _proj(min(rest) - 1), "B:projective-chain"
    return _spinor(min(s)), "B:spinor-prefix"


def _expect_c(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    if 1 in s:
        return _proj(1), "C:point"
    m = min(s)
    if m == rank:
        return cominuscule_id("C", rank, rank), "C:lagrangian-self"
    return _lagrangian(m), "C:lagrangian-prefix"


def _expect_d(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    fork = {rank - 1, rank}
    if 2 in s:
        return _proj(1), "D:point"
    if 1 in s:
        rest = s - {1}
        if not rest:
            return cominuscule_id("D", rank, 1), "D:quadric-self"
        m = min(rest)
        if m <= rank - 2:
            return _proj(m - 1), "D:projective-chain"
        if rest == fork:
            return _proj(rank - 2), "D:projective-fork"
        return _proj(rank - 1), "D:projective-fork"
    m = min(s)
    if m <= rank - 2:
        return _spinor(m), "D:spinor-prefix"
    if s == fork:
        return _spinor(rank - 1), "D:spinor-fork"
    return _spinor(rank), "D:spinor-self"


def _expect_e6(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    tag = "E6"
    if 2 in s:
        return _proj(1), tag
    if 4 in s:
        return _proj(2), tag
    if 3 in s and 5 in s:
        return _proj(3), tag
    if 3 in s:
        return (_proj(4) if 6 in s else _proj(5)), tag
    if 5 in s:
        return (_proj(4) if 1 in s else _proj(5)), tag
    if s == {1, 6}:
        return cominuscule_id("D", 5, 1), tag
    return cominuscule_id("E", 6, 1), tag


def _expect_e7(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    tag = "E7"
    if 1 in s:
        return _proj(1), tag
    if 3 in s:
        return _proj(2), tag
    if 4 in s:
        return _proj(3), tag
    if 5 in s:
        return (_proj(4) if 2 in s else _proj(5)), tag
    if 2 in s:
        if 6 in s:
            return _proj(5), tag
        if 7 in s:
            return _proj(6), tag
        return _proj(7), tag
    if 6 in s:
        return cominuscule_id("D", 6, 1), tag
    return cominuscule_id("E", 7, 7), tag


def _expect_e8(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    tag = "E8"
    if 8 in s:
        return _proj(1), tag
    if 7 in s:
        return _proj(2), tag
    if 6 in s:
        return _proj(3), tag
    if 5 in s:
        return _proj(4), tag
    if 4 in s:
        return _proj(5), tag
    if 3 in s:
        return (_proj(6) if 2 in s else _proj(7)), tag
    if 2 in s:
        return (_proj(7) if 1 in s else _proj(8)), tag
    return cominuscule_id("D", 8, 1), tag


def _expect_e(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    return {6: _expect_e6, 7: _expect_e7, 8: _expect_e8}[rank](rank, s)


def _expect_f(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    k = min(s)
    if k == 4:
        return cominuscule_id("B", 4, 1), "F4:first-cross"
    return _proj(k), "F4:first-cross"


def _expect_g(rank: int, s: set[int]) -> tuple[CominusculeId, str]:
    if 2 in s:
        return _proj(1), "G2"
    return _proj(2), "G2"


FAMILY_RULES = {
    "A": _expect_a,
    "B": _expect_b,
    "C": _expect_c,
    "D": _expect_d,
    "E": _expect_e,
    "F": _expect_f,
    "G": _expect_g,
}


def expected_answer(dtype: DiagramType, decoration: Decoration) -> ExpectedResult:
    """Closed-form answer for an irreducible type, bypassing the pipeline."""
    if len(dtype.components) != 1:
        raise ValueError("expected_answer takes irreducible types only")
    comp = dtype.components[0]
    s = {i for i, c in enumerate(decoration.crossed, 1) if c}
    if not s:
        raise ValueError("decoration must cross at least one node")
    if len(decoration.crossed) != comp.rank:
        raise ValueError("decoration length does not match the rank")
    cid, tag = FAMILY_RULES[comp.family](comp.rank, s)
    return ExpectedResult(dtype, decoration, (cid,), tag)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

class Mismatch(NamedTuple):
    dtype: str
    decoration: str
    kind: str
    detail: str


class SweepReport(NamedTuple):
    total: int
    passed: int
    failed: int
    mismatches: tuple[Mismatch, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_text(self) -> str:
        lines = [
            f"sweep: {self.total} inputs, {self.passed} passed,"
            f" {self.failed} failed ({self.elapsed:.1f}s)"
        ]
        for m in self.mismatches:
            lines.append(f"  {m.dtype}:{m.decoration} [{m.kind}] {m.detail}")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "total": self.total,
                "passed": self.passed,
                "failed": self.failed,
                "mismatches": [m._asdict() for m in self.mismatches],
            },
            indent=2,
        )


def _root_list(roots: Iterable[Root]) -> str:
    return "[" + ", ".join(str(r) for r in sorted(roots)) + "]"


class BoxRecord(NamedTuple):
    """What an input reads of its box's record: everything below depends on
    the root system and the box alone."""

    members: frozenset[int]
    fixed: list[int]  # the roots fixed by the reflection in every member
    disjoint: bool  # no member is in the fixed set
    keys: tuple[tuple[str, int, int, int], ...]  # the classification's ids


def _box_stage(
    graded: GradedRootSystem,
    images: dict[tuple[DiagramType, Decoration], DecoratedDiagram],
) -> tuple[BoxRecord | None, list[tuple[str, str]]]:
    """Run the checks `graded`'s box decides; return its record and the
    (kind, detail) failures, in check order.

    A failing subsystem route, route comparison or classification returns no
    record and that failure alone.  Otherwise come the component count, the
    box against the `hasse` module's highest component of this input's flag
    diagram, the classified dimension against |box| and the idempotence of
    the output diagram, whose image `images` keeps once it is computed
    without an error; then the fixed set.  Only the routes' trichotomy check
    reads `graded`'s grades beyond the box, and that can only fail.
    """
    try:
        gen = generate_subsystem(graded)
        direct = direct_subsystem(graded)
    except CominusculeError as exc:
        return None, [("subsystem", str(exc))]
    if gen.members != direct.members:
        detail = f"generated {_root_list(gen.roots)}"
        return None, [("oracle", f"{detail} != direct {_root_list(direct.roots)}")]
    try:
        dd = decorated_diagram(gen)
        ids = classify_cominuscule(dd)
    except CominusculeError as exc:
        return None, [("classify", str(exc))]

    failures = []
    count = len(dd.dtype.components)
    if count != len(graded.rs.dtype.components):
        failures.append(("component-count", f"{count} components out"))
    high = highest_component(flag_hasse(graded), graded)
    for b, h in zip(box(graded), high):
        if b != h:
            detail = f"box {_root_list(b)} != highest component {_root_list(h)}"
            failures.append(("box-vs-hasse", detail))
    dim, size = sum(c.dimension for c in ids), len(graded.box_idx)
    if dim != size:
        failures.append(("dimension", f"classified dim {dim} != |box| {size}"))
    key = (dd.dtype, dd.decoration)
    image = images.get(key)
    if image is None:
        try:
            image = images[key] = associated_diagram(grade_diagram(*key))
        except CominusculeError as exc:
            failures.append(("idempotence", str(exc)))
    if image is not None and (image.dtype, image.decoration) != key:
        failures.append(("idempotence", f"{dd} maps to {image}"))

    members = gen.members
    fixed = _fixed_idx(graded.rs, members)
    keys = tuple(c.key() for c in ids)
    return BoxRecord(members, fixed, members.isdisjoint(fixed), keys), failures


def _check_input(
    dtype: DiagramType,
    decoration: Decoration,
    images: dict[tuple[DiagramType, Decoration], DecoratedDiagram],
    boxes: dict[tuple[int, ...], BoxRecord],
) -> list[Mismatch]:
    """Run every check on one input; return what fails, in check order.

    A stage failing with a CominusculeError is a mismatch of that stage's
    kind.  Any other exception escaping the checks is recorded as a `crash`
    mismatch; it ends this input's checks, not the sweep.  `boxes` maps each
    box of this type whose box stage found nothing to its record; `images`
    is the box stage's.

    The input's own checks read its grades and its decoration: the grade
    trichotomy, the expected answer, the compact dichotomy and the walk.
    They count the input's grades at the record's roots; only when a count
    disagrees does the check that names the failing roots run.  The
    failures of a box stage this input ran come last.
    """
    problems: list[Mismatch] = []

    def fail(kind: str, detail: str) -> None:
        problems.append(Mismatch(str(dtype), str(decoration), kind, detail))

    try:
        try:
            graded = grade_diagram(dtype, decoration)
        except CominusculeError as exc:
            fail("grading", str(exc))
            return problems

        box_key = tuple(graded.box_idx)
        record, failures = boxes.get(box_key), []
        if record is None:
            record, failures = _box_stage(graded, images)
            if record is None:  # the routes or the classification failed
                fail(*failures[0])
                return problems
            if not failures:
                boxes[box_key] = record
        members = record.members
        # the input's grades at the members, then at the fixed set: the
        # members hold each root with its negative, so there are at least two
        grades = graded.grades
        at = itemgetter(*members, *record.fixed)(grades)
        at_members = at[: len(members)]
        # grade trichotomy on the input's own grades: every member's grade is
        # -t, 0 or t
        top = graded.max_grades
        if len(top) != 1 or (
            at_members.count(0) + at_members.count(top[0]) != len(at_members)
        ):
            try:
                _make_subsystem(graded, members)
            except CominusculeError as exc:
                fail("subsystem", str(exc))
                return problems

        expected = expected_answer(dtype, decoration)
        got_keys = record.keys
        want_keys = tuple(c.key() for c in expected.expected)
        if got_keys != want_keys:
            roots = graded.rs.roots
            fail(
                "expected-answer",
                f"pipeline {got_keys} != rule {expected.rule_source} {want_keys};"
                f" subsystem roots {_root_list(roots[i] for i in members)}",
            )

        # compact dichotomy: grade-0 roots split into members of the subsystem
        # and roots perpendicular to all of it, the grade-0 roots of the fixed
        # set
        if not record.disjoint or at.count(0) != grades.count(0):
            perp = {b for b in record.fixed if grades[b] == 0}
            in_sub = {i for i in members if grades[i] == 0}
            if len(perp | in_sub) != grades.count(0) or perp & in_sub:
                stray = {i for i, g in enumerate(grades) if g == 0} - perp - in_sub
                fail(
                    "compact-dichotomy", _root_list(graded.rs.roots[i] for i in stray)
                )

        walk = _highest_walk(graded)
        if walk != graded.box_idx:
            roots = graded.rs.roots
            fail(
                "box-vs-hasse",
                f"box {_root_list(roots[i] for i in graded.box_idx)}"
                f" != walk from the highest roots {_root_list(roots[i] for i in walk)}",
            )
        for kind, detail in failures:
            fail(kind, detail)
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        where = f"{code.co_name}, {os.path.basename(code.co_filename)}:{tb.tb_lineno}"
        fail("crash", f"{type(exc).__name__}: {exc} (in {where})")
    return problems


# The most inputs one sweep runs.  Each type of rank r has 2^r - 1
# decorations, so the count about doubles per rank: max_rank 13 has 65923
# inputs and 14 has 131455.
MAX_SWEEP_INPUTS = 100_000


def sweep_inputs(max_rank: int) -> list[DiagramType]:
    """Irreducible types in sweep range, family-major; C2 is covered as B2."""
    if max_rank < 2:
        raise InvalidDiagramError(f"sweep needs max_rank >= 2, got {max_rank}")
    return [
        diagram_type(pair)
        for pair in sorted(
            (family, rank)
            for rank in range(1, max_rank + 1)
            for family in _canonical_families(rank)
        )
    ]


def _sweep_types(types: Iterable[DiagramType]) -> dict[DiagramType, list[Mismatch]]:
    """Run every decoration of each type through the checks; return each
    type's mismatches.  The images memo lives for this one call, a box memo
    for one type."""
    images = {}
    results = {}
    for dtype in types:
        boxes = {}
        rank = dtype.total_rank
        found = results[dtype] = []
        # the decorations in the order of bits = 1 .. 2^rank - 1, node i
        # crossed when bit i is set: product varies its last place fastest
        for marks in islice(product((False, True), repeat=rank), 1, None):
            found += _check_input(dtype, Decoration(marks[::-1]), images, boxes)
    return results


def _cpus() -> int:
    """The number of CPUs this process may run on, 1 where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _deal(types: list[DiagramType], k: int) -> list[list[DiagramType]]:
    """Deal the types into at most k bins with about equal input counts.

    Largest input count first, each type goes to the bin with the fewest
    inputs so far.  Each bin keeps the types in `types` order, so one bin is
    `types` itself.  Without `os.fork` there is one bin.
    """
    if not hasattr(os, "fork"):
        k = 1
    loads = [0] * max(1, min(k, len(types)))
    owner = {}
    for dtype in sorted(types, key=lambda t: -t.total_rank):
        b = loads.index(min(loads))
        owner[dtype] = b
        loads[b] += (1 << dtype.total_rank) - 1
    return [[t for t in types if owner[t] == b] for b in range(len(loads))]


def _fork_bin(part: list[DiagramType]) -> tuple[int, int]:
    """Fork a child that sweeps `part`; return its pid and the read end of
    the pipe it writes its pickled results to.

    The child leaves only through `os._exit`, so it never returns into the
    caller, runs no atexit handler and flushes no stdio buffer it inherited.
    """
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            results = _sweep_types(part)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _sweep_bins(bins: list[list[DiagramType]]) -> dict[DiagramType, list[Mismatch]]:
    """Sweep bins[1:] in forked children and bins[0] here; return each
    type's mismatches.

    This process sweeps bins[0], with every bin whose child cannot be forked,
    in one pass, and each bin whose child died, leaving its results missing
    or unreadable, in a fresh pass.  With one bin it forks nothing.  Nothing
    is forked while other threads run: a forked child would inherit their
    locks but not the threads.
    """
    import pickle
    import signal
    import threading

    here = list(bins[0])
    children: list[tuple[int, int, list[DiagramType]]] = []
    try:
        for part in bins[1:]:
            if threading.active_count() > 1:
                here += part
                continue
            try:
                pid, read_fd = _fork_bin(part)
            except OSError:
                here += part
                continue
            children.append((pid, read_fd, part))
        results = _sweep_types(here)
        for pid, read_fd, part in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                results.update(pickle.loads(data))
            except (pickle.UnpicklingError, EOFError):
                results.update(_sweep_types(part))
    finally:
        # a child whose results were read has nothing left to do; one whose
        # results were not is stopped, as this process is raising
        for pid, read_fd, _ in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def sweep(max_rank: int = 8) -> SweepReport:
    """Run every decoration of every type in range through all the checks.

    The inputs are counted rank by rank before any type is listed; at the
    first rank where the count passes MAX_SWEEP_INPUTS nothing runs.  The
    types are dealt to one process per available CPU; the report does not
    depend on how many there are, except for `elapsed`.
    """
    start = time.monotonic()
    count = 0
    for rank in range(1, max_rank + 1):
        count += len(_canonical_families(rank)) * (2**rank - 1)
        if count > MAX_SWEEP_INPUTS:
            raise InvalidDiagramError(
                f"sweep up to rank {rank} has {count} inputs,"
                f" over the limit of {MAX_SWEEP_INPUTS}"
            )
    types = sweep_inputs(max_rank)
    results = _sweep_bins(_deal(types, _cpus()))
    mismatches = tuple(m for dtype in types for m in results[dtype])
    failed = len({(m.dtype, m.decoration) for m in mismatches})
    return SweepReport(
        count, count - failed, failed, mismatches, time.monotonic() - start
    )
