"""Closed-form expected answers and the exhaustive sweep harness."""

import json
import os
import threading
from itertools import combinations, compress

import pytest

import cominuscule.subsystem as subsystem
import cominuscule.verify as verify
from cominuscule import (
    ClassificationError,
    Decoration,
    DecorationError,
    InvalidDiagramError,
    associated_diagram,
    build_root_system,
    classify_cominuscule,
    cominuscule_id,
    decorated_diagram,
    diagram_type,
    expected_answer,
    generate_subsystem,
    grade_diagram,
    perpendicular_compacts,
    sweep,
    sweep_inputs,
)
from cominuscule.rootsys import _canonical_families


def expect(type_pair, dec):
    dtype = diagram_type(type_pair)
    return expected_answer(dtype, Decoration.from_string(dec))


def pipeline_keys(type_pair, dec):
    graded = grade_diagram(diagram_type(type_pair), Decoration.from_string(dec))
    ids = classify_cominuscule(associated_diagram(graded))
    return tuple(c.key() for c in ids)


def agree(type_pair, dec):
    res = expect(type_pair, dec)
    keys = tuple(c.key() for c in res.expected)
    assert pipeline_keys(type_pair, dec) == keys
    return keys, res.rule_source


# ------------------------------------------------------------ worked cases


def test_interior_cross_on_b5_is_a_line():
    keys, tag = agree(("B", 5), "oxooo")
    assert keys == (("A", 1, 1, 1),)
    assert tag == "B:point"


def test_two_crossings_on_b5_is_p3():
    keys, tag = agree(("B", 5), "xooxo")
    assert keys == (("A", 3, 1, 3),)
    assert tag == "B:projective-chain"


def test_c4_interior_cross_is_a_lagrangian():
    keys, tag = agree(("C", 4), "ooxo")
    assert keys == (("C", 3, 3, 6),)
    assert tag == "C:lagrangian-prefix"


def test_d6_middle_cross_is_p3():
    keys, tag = agree(("D", 6), "ooxooo")
    assert keys == (("A", 3, 1, 3),)
    assert tag == "D:spinor-prefix"


def test_d_family_fork_cases():
    keys, tag = agree(("D", 6), "xoooxo")
    assert keys == (("A", 5, 1, 5),)
    assert tag == "D:projective-fork"
    keys, tag = agree(("D", 6), "xoooxx")
    assert keys == (("A", 4, 1, 4),)
    assert tag == "D:projective-fork"
    keys, tag = agree(("D", 5), "oooxx")
    assert keys == (("D", 4, 1, 6),)
    assert tag == "D:spinor-fork"
    keys, tag = agree(("D", 5), "oooxo")
    assert keys == (("D", 5, 5, 10),)
    assert tag == "D:spinor-self"


def test_quadric_and_self_cases():
    keys, tag = agree(("B", 6), "xooooo")
    assert keys == (("B", 6, 1, 11),)
    assert tag == "B:quadric-self"
    keys, tag = agree(("C", 5), "oooox")
    assert keys == (("C", 5, 5, 15),)
    assert tag == "C:lagrangian-self"
    keys, tag = agree(("D", 7), "xoooooo")
    assert keys == (("D", 7, 1, 12),)
    assert tag == "D:quadric-self"


def test_exceptional_cases():
    assert agree(("E", 6), "xooooo")[0] == (("E", 6, 1, 16),)
    assert agree(("E", 6), "xoooox")[0] == (("D", 5, 1, 8),)
    assert agree(("E", 7), "oooooox")[0] == (("E", 7, 7, 27),)
    assert agree(("E", 7), "oooooxo")[0] == (("D", 6, 1, 10),)
    assert agree(("E", 8), "xooooooo")[0] == (("D", 8, 1, 14),)
    assert agree(("E", 8), "xxoooooo")[0] == (("A", 7, 1, 7),)
    assert agree(("E", 8), "oxoooooo")[0] == (("A", 8, 1, 8),)
    assert agree(("F", 4), "ooox")[0] == (("B", 4, 1, 7),)
    assert agree(("F", 4), "oxxo")[0] == (("A", 2, 1, 2),)


def test_rank_two_parabolic_table():
    # The eight gradings of the rank 2 groups and their cominuscules.
    cases = [
        (("A", 2), "xo", ("A", 2, 1, 2)),
        (("A", 2), "xx", ("A", 1, 1, 1)),
        (("B", 2), "xo", ("B", 2, 1, 3)),
        (("B", 2), "ox", ("A", 1, 1, 1)),
        (("B", 2), "xx", ("A", 1, 1, 1)),
        (("G", 2), "xo", ("A", 2, 1, 2)),
        (("G", 2), "ox", ("A", 1, 1, 1)),
        (("G", 2), "xx", ("A", 1, 1, 1)),
    ]
    for pair, dec, key in cases:
        assert agree(pair, dec)[0] == (key,), (pair, dec)


# ---------------------------------------------------------------- the API


def test_expected_answer_rejects_products():
    dtype = diagram_type(("A", 1), ("A", 1))
    with pytest.raises(ValueError):
        expected_answer(dtype, Decoration.from_string("xx"))


def test_expected_answer_rejects_empty_decoration():
    with pytest.raises(ValueError):
        expect(("A", 3), "ooo")


def test_expected_answer_rejects_wrong_length():
    dtype = diagram_type(("A", 3))
    with pytest.raises(ValueError):
        expected_answer(dtype, Decoration.from_string("xo"))


# ------------------------------------------------ root-free rule checks


def _diagram_automorphisms(family, rank):
    """Node maps (1-based, an unlisted node is fixed) of A_r's reversal, D_r's
    fork swap, D4's triality and E6's reflection."""
    if family == "A" and rank > 1:
        yield {j: rank + 1 - j for j in range(1, rank + 1)}
    if family == "D":
        yield {rank - 1: rank, rank: rank - 1}
        if rank == 4:
            yield {1: 3, 3: 4, 4: 1}
    if family == "E" and rank == 6:
        yield {1: 6, 6: 1, 3: 5, 5: 3}


def rule_violations(family, rank, most):
    """Where the rule table of `family` at `rank` breaks a root-free check,
    among the decorations with at most `most` crosses.  It reads the rule
    table alone, no root system.  The box is the positive roots b with
    b_k = theta_k at every crossed k, so one more cross cannot enlarge the
    answer; and a diagram automorphism maps a decoration to one with the same
    answer."""
    rule = verify.FAMILY_RULES[family]
    answer = {
        frozenset(s): rule(rank, set(s))[0]
        for k in range(1, min(most, rank) + 1)
        for s in combinations(range(1, rank + 1), k)
    }
    violations = []
    for s, cid in answer.items():
        if len(s) < most:
            for j in range(1, rank + 1):
                if j not in s and answer[s | {j}].dimension > cid.dimension:
                    violations.append((f"{family}{rank}", sorted(s), "+", j))
        for sigma in _diagram_automorphisms(family, rank):
            if answer[frozenset(sigma.get(j, j) for j in s)].key() != cid.key():
                violations.append((f"{family}{rank}", sorted(s), sigma))
    return violations


# (family, rank, most crosses): every decoration to rank 11, and the
# decorations of A-D with at most three crosses at a few higher ranks
RULE_SCOPES = [
    (family, rank, rank) for rank in range(1, 12) for family in _canonical_families(rank)
] + [(family, rank, 3) for family in "ABCD" for rank in (12, 20, 28, 40)]


def test_rules_shrink_with_each_cross_and_respect_automorphisms():
    violations = [v for scope in RULE_SCOPES for v in rule_violations(*scope)]
    assert not violations, (len(violations), violations[:5])


def test_sweep_inputs_families():
    types = [str(t) for t in sweep_inputs(4)]
    assert types == [
        "A1", "A2", "A3", "A4",
        "B2", "B3", "B4",
        "C3", "C4",
        "D4",
        "F4", "G2",
    ]
    assert "E6" in [str(t) for t in sweep_inputs(6)]


def test_sweep_inputs_rejects_tiny_rank():
    with pytest.raises(ValueError):
        sweep_inputs(1)


# --------------------------------------------------------------- the sweep


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(4)


def test_sweep_counts(small_sweep):
    assert small_sweep.total == 106
    assert small_sweep.passed == 106
    assert small_sweep.failed == 0
    assert small_sweep.ok
    assert small_sweep.mismatches == ()


def test_sweep_text_report(small_sweep):
    text = small_sweep.to_text()
    assert text.startswith("sweep: 106 inputs, 106 passed, 0 failed")
    assert "\n" not in text  # no mismatch lines


def test_sweep_json_report(small_sweep):
    doc = json.loads(small_sweep.to_json())
    assert doc == {
        "total": 106,
        "passed": 106,
        "failed": 0,
        "mismatches": [],
    }


def test_sweep_detects_a_broken_rule(monkeypatch):
    def broken(rank, s):
        return cominuscule_id("A", 5, 2), "broken"

    monkeypatch.setitem(verify.FAMILY_RULES, "A", broken)
    report = sweep(2)
    assert report.total == 10
    assert report.failed == 4  # A1:x and the three A2 decorations
    kinds = {m.kind for m in report.mismatches}
    assert kinds == {"expected-answer"}
    text = report.to_text()
    assert "A2:xo [expected-answer]" in text
    assert "rule broken" in text


def test_sweep_over_the_input_limit_runs_nothing(monkeypatch, capsys):
    graded = []
    monkeypatch.setattr(verify, "grade_diagram", lambda *a, **k: graded.append(a))
    assert sum(2**t.total_rank - 1 for t in sweep_inputs(13)) == 65923
    assert 65923 <= verify.MAX_SWEEP_INPUTS < 131455
    with pytest.raises(
        InvalidDiagramError, match=f"131455 inputs, over the limit of {verify.MAX_SWEEP_INPUTS}"
    ):
        sweep(14)

    from cominuscule.cli import main

    # counting stops at the first rank over the limit, so a huge rank costs
    # no more than rank 14 and its count is never formatted
    for max_rank in ("20", "14500", str(10**9)):
        assert main(["sweep", "--max-rank", max_rank]) == 2
        assert capsys.readouterr().err == (
            "error: sweep up to rank 14 has 131455 inputs, over the limit of 100000\n"
        )
    assert graded == []


def test_sweep_records_a_crash_and_carries_on(monkeypatch, capsys):
    real = verify.direct_subsystem

    def crashing(graded):
        if graded.rs.dtype.components[0].family == "B":
            raise IndexError("index 99 is out of bounds")
        return real(graded)

    monkeypatch.setattr(verify, "direct_subsystem", crashing)
    report = sweep(3)
    assert report.total == 31
    crashed = {(m.dtype, m.decoration) for m in report.mismatches}
    assert {d for d, _ in crashed} == {"B2", "B3"}
    assert len(crashed) == report.failed == 3 + 7
    assert {m.kind for m in report.mismatches} == {"crash"}
    assert all(
        m.detail.startswith("IndexError: index 99 is out of bounds (in crashing,")
        for m in report.mismatches
    )
    assert "B3:oxo [crash] IndexError" in report.to_text()

    from cominuscule.cli import main

    assert main(["sweep", "--max-rank", "3"]) == 1
    assert "[crash]" in capsys.readouterr().out


# ------------------------------------------------ the idempotence memo


@pytest.fixture
def one_process():
    """Sweep in this process only, for tests that count calls in it or carry
    state between calls.  A context of its own, so `monkeypatch.undo()` in a
    test leaves it in place."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_cpus", lambda: 1)
        yield


def _images(max_rank):
    """(dtype, decoration) of each sweep input -> its associated diagram."""
    out = {}
    for dtype in sweep_inputs(max_rank):
        rank = dtype.total_rank
        for bits in range(1, 1 << rank):
            dec = Decoration(tuple(bool(bits >> i & 1) for i in range(rank)))
            dd = associated_diagram(grade_diagram(dtype, dec))
            out[str(dtype), str(dec)] = (dd.dtype, dd.decoration)
    return out


def _count_gradings(monkeypatch, fail_after=None):
    """Wrap the sweep's grade_diagram; return the list of its calls' inputs.

    With fail_after=(dtype, decoration), every call on that input after the
    first raises a CominusculeError.
    """
    real = verify.grade_diagram
    calls = []

    def counting(dtype, decoration, **kwargs):
        calls.append((dtype, decoration))
        if (dtype, decoration) == fail_after and calls.count(fail_after) > 1:
            raise DecorationError(f"{dtype}:{decoration} graded twice")
        return real(dtype, decoration, **kwargs)

    monkeypatch.setattr(verify, "grade_diagram", counting)
    return calls


@pytest.mark.usefixtures("one_process")
def test_idempotence_memo_hides_no_failure(monkeypatch):
    images = _images(4)
    line = (diagram_type(("A", 1)), Decoration.from_string("x"))
    onto_line = sorted(k for k, image in images.items() if image == line)
    assert ("A1", "x") in onto_line and len(onto_line) > 1

    # the first grading of A1:x is the sweep's first input; every later one
    # is an idempotence run and fails
    calls = _count_gradings(monkeypatch, fail_after=line)
    report = sweep(4)
    # a failed image is not kept: each input mapping onto A1:x runs it again
    assert calls.count(line) == 1 + len(onto_line)
    assert {m.kind for m in report.mismatches} == {"idempotence"}
    assert sorted((m.dtype, m.decoration) for m in report.mismatches) == onto_line
    assert report.failed == len(onto_line)

    # the memo does not outlive a call: a fresh sweep runs every image again
    monkeypatch.undo()
    calls = _count_gradings(monkeypatch)
    report = sweep(4)
    assert report.mismatches == ()
    assert len(calls) == report.total + len(set(images.values()))


@pytest.mark.usefixtures("one_process")
def test_box_memo_keeps_no_box_whose_image_moves(monkeypatch):
    images = _images(4)
    line = (diagram_type(("A", 1)), Decoration.from_string("x"))
    onto_line = sorted(k for k, image in images.items() if image == line)
    boxes = {
        (dtype, tuple(grade_diagram(dtype, dec).box_idx))
        for dtype in sweep_inputs(4)
        for dec in _decorations(dtype)
        if (str(dtype), str(dec)) in onto_line
    }
    # some inputs mapping onto A1:x share a box with an earlier one
    assert len(boxes) < len(onto_line)

    # the pipeline maps A1:x to itself the first time, then to A1:o
    real = verify.decorated_diagram
    runs = []

    def moving(sub):
        dd = real(sub)
        if (sub.graded.rs.dtype, sub.graded.decoration) == line:
            runs.append(dd)
            if len(runs) > 1:
                return dd._replace(decoration=Decoration((False,)))
        return dd

    # the box stage calls it from verify, an image's run from subsystem's
    # associated_diagram
    monkeypatch.setattr(verify, "decorated_diagram", moving)
    monkeypatch.setattr(subsystem, "decorated_diagram", moving)
    report = sweep(4)
    # a box whose image failed is not kept, so every input onto A1:x fails
    assert sorted((m.dtype, m.decoration) for m in report.mismatches) == onto_line
    assert {m.detail for m in report.mismatches} == {"A1:x maps to A1:o"}


@pytest.mark.usefixtures("one_process")
def test_sweep_grades_each_input_and_each_image_once(monkeypatch):
    distinct_images = len(set(_images(6).values()))
    calls = _count_gradings(monkeypatch)
    report = sweep(6)
    assert report.ok
    assert len(calls) <= report.total + distinct_images


# ------------------------------------------------------------- the box memo


def _decorations(dtype):
    rank = dtype.total_rank
    for bits in range(1, 1 << rank):
        yield Decoration(tuple(bool(bits >> i & 1) for i in range(rank)))


def _by_box(max_rank):
    """(dtype, box_idx) -> the pipeline's results and the box stage's record
    on each input with that box, every input run fresh."""
    groups = {}
    images = {}
    for dtype in sweep_inputs(max_rank):
        for dec in _decorations(dtype):
            graded = grade_diagram(dtype, dec)
            sub = generate_subsystem(graded)
            dd = decorated_diagram(sub)
            keys = tuple(c.key() for c in classify_cominuscule(dd))
            # the box stage's record: members, ids and fixed set
            record, failures = verify._box_stage(graded, images)
            assert failures == []
            assert record.members == sub.members
            result = (
                sub.members, dd.dtype, dd.decoration, dd.node_embedding, keys, record
            )
            groups.setdefault((dtype, tuple(graded.box_idx)), []).append(result)
    return groups


def test_the_box_determines_everything_the_memo_keeps():
    groups = _by_box(7)
    assert sum(map(len, groups.values())) == 1180
    assert len(groups) == 221
    for results in groups.values():
        assert all(r == results[0] for r in results)


def _count_direct(monkeypatch, fail_on=None):
    """Wrap the sweep's direct_subsystem; return the list of boxes it ran on.

    With fail_on=(dtype, box_idx), a call on that box raises a
    ClassificationError.
    """
    real = verify.direct_subsystem
    calls = []

    def counting(graded):
        key = (graded.rs.dtype, tuple(graded.box_idx))
        calls.append(key)
        if key == fail_on:
            raise ClassificationError(f"box {key[1]} refused")
        return real(graded)

    monkeypatch.setattr(verify, "direct_subsystem", counting)
    return calls


@pytest.mark.usefixtures("one_process")
def test_sweep_runs_the_subsystem_routes_once_per_box(monkeypatch):
    boxes = set(_by_box(6))
    assert len(boxes) == 150
    calls = _count_direct(monkeypatch)
    assert sweep(6).ok
    assert len(calls) == len(set(calls)) == 150
    assert set(calls) == boxes

    # the memo does not outlive a call
    calls.clear()
    assert sweep(6).ok
    assert len(calls) == 150


def test_box_memo_still_checks_each_input(monkeypatch):
    a4 = diagram_type(("A", 4))
    first, second = (Decoration.from_string(d) for d in ("xoox", "xxox"))
    box_of = {d: grade_diagram(a4, d).box_idx for d in (first, second)}
    assert box_of[first] == box_of[second]

    real = verify.expected_answer

    def wrong_for_second(dtype, decoration):
        if (dtype, decoration) == (a4, second):
            return verify.ExpectedResult(
                dtype, decoration, (cominuscule_id("A", 2, 1),), "wrong"
            )
        return real(dtype, decoration)

    monkeypatch.setattr(verify, "expected_answer", wrong_for_second)
    calls = _count_direct(monkeypatch)
    report = sweep(4)
    # A4:xxox comes after A4:xoox, so its subsystem came from the memo
    assert calls.count((a4, tuple(box_of[second]))) == 1
    assert [(m.dtype, m.decoration, m.kind) for m in report.mismatches] == [
        ("A4", "xxox", "expected-answer")
    ]


def test_box_memo_keeps_no_failed_box(monkeypatch):
    a4 = diagram_type(("A", 4))
    box = tuple(grade_diagram(a4, Decoration.from_string("xoox")).box_idx)
    sharing = sorted(
        str(d) for d in _decorations(a4) if tuple(grade_diagram(a4, d).box_idx) == box
    )
    assert len(sharing) == 4  # every decoration crossing nodes 1 and 4

    calls = _count_direct(monkeypatch, fail_on=(a4, box))
    report = sweep(4)
    # a failed box is not kept: each input with it runs the routes again
    assert calls.count((a4, box)) == len(sharing)
    assert {m.kind for m in report.mismatches} == {"subsystem"}
    assert sorted(m.decoration for m in report.mismatches) == sharing
    assert {m.dtype for m in report.mismatches} == {"A4"}
    assert report.failed == len(sharing)


def _record_fixed(monkeypatch):
    """Wrap the sweep's fixed-set helper; return (dtype, members, result)
    per call."""
    real = verify._fixed_idx
    calls = []

    def recording(rs, members):
        fixed = real(rs, members)
        calls.append((rs.dtype, members, fixed))
        return fixed

    monkeypatch.setattr(verify, "_fixed_idx", recording)
    return calls


@pytest.mark.usefixtures("one_process")
def test_sweep_computes_the_fixed_set_once_per_box(monkeypatch):
    calls = _record_fixed(monkeypatch)
    boxes = _count_direct(monkeypatch)
    assert sweep(6).ok
    # 150 boxes, some of which close to the same members
    assert len(calls) == len(boxes) == len(set(boxes)) == 150


@pytest.mark.usefixtures("one_process")
def test_memo_fixed_set_filtered_by_grade_is_each_inputs_perpendicular_set(
    monkeypatch,
):
    calls = _record_fixed(monkeypatch)
    assert sweep(7).ok
    fixed_of = {(d, m): fixed for d, m, fixed in calls}
    count = 0
    for dtype in sweep_inputs(7):
        for dec in _decorations(dtype):
            graded = grade_diagram(dtype, dec)
            sub = generate_subsystem(graded)
            roots = graded.rs.roots
            kept = fixed_of[dtype, sub.members]
            perp = frozenset(
                roots[b] for b in kept if sum(compress(roots[b], dec.crossed)) == 0
            )
            assert perp == perpendicular_compacts(sub)
            count += 1
    assert count == 1180


# ------------------------------------------- the grade checks of a kept box


def _b3_point_box():
    """B3's box {highest root}, shared by every decoration crossing node 2,
    and those decorations in sweep order.  The box's fixed set is {+-(1, 0,
    0), +-(0, 0, 1)}; (1, 0, 0) has grade 0 on oxo and oxx, (0, 0, 1) on oxo
    and xxo, and each has grade 1 on the other two."""
    b3 = diagram_type(("B", 3))
    box = tuple(grade_diagram(b3, Decoration.from_string("oxo")).box_idx)
    sharing = [
        str(d) for d in _decorations(b3) if tuple(grade_diagram(b3, d).box_idx) == box
    ]
    assert sharing == ["oxo", "xxo", "oxx", "xxx"]
    return b3, box, sharing


@pytest.mark.usefixtures("one_process")
def test_fixed_set_missing_a_compact_root_fails_the_dichotomy(monkeypatch):
    b3, box, _ = _b3_point_box()
    alpha1 = build_root_system(b3).roots.index((1, 0, 0))
    real = verify._fixed_idx

    def dropping(rs, members):
        fixed = real(rs, members)
        if rs.dtype == b3 and box[0] in members:
            fixed = [b for b in fixed if b != alpha1]
        return fixed

    monkeypatch.setattr(verify, "_fixed_idx", dropping)
    calls = _count_direct(monkeypatch)
    report = sweep(3)
    # computed once, on oxo, and kept: oxx reads the kept record; on xxo and
    # xxx the root has grade 1 and is not compact
    assert calls.count((b3, box)) == 1
    assert report.mismatches == tuple(
        verify.Mismatch("B3", d, "compact-dichotomy", "[(1, 0, 0)]")
        for d in ("oxo", "oxx")
    )


def test_box_record_reads_each_roots_grade_at_its_index():
    count = 0
    images = {}
    for dtype in sweep_inputs(6):
        for dec in _decorations(dtype):
            graded = grade_diagram(dtype, dec)
            record, failures = verify._box_stage(graded, images)
            assert failures == []
            # |grade| of root i, the crossed coefficients' sum, is byte i
            roots, packed = graded.rs.roots, graded.grades
            for idx in (sorted(record.members), record.fixed):
                want = [abs(sum(compress(roots[i], dec.crossed))) for i in idx]
                assert [packed[i] for i in idx] == want
            # a root is never fixed by its own reflection
            assert record.disjoint
            ids = classify_cominuscule(decorated_diagram(generate_subsystem(graded)))
            assert record.keys == tuple(c.key() for c in ids)
            assert len(graded.box_idx) == sum(c.dimension for c in ids)
            count += 1
    assert count == 545


@pytest.mark.usefixtures("one_process")
def test_kept_member_of_intermediate_grade_fails_the_trichotomy(monkeypatch):
    b3, box, _ = _b3_point_box()
    # a negative root, whose grade is minus a positive root's
    added = build_root_system(b3).roots.index((0, 0, -1))
    real = verify._box_stage
    widened = []

    def widening(graded, images):
        record, failures = real(graded, images)
        if (graded.rs.dtype, tuple(graded.box_idx)) == (b3, box):
            record = record._replace(members=record.members | {added})
            widened.append(record.members)
        return record, failures

    monkeypatch.setattr(verify, "_box_stage", widening)
    report = sweep(3)
    # oxo computes the record and keeps it, as the added root has grade 0
    # there; it is also in the fixed set, which fails the dichotomy where it
    # has grade 0
    assert len(widened) == 1

    def detail(dec):
        graded = grade_diagram(b3, Decoration.from_string(dec))
        with pytest.raises(ClassificationError) as info:
            subsystem._make_subsystem(graded, widened[0])
        return str(info.value)

    assert detail("oxx") == "root (0, 0, -1) has grade -1, outside {-4, 0, 4}"
    assert [tuple(m)[1:] for m in report.mismatches] == [
        ("oxo", "compact-dichotomy", "[]"),
        ("xxo", "compact-dichotomy", "[]"),
        ("oxx", "subsystem", detail("oxx")),
        ("xxx", "subsystem", detail("xxx")),
    ]
    assert {m.dtype for m in report.mismatches} == {"B3"}


# ---------------------------------------------------- the split over processes


def _sweep_on(monkeypatch, cpus, max_rank):
    """sweep(max_rank) as if `cpus` CPUs were available, `elapsed` zeroed."""
    monkeypatch.setattr(verify, "_cpus", lambda: cpus)
    return sweep(max_rank)._replace(elapsed=0.0)


def _child_bin(max_rank):
    bins = verify._deal(sweep_inputs(max_rank), 2)
    assert len(bins) == 2
    return {str(t) for t in bins[1]}


def test_split_sweep_reports_what_one_process_reports(monkeypatch):
    serial = _sweep_on(monkeypatch, 1, 8)
    split = _sweep_on(monkeypatch, 2, 8)
    assert split.total == 2455 and split.ok
    assert split == serial
    assert split.to_json() == serial.to_json()
    assert split.to_text() == serial.to_text()


def test_split_sweep_reports_a_broken_rule_in_type_order(monkeypatch):
    parent = os.getpid()
    ruled_here = set()

    def broken(rank, s):
        if os.getpid() == parent:
            ruled_here.add(f"A{rank}")
        return cominuscule_id("A", 5, 2), "broken"

    monkeypatch.setitem(verify.FAMILY_RULES, "A", broken)
    a_types = {f"A{r}" for r in range(1, 9)}
    child = _child_bin(8)
    assert a_types & child and a_types - child
    serial = _sweep_on(monkeypatch, 1, 8)
    assert ruled_here == a_types
    ruled_here.clear()
    split = _sweep_on(monkeypatch, 2, 8)
    # the child's A types failed through the patch it inherited through
    # fork, and this process never ran their rule
    assert ruled_here == a_types - child

    assert split.failed == serial.failed > 0
    assert split.mismatches == serial.mismatches
    assert split.to_json() == serial.to_json()
    assert split.to_text() == serial.to_text()
    order = [str(t) for t in sweep_inputs(8)]
    ranks = [order.index(m.dtype) for m in split.mismatches]
    assert ranks == sorted(ranks)
    assert {m.dtype for m in split.mismatches} == a_types


def test_sweep_counts_failed_inputs_not_mismatches(monkeypatch):
    a4 = diagram_type(("A", 4))
    target = (a4, Decoration.from_string("xoox"))
    real_expected = verify.expected_answer
    real_high = verify.highest_component

    def wrong_expected(dtype, decoration):
        if (dtype, decoration) == target:
            return verify.ExpectedResult(
                dtype, decoration, (cominuscule_id("A", 2, 1),), "wrong"
            )
        return real_expected(dtype, decoration)

    def wrong_high(h, graded):
        high = real_high(h, graded)
        if (graded.rs.dtype, graded.decoration) == target:
            return tuple(frozenset() for _ in high)
        return high

    monkeypatch.setattr(verify, "expected_answer", wrong_expected)
    monkeypatch.setattr(verify, "highest_component", wrong_high)
    serial = _sweep_on(monkeypatch, 1, 5)
    split = _sweep_on(monkeypatch, 2, 5)
    assert split == serial
    # one input with two mismatches is one failed input
    assert (serial.total, serial.passed, serial.failed) == (230, 229, 1)
    assert [(m.dtype, m.decoration, m.kind) for m in serial.mismatches] == [
        ("A4", "xoox", "expected-answer"),
        ("A4", "xoox", "box-vs-hasse"),
    ]


def _a4_box():
    """A4's box shared by every decoration crossing nodes 1 and 4, and those
    decorations in sweep order."""
    a4 = diagram_type(("A", 4))
    box = tuple(grade_diagram(a4, Decoration.from_string("xoox")).box_idx)
    sharing = [
        str(d) for d in _decorations(a4) if tuple(grade_diagram(a4, d).box_idx) == box
    ]
    assert sharing == ["xoox", "xxox", "xoxx", "xxxx"]
    return a4, box, sharing


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_walk_checks_every_input_of_a_kept_box(monkeypatch, cpus):
    a4, _, _ = _a4_box()
    target = (a4, Decoration.from_string("xxox"))
    real = verify._highest_walk

    def wrong_for_target(graded):
        walk = real(graded)
        if (graded.rs.dtype, graded.decoration) == target:
            return walk[1:]
        return walk

    monkeypatch.setattr(verify, "_highest_walk", wrong_for_target)
    report = _sweep_on(monkeypatch, cpus, 5)
    # A4:xoox kept the box's record; A4:xxox, after it, still runs the walk
    assert [(m.dtype, m.decoration, m.kind) for m in report.mismatches] == [
        ("A4", "xxox", "box-vs-hasse")
    ]


@pytest.mark.parametrize("cpus", [1, 2])
def test_box_memo_keeps_no_box_that_fails_the_hasse_check(monkeypatch, cpus):
    a4, box, sharing = _a4_box()
    real = verify.highest_component

    def wrong_for_box(h, graded):
        high = real(h, graded)
        if (graded.rs.dtype, tuple(graded.box_idx)) == (a4, box):
            return tuple(frozenset() for _ in high)
        return high

    monkeypatch.setattr(verify, "highest_component", wrong_for_box)
    report = _sweep_on(monkeypatch, cpus, 5)
    # the hasse check runs on a fresh record only, and a record that failed
    # it is not kept, so every input with the box runs it and fails
    assert [(m.dtype, m.decoration, m.kind) for m in report.mismatches] == [
        ("A4", d, "box-vs-hasse") for d in sharing
    ]
    assert report.failed == len(sharing)


@pytest.mark.parametrize("cpus", [1, 2])
def test_box_memo_keeps_no_box_whose_stage_found_a_mismatch(monkeypatch, cpus):
    a4, box, sharing = _a4_box()
    # a valid answer of dimension 2, while the box holds one root
    a2_xo = associated_diagram(
        grade_diagram(diagram_type(("A", 2)), Decoration.from_string("xo"))
    )
    assert str(a2_xo) == "A2:xo" and len(box) == 1
    real = verify.decorated_diagram

    def wrong_for_box(sub):
        if (sub.graded.rs.dtype, tuple(sub.graded.box_idx)) == (a4, box):
            return a2_xo
        return real(sub)

    monkeypatch.setattr(verify, "decorated_diagram", wrong_for_box)
    calls = _count_direct(monkeypatch)
    report = _sweep_on(monkeypatch, cpus, 5)
    assert [(m.dtype, m.decoration, m.kind) for m in report.mismatches] == [
        ("A4", d, kind) for d in sharing for kind in ("expected-answer", "dimension")
    ]
    assert report.failed == len(sharing)
    if cpus == 1:
        # a box whose stage found a mismatch is not kept: each input with it
        # runs the stage again
        assert calls.count((a4, box)) == len(sharing)


@pytest.mark.parametrize("failure", ["fork", "child dies"])
def test_split_sweep_runs_a_lost_bin_itself(monkeypatch, failure):
    serial = _sweep_on(monkeypatch, 1, 6)
    parent = os.getpid()
    real = verify._check_input
    checked_here = set()

    def checking(dtype, decoration, *args):
        if os.getpid() != parent:
            if str(dtype) == "B5" and str(decoration) == "xxxoo":
                os._exit(3)  # partway through the child's bin
        else:
            checked_here.add(str(dtype))
        return real(dtype, decoration, *args)

    monkeypatch.setattr(verify, "_check_input", checking)
    assert "B5" in _child_bin(6)
    if failure == "fork":

        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
    report = _sweep_on(monkeypatch, 2, 6)
    assert report == serial
    assert report.to_text() == serial.to_text()
    # this process ran the lost bin itself
    assert checked_here == {str(t) for t in sweep_inputs(6)}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _record_forks(monkeypatch):
    real = verify._fork_bin
    pids = []

    def recording(part):
        pid, read_fd = real(part)
        pids.append(pid)
        return pid, read_fd

    monkeypatch.setattr(verify, "_fork_bin", recording)
    return pids


def test_split_sweep_leaves_no_child(monkeypatch):
    pids = _record_forks(monkeypatch)
    # with one CPU there is one bin, swept here: nothing is forked
    monkeypatch.setattr(verify, "_cpus", lambda: 1)
    assert sweep(5).ok
    assert pids == []

    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    assert sweep(5).ok
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    # this process raises partway through its own bin, the child still busy
    parent = os.getpid()
    real = verify._check_input

    def raising(dtype, decoration, *args):
        if os.getpid() == parent and str(dtype) == "A5":
            raise RuntimeError("stop")
        return real(dtype, decoration, *args)

    monkeypatch.setattr(verify, "_check_input", raising)
    pids.clear()
    with pytest.raises(RuntimeError, match="stop"):
        sweep(5)
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_forks_nothing_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    pids = _record_forks(monkeypatch)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait, args=(60,))
    waiter.start()
    try:
        report = sweep(4)
    finally:
        done.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert pids == []
    assert report.total == 106 and report.ok


def test_deal_puts_each_type_in_one_bin(monkeypatch):
    types = sweep_inputs(8)
    largest = 2**8 - 1
    for k in (1, 2, 3, 4, 7, len(types), 100):
        bins = verify._deal(types, k)
        assert 1 <= len(bins) <= k
        assert all(bins)
        assert sorted(t for part in bins for t in part) == sorted(types)
        for part in bins:  # each bin keeps the sweep order
            assert part == [t for t in types if t in part]
        loads = [sum(2**t.total_rank - 1 for t in part) for part in bins]
        assert max(loads) - min(loads) <= largest
    assert verify._deal(types, 1) == [types]
    assert len(verify._deal(types[:3], 8)) == 3

    monkeypatch.delattr(os, "fork")
    assert verify._deal(types, 4) == [types]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify._cpus() == 1
