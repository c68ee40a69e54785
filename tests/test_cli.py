"""Command-line interface: spec parsing, rendering, subcommands, exit codes."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

import cominuscule.verify as verify
from cominuscule import (
    CominusculeError,
    Decoration,
    DiagramType,
    NotCominusculeError,
    cominuscule_id,
    diagram_type,
)
from cominuscule.cli import (
    _TABLE,
    CARTER_TO_BOURBAKI,
    build_parser,
    main,
    parse_spec,
    render_diagram,
    render_spec,
)
from cominuscule.rootsys import _canonical_families, _edges, component_cartan


# ---------------------------------------------------------------- parsing


def test_parse_spec_round_trip():
    dtype, dec = parse_spec("B4:oxoo")
    assert render_spec(dtype, dec) == "B4:oxoo"
    dtype, dec = parse_spec("A2xA1:xox")
    assert render_spec(dtype, dec) == "A2xA1:xox"


def test_parse_spec_normalizes_components():
    dtype, dec = parse_spec("D3:xoo")
    assert render_spec(dtype, dec) == "A3:oxo"
    dtype, dec = parse_spec("C2:xo")
    assert render_spec(dtype, dec) == "B2:ox"
    dtype, dec = parse_spec("B1:x")
    assert render_spec(dtype, dec) == "A1:x"
    # D3 node 2 is an end of the A3 chain, so the cross lands on node 1.
    dtype, dec = parse_spec("C1xD3:xoxo")
    assert render_spec(dtype, dec) == "A1xA3:xxoo"


@pytest.mark.parametrize(
    "bad",
    ["B4oxoo", "H3:xoo", "B0:", "Bx:oo", "A3:xoy", "A3:xo", "A3:xoxo", "D2:xo"],
)
def test_parse_spec_rejects(bad):
    with pytest.raises(CominusculeError):
        parse_spec(bad)


def test_parse_spec_reports_bad_character_position():
    with pytest.raises(CominusculeError, match="'q' at position 2"):
        parse_spec("A4:xoqo")


def test_carter_numbering_remaps_exceptional_nodes():
    assert parse_spec("E6:oxoooo", "carter") == parse_spec("E6:ooxooo")
    assert parse_spec("E8:xooooooo", "carter") == parse_spec("E8:ooooooox")
    assert parse_spec("E7:xoooooo", "carter") == parse_spec("E7:oooooox")
    # F4 and the classical families are numbered identically.
    assert parse_spec("F4:xoox", "carter") == parse_spec("F4:xoox")
    assert parse_spec("B3:xoo", "carter") == parse_spec("B3:xoo")


def test_carter_table_is_a_permutation():
    for (fam, rank), row in CARTER_TO_BOURBAKI.items():
        assert sorted(row) == list(range(1, rank + 1))


def _carter_order(cartan):
    """Bourbaki nodes (1-based) in Carter order, by the rule in the README:
    walk the longest arm in to the trivalent node, take the one-node arm,
    then walk out the remaining arm.  A tie between the two longest arms
    goes to the arm through node 1."""
    n = len(cartan)
    adj = [[j for j in range(n) if j != i and cartan[i][j]] for i in range(n)]
    (center,) = [i for i in range(n) if len(adj[i]) == 3]
    arms = []
    for v in adj[center]:
        arm, prev = [v], center
        while len(adj[arm[-1]]) == 2:
            (step,) = [w for w in adj[arm[-1]] if w != prev]
            prev = arm[-1]
            arm.append(step)
        arms.append(arm)
    (short,) = [arm for arm in arms if len(arm) == 1]
    longest = max(arms, key=lambda arm: (len(arm), 0 in arm))
    (rest,) = [arm for arm in arms if arm is not short and arm is not longest]
    return tuple(v + 1 for v in longest[::-1] + [center] + short + rest)


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_carter_rows_follow_the_arm_rule(rank):
    assert CARTER_TO_BOURBAKI["E", rank] == _carter_order(component_cartan("E", rank))


def test_carter_f4_row_is_the_identity():
    assert CARTER_TO_BOURBAKI["F", 4] == (1, 2, 3, 4)


# -------------------------------------------------------------- rendering


@pytest.mark.parametrize(
    "spec,art",
    [
        ("A3:xoo", "x-o-o"),
        ("B4:oxoo", "o-x-o=>o"),
        ("C3:oox", "o-o<=x"),
        ("D5:xooxo", "x-o-o(-x)(-o)"),
        ("E6:xooooo", "x-o-o(-o)-o-o"),
        ("E7:oooooox", "o-o-o(-o)-o-o-x"),
        ("F4:ooox", "o-o=>o-x"),
        ("G2:xo", "x<#o"),
        ("A1xG2:xox", "x  x  o<#x"),
    ],
)
def test_render_diagram(spec, art):
    dtype, dec = parse_spec(spec)
    assert render_diagram(dtype, dec) == art


# (C[a][b], C[b][a]) of a bond walked from node a to node b
_BONDS = {(-1, -1): "-", (-1, -2): "=>", (-2, -1): "<=", (-3, -1): "<#"}


def _drawn_from_edges(family, rank, marks):
    """A component's drawing derived from `rootsys._edges`: walk from node 0.
    Where more than one unvisited neighbour remains, each leaf among them is
    drawn in parentheses and the walk goes on to the one that is not."""
    pairs, adj = {}, [[] for _ in range(rank)]
    for i, j, cij, cji in _edges(family, rank):
        pairs[i, j], pairs[j, i] = (cij, cji), (cji, cij)
        adj[i].append(j)
        adj[j].append(i)

    def step(a, b):
        return _BONDS[pairs[a, b]] + ("x" if marks[b] else "o")

    art, seen, v = ["x" if marks[0] else "o"], {0}, 0
    while True:
        ahead = [w for w in sorted(adj[v]) if w not in seen]
        seen.update(ahead)
        if len(ahead) > 1:
            art += [f"({step(v, w)})" for w in ahead if len(adj[w]) == 1]
            ahead = [w for w in ahead if len(adj[w]) > 1]
        if not ahead:
            return "".join(art)
        (w,) = ahead
        art.append(step(v, w))
        v = w


def test_render_diagram_matches_the_edge_list():
    # every canonical type to rank 60 and random products, randomly crossed
    rng = random.Random(0)
    types = [
        diagram_type((f, r)) for r in range(1, 61) for f in _canonical_families(r)
    ]
    inputs = [t for t in types for _ in range(5)]
    for _ in range(500):
        parts = rng.sample(types[:60], rng.randint(2, 4))
        inputs.append(DiagramType(tuple(c for t in parts for c in t.components)))
    for dtype in inputs:
        dec = Decoration(tuple(rng.random() < 0.5 for _ in range(dtype.total_rank)))
        want, start = [], 0
        for c in dtype.components:
            marks = dec.crossed[start : start + c.rank]
            want.append(_drawn_from_edges(c.family, c.rank, marks))
            start += c.rank
        assert render_diagram(dtype, dec) == "  x  ".join(want), (dtype, dec)


# ------------------------------------------------------------- subcommands


def test_compute_text_output(capsys):
    assert main(["compute", "B5:xooxo"]) == 0
    out = capsys.readouterr().out
    assert "input: B5:xooxo" in out
    assert "associated: A3:xoo" in out
    assert "A3, node 1 crossed, dim 3 - projective space P^3" in out
    assert "box size: 3" in out
    assert "node 1 = (1, 1, 1, 2, 2)" in out


def test_compute_json_output_is_stable(capsys):
    assert main(["compute", "F4:ooox", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["compute", "F4:ooox", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["input"] == {"type": "F4", "decoration": "ooox"}
    assert doc["associated"]["type"] == "B4"
    assert doc["associated"]["decoration"] == "xooo"
    assert doc["components"][0]["description"].startswith("quadric")
    assert doc["components"][0]["dimension"] == 7
    assert doc["box_size"] == 7
    assert doc["node_embedding"][0] == [0, 1, 2, 2]
    assert doc["dropped_point_factors"] == []


def test_compute_drops_point_factors(capsys):
    assert main(["compute", "A2xB2:xooo", "--allow-point-factors"]) == 0
    out = capsys.readouterr().out
    assert "dropped point factors: B2" in out
    assert "associated: A2:xo" in out


def test_compute_all_point_factors(capsys):
    assert main(["compute", "A2xB2:oooo", "--allow-point-factors"]) == 0
    out = capsys.readouterr().out
    assert "point factor only; the associated variety is a single point" in out


def test_compute_strict_without_flag(capsys):
    assert main(["compute", "A2xB2:xooo"]) == 2
    assert "carry no cross" in capsys.readouterr().err


def test_compute_carter_equals_bourbaki(capsys):
    assert main(["compute", "E6:oxoooo", "--numbering", "carter", "--json"]) == 0
    carter = capsys.readouterr().out
    assert main(["compute", "E6:ooxooo", "--json"]) == 0
    assert carter == capsys.readouterr().out


def test_bad_spec_exits_2(capsys):
    assert main(["compute", "B4:oxo"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_oversized_spec_exits_2_before_building(monkeypatch, capsys):
    import cominuscule.rootsys as rootsys

    def refuse(*args):
        raise AssertionError("closure entered for an oversized spec")

    monkeypatch.setattr(rootsys, "_close_simples", refuse)
    assert main(["compute", "A100:" + "x" + "o" * 99]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: A100 has 10100 roots")
    assert str(rootsys.MAX_ROOTS) in err


@pytest.mark.parametrize(
    "spec,shown",
    [
        # int() overflows the C index: an OverflowError traceback before
        ("A99999999999999999999:x", "A99999999999999999999"),
        # past Python's 4300-digit int limit: a ValueError traceback before
        ("A" + "9" * 5000 + ":x", "A9999999999"),
        # normalize_component built tuple(range(rank)), 130 MB, before
        ("A3000000:x", "A3000000"),
    ],
    ids=["overflow", "5000-digits", "3000000"],
)
@pytest.mark.parametrize("command", ["compute", "hasse"])
def test_rank_past_the_decoration_exits_2_unread(monkeypatch, capsys, command, spec, shown):
    import cominuscule.cli as cli

    real, ranks = cli.normalize_component, []

    def recording(family, rank):
        ranks.append(rank)
        return real(family, rank)

    monkeypatch.setattr(cli, "normalize_component", recording)
    assert main([command, spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: decoration 'x' has length 1, too short for " + shown)
    assert captured.err.count("\n") == 1
    assert ranks == []

    # a rank sum past the decoration length is refused before any component
    # is built; each rank that is read is at most the decoration length
    assert main([command, "A2xA2xA3:xoxox"]) == 2
    assert capsys.readouterr().err == (
        "error: decoration 'xoxox' has length 5, expected 7 for A2xA2xA3\n"
    )
    assert main([command, "A2xA3:xoxox"]) == 0
    capsys.readouterr()
    assert ranks == [2, 3]


def test_hasse_default_is_full_text(capsys):
    assert main(["hasse", "G2:xo"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("height 1: (0,1) (1,0)")
    assert "(3,1) -2-> (3,2)" in out


def test_hasse_box_restriction(capsys):
    assert main(["hasse", "F4:ooox", "--box", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 7
    # One chain piece: six edges climbing the box.
    assert len(doc["edges"]) == 6


@pytest.mark.parametrize("spec", ["A2xA2:xooo", "A2xA2:oooo", "D5xA3:xoooxoxo"])
def test_hasse_box_leaves_out_point_factors(spec, capsys):
    # a component with no cross has no box, so it adds no node
    assert main(["compute", spec, "--json", "--allow-point-factors"]) == 0
    box_size = json.loads(capsys.readouterr().out)["box_size"]
    assert main(["hasse", spec, "--box", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["nodes"]) == box_size


def test_hasse_flag_erases_crossed_labels(capsys):
    assert main(["hasse", "G2:ox", "--flag", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(e["label"] != 2 for e in doc["edges"])


def test_hasse_output_file(tmp_path):
    target = tmp_path / "h.json"
    assert main(["hasse", "A1:x", "--format", "json", "-o", str(target)]) == 0
    assert target.read_bytes() == b'{"nodes":[{"coeffs":[1],"grade":1}],"edges":[]}\n'


def test_hasse_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    argv = ["hasse", "A2:xo", "--box", "--format", "json", "-o", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")
    assert not target.parent.exists()


def test_sweep_command(capsys):
    assert main(["sweep", "--max-rank", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sweep: 10 inputs, 10 passed, 0 failed")


def test_sweep_command_json(capsys):
    assert main(["sweep", "--max-rank", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["total"], doc["failed"]) == (10, 0)


def test_sweep_command_rejects_tiny_rank(capsys):
    assert main(["sweep", "--max-rank", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sweep needs max_rank >= 2, got 1\n"
    assert captured.out == ""


def test_sweep_command_reports_failure(monkeypatch, capsys):
    def broken(rank, s):
        return cominuscule_id("A", 5, 2), "broken"

    monkeypatch.setitem(verify.FAMILY_RULES, "A", broken)
    assert main(["sweep", "--max-rank", "2"]) == 1
    assert "expected-answer" in capsys.readouterr().out


def test_table_command(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert "Grassmannian of k-planes" in out
    assert "E7      7             27" in out


def _table_rows(family, rank):
    """{node: dimension} that the rows of the `table` text list for a type."""
    listed = {}
    for line in _TABLE.splitlines()[1:]:
        kind, nodes, dim, _ = re.split(r"  +", line)
        if kind not in (f"{family}_r", f"{family}{rank}"):
            continue
        # "2r-1" -> "2*r-1", "k(r+1-k)" -> "k*(r+1-k)"
        dim = re.sub(r"(?<=[\w)])(?=[a-z(])", "*", dim)
        if nodes == "any k":
            nodes = range(1, rank + 1)
        else:
            nodes = [eval(x, {"r": rank}) for x in nodes.split(" or ")]
        for k in nodes:
            listed[k] = eval(dim, {"r": rank, "k": k})
    return listed


@pytest.mark.parametrize(
    "family,rank",
    [(f, r) for r in range(4, 10) for f in _canonical_families(r)],
)
def test_table_text_agrees_with_cominuscule_id(family, rank):
    listed = _table_rows(family, rank)
    for node in range(1, rank + 1):
        if node in listed:
            assert cominuscule_id(family, rank, node).dimension == listed[node]
        else:
            with pytest.raises(NotCominusculeError):
                cominuscule_id(family, rank, node)


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cominuscule.cli", "compute", "A2:xo"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "projective space P^2" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["table"], ["compute", "E6:xooooo", "--json"]],
    ids=["table", "compute-json"],
)
def test_closed_stdout_exits_141_quietly(argv):
    # the read end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cominuscule.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_pipeline_imports_no_numpy():
    script = (
        "import sys\n"
        "from cominuscule import sweep\n"
        "from cominuscule.cli import main\n"
        "assert main(['compute', 'E7:oxooooo', '--json']) == 0\n"
        "assert main(['hasse', 'D5xA3:xoooxoxo', '--box']) == 0\n"
        "assert sweep(3).failed == 0\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


def test_import_and_text_compute_load_no_dataclasses_inspect_or_json():
    # without site, nothing but the package and what it imports is loaded
    src = os.path.dirname(os.path.dirname(verify.__file__))
    script = (
        "import os, sys\n"
        "heavy = {'dataclasses', 'inspect', 'json'}\n"
        "before = set(sys.modules)\n"
        "import cominuscule, cominuscule.cli\n"
        "print(sorted(heavy & set(sys.modules) - before))\n"
        "sys.stdout.flush()\n"
        "with open(os.devnull, 'w') as sys.stdout:\n"
        "    assert cominuscule.cli.main(['compute', 'E6:xooooo']) == 0\n"
        "print(sorted(heavy & set(sys.modules) - before), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert proc.stderr == "[]\n"


def test_compute_leaves_numpy_ma_unimported():
    # np.unique and np.isin import numpy.ma on first use, which costs every
    # CLI process about 1.7 MB of peak memory; the pipeline avoids both
    script = (
        "import runpy, sys\n"
        "sys.argv = ['cominuscule', 'compute', 'B12:oxoooooooooo', '--json']\n"
        "try:\n"
        "    runpy.run_module('cominuscule.cli', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["box_size"] == 1
    assert proc.stderr.strip() == "False"
