"""Command-line interface.

Diagram specs look like "B4:oxoo" or "A2xA1:xox": component list, colon,
then one x/o per node in Bourbaki numbering.  Subcommands: compute (run the
pipeline), hasse (emit diagrams), sweep (exhaustive verification), table
(print the classification table).  Exit codes: 0 success, 1 verification
failure, 2 usage error, 141 (128 + SIGPIPE) when stdout is closed before the
output is written, as in `cominuscule table | head -1`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .classify import CominusculeId, classify_cominuscule
from .errors import CominusculeError, InvalidDiagramError
from .grading import Decoration, GradedRootSystem, box_union, grade_diagram
from .hasse import export, flag_hasse, hasse, highest_component, restrict
from .rootsys import (
    Component,
    DiagramType,
    build_root_system,
    normalize_component,
)
from .subsystem import associated_diagram
from .verify import sweep

# Carter node i of a component = Bourbaki node CARTER_TO_BOURBAKI[...][i-1].
# Only the exceptional families are numbered differently; classical families
# and G2 agree. Each E row walks the longest arm in to the trivalent node 4,
# then takes the one-node arm (node 2), then walks out the remaining arm.
CARTER_TO_BOURBAKI = {
    ("E", 6): (1, 3, 4, 2, 5, 6),
    ("E", 7): (7, 6, 5, 4, 2, 3, 1),
    ("E", 8): (8, 7, 6, 5, 4, 2, 3, 1),
    ("F", 4): (1, 2, 3, 4),
}

_COMPONENT_RE = re.compile(r"([A-G])([0-9]+)")


def parse_spec(text: str, numbering: str = "bourbaki") -> tuple[DiagramType, Decoration]:
    """Parse "<Family><rank>(x<Family><rank>)*:<decoration>"."""
    head, sep, dec_text = text.partition(":")
    if not sep:
        raise InvalidDiagramError(
            f"missing ':' in {text!r}; expected e.g. B4:oxoo"
        )
    matches = []
    for part in head.split("x"):
        m = _COMPONENT_RE.fullmatch(part)
        if not m:
            raise InvalidDiagramError(
                f"bad component {part!r} in {head!r}; expected a family letter"
                " A-G followed by a rank"
            )
        matches.append(m)

    # the ranks must add up to the decoration length, so none is read or
    # built past it, however many digits it was typed with
    length = len(dec_text)
    digits = [m.group(2).lstrip("0") or "0" for m in matches]
    if any(len(d) > len(str(length)) for d in digits):
        raise InvalidDiagramError(
            f"decoration {dec_text!r} has length {length}, too short for {head}"
        )
    raw_pairs = [(m.group(1), int(d)) for m, d in zip(matches, digits)]
    total = sum(rank for _, rank in raw_pairs)
    if total > length:
        raise InvalidDiagramError(
            f"decoration {dec_text!r} has length {length},"
            f" expected {total} for {head}"
        )

    comps: list[Component] = []
    perms: list[tuple[int, ...]] = []
    for fam, rank in raw_pairs:
        comp, perm = normalize_component(fam, rank)
        comps.append(comp)
        perms.append(perm)
    dtype = DiagramType(tuple(comps))

    raw = Decoration.from_string(dec_text)
    if len(raw.crossed) != dtype.total_rank:
        raise InvalidDiagramError(
            f"decoration {dec_text!r} has length {len(raw.crossed)},"
            f" expected {dtype.total_rank} for {head}"
        )

    marks = [False] * dtype.total_rank
    offset = 0
    for (fam, rank), comp, perm in zip(raw_pairs, comps, perms):
        if numbering == "carter":
            carter = CARTER_TO_BOURBAKI.get((fam, rank))
            if carter is not None:
                perm = tuple(b - 1 for b in carter)
        for i, p in enumerate(perm):
            marks[offset + p] = raw.crossed[offset + i]
        offset += comp.rank
    return dtype, Decoration(tuple(marks))


def render_spec(dtype: DiagramType, decoration: Decoration) -> str:
    return f"{dtype}:{decoration}"


def render_diagram(dtype: DiagramType, decoration: Decoration) -> str:
    """Linear ASCII art: x/o nodes, - single edges, => and <# toward the
    short root, fork and branch nodes parenthesized."""
    parts = []
    offset = 0
    for comp in dtype.components:
        n = ["x" if decoration.crossed[offset + i] else "o" for i in range(comp.rank)]
        r = comp.rank
        if comp.family == "A":
            art = "-".join(n)
        elif comp.family == "B":
            art = "-".join(n[: r - 1]) + "=>" + n[r - 1]
        elif comp.family == "C":
            art = "-".join(n[: r - 1]) + "<=" + n[r - 1]
        elif comp.family == "D":
            art = "-".join(n[: r - 2]) + f"(-{n[r - 2]})(-{n[r - 1]})"
        elif comp.family == "E":
            art = f"{n[0]}-{n[2]}-{n[3]}(-{n[1]})-" + "-".join(n[4:])
        elif comp.family == "F":
            art = f"{n[0]}-{n[1]}=>{n[2]}-{n[3]}"
        else:  # G2: node 1 short
            art = f"{n[0]}<#{n[1]}"
        parts.append(art)
        offset += comp.rank
    return "  x  ".join(parts)


def _add_spec(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", help="diagram spec, e.g. B4:oxoo or A2xA1:xox")
    p.add_argument(
        "--numbering",
        choices=("bourbaki", "carter"),
        default="bourbaki",
        help="node numbering used by the decoration string (affects E/F only)",
    )


def cmd_compute(args: argparse.Namespace) -> int:
    """Build one result record and print it as JSON or as text."""
    dtype, decoration = parse_spec(args.spec, args.numbering)
    graded = grade_diagram(
        dtype, decoration, allow_point_factors=args.allow_point_factors
    )
    dropped = [str(dtype.components[i]) for i in graded.point_components]
    record = {
        "input": {"type": str(dtype), "decoration": str(decoration)},
        "associated": None,
        "components": [],
        "box_size": 0,
        "node_embedding": [],
        "dropped_point_factors": dropped,
    }
    if any(decoration.crossed):
        dd = associated_diagram(graded)
        record.update(
            associated={
                "type": str(dd.dtype),
                "decoration": str(dd.decoration),
                "diagram": render_diagram(dd.dtype, dd.decoration),
            },
            components=[c._asdict() for c in classify_cominuscule(dd)],
            box_size=len(box_union(graded)),
            node_embedding=[list(r) for r in dd.node_embedding],
        )

    if args.json:
        import json

        print(json.dumps(record, indent=2))
        return 0
    print(f"input: {render_spec(dtype, decoration)}")
    assoc = record["associated"]
    if assoc is None:
        print("point factor only; the associated variety is a single point")
        return 0
    print(f"       {render_diagram(dtype, decoration)}")
    if dropped:
        print(f"dropped point factors: {', '.join(dropped)}")
    print(f"associated: {assoc['type']}:{assoc['decoration']}")
    print(f"       {assoc['diagram']}")
    for c in record["components"]:
        print(CominusculeId(**c))
    print(f"box size: {record['box_size']}")
    for i, root in enumerate(record["node_embedding"]):
        print(f"node {i + 1} = {tuple(root)}")
    return 0


def cmd_hasse(args: argparse.Namespace) -> int:
    dtype, decoration = parse_spec(args.spec, args.numbering)
    rs = build_root_system(dtype)
    if args.which == "full":
        h = hasse(rs)
    else:
        graded = GradedRootSystem(rs, decoration, allow_point_factors=True)
        h = flag_hasse(graded)
        if args.which == "box":
            # a point factor has no box; its highest root's piece is all of it
            union: set = set()
            for ci, part in enumerate(highest_component(h, graded)):
                if ci not in graded.point_components:
                    union |= part
            h = restrict(h, frozenset(union))
    data = export(h, args.format)
    if args.output:
        try:
            with open(args.output, "wb") as f:
                f.write(data)
        except OSError as exc:
            raise CominusculeError(
                f"cannot write {args.output}: {exc.strerror or exc}"
            ) from exc
    else:
        sys.stdout.write(data.decode())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    report = sweep(args.max_rank)
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.ok else 1


_TABLE = """\
family  crossed node  dimension  variety
A_r     any k         k(r+1-k)   Grassmannian of k-planes in C^{r+1}
B_r     1             2r-1       quadric hypersurface Q^{2r-1} in P^{2r}
C_r     r             r(r+1)/2   space of Lagrangian r-planes in C^{2r}
D_r     1             2r-2       quadric hypersurface Q^{2r-2} in P^{2r-1}
D_r     r-1 or r      r(r-1)/2   space of null r-planes in C^{2r}
E6      1 or 6        16         complexified octave projective plane
E7      7             27         space of null octave 3-planes in octave 6-space"""


def cmd_table(args: argparse.Namespace) -> int:
    print(_TABLE)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cominuscule",
        description="Associated cominuscule subvarieties of flag varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="run the pipeline on one diagram")
    _add_spec(p)
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument(
        "--allow-point-factors",
        action="store_true",
        help="drop components with no crossed node instead of erroring",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("hasse", help="emit a Hasse diagram")
    _add_spec(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--full", dest="which", action="store_const", const="full",
        help="all positive roots, all edges (default)",
    )
    group.add_argument(
        "--flag", dest="which", action="store_const", const="flag",
        help="erase edges labeled by crossed nodes",
    )
    group.add_argument(
        "--box", dest="which", action="store_const", const="box",
        help="flag diagram restricted to the highest-root components",
    )
    p.set_defaults(which="full")
    p.add_argument("--format", choices=("text", "dot", "json"), default="text")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser(
        "sweep",
        help="verify the classification exhaustively",
        description="The types run in one process per available CPU;"
        " the report is the same for any number of CPUs.",
    )
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--json", action="store_true", help="structured report")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table", help="print the cominuscule classification table")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CominusculeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit
        # does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
