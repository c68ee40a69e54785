"""The benchmark's workloads: inputs made from a seed, timed passes, checks.

Each workload is a frozen dataclass whose fields set its size, so the smoke
test can run the same code on tiny inputs.  `inputs(seed)` makes the inputs
and `run(...)` measures them, checking every answer along the way:

- `Sweep`: in-process `sweep(max_rank)` with cold caches, the package's
  headline check.  Its inputs are every decoration of every irreducible type
  in range, so the seed does not change them.
- `CliCold`: one fresh `python -m cominuscule.cli` process after another (a
  closed loop with one client), which is what a shell user pays per call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import cominuscule as C

from tracer import GRADING_INIT, Tracer, module, traced

# Per-layer metric -> spans whose self time it sums.
LAYER_SPANS = {
    "rootsys.build_s": ("rootsys.build_root_system",),
    "grading.grade_s": ("grading.grade_diagram", GRADING_INIT),
    "grading.box_s": ("grading.box_union", "grading.box"),
    "subsystem.generate_s": ("subsystem.generate_subsystem",),
    "subsystem.direct_s": ("subsystem.direct_subsystem",),
    "subsystem.decorate_s": ("subsystem.decorated_diagram",),
    "subsystem.perp_s": ("subsystem.perpendicular_compacts",),
    "classify.recognize_s": ("classify.recognize_labelings",),
    "classify.table_s": ("classify.classify_cominuscule",),
    "hasse.full_build_s": ("hasse.hasse",),
    "hasse.flag_s": ("hasse.flag_hasse",),
    "hasse.highest_s": ("hasse.highest_component",),
    "hasse.export_s": ("hasse.export",),
    "verify.expected_s": ("verify.expected_answer",),
    "verify.self_s": ("verify.sweep",),
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    context: dict = field(default_factory=dict)

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: the checkout's src/ comes first."""
    src = str(root / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def cold_caches() -> None:
    module("rootsys")._build.cache_clear()
    module("hasse")._full_hasse.cache_clear()
    gc.collect()


def p75(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def repeat(one_pass, seconds: float) -> None:
    """Call one_pass until a further call would likely end after `seconds`."""
    start = perf_counter()
    durations: list[float] = []
    while True:
        t0 = perf_counter()
        one_pass()
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one pass; a layer the pass never called is absent."""
    times = tracer.self_times()
    out = {
        metric: sum(times[name][1] for name in names if name in times)
        for metric, names in LAYER_SPANS.items()
        if any(name in times for name in names)
    }
    if GRADING_INIT in times:
        out["grading.calls"] = times[GRADING_INIT][0]
    out.update(tracer.counts)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}


def positive_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[
        family, rank
    ]


def expected_ids(components, crossed) -> list:
    """Closed-form answer per component, from the rule tables in verify."""
    ids, start = [], 0
    for family, rank in components:
        dec = C.Decoration(tuple(crossed[start : start + rank]))
        ids.extend(C.expected_answer(C.diagram_type((family, rank)), dec).expected)
        start += rank
    return ids


def random_crosses(rng: random.Random, rank: int) -> tuple[bool, ...]:
    while True:
        crossed = tuple(rng.random() < 0.5 for _ in range(rank))
        if any(crossed):
            return crossed


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_size(max_rank: int) -> int:
    """Number of sweep inputs, counted without the package."""
    ranks = list(range(1, max_rank + 1))  # A
    ranks += range(2, max_rank + 1)  # B (C2 is B2)
    ranks += range(3, max_rank + 1)  # C
    ranks += range(4, max_rank + 1)  # D
    ranks += [r for r in (6, 7, 8, 4, 2) if r <= max_rank]  # E6 E7 E8 F4 G2
    return sum(2**r - 1 for r in ranks)


@dataclass(frozen=True)
class Sweep:
    max_rank: int = 9

    def inputs(self, seed: int) -> dict:
        return {"max_rank": self.max_rank, "inputs": sweep_size(self.max_rank)}

    def run(self, inputs: dict, seconds: float, trace: bool, root: Path) -> Outcome:
        out = Outcome(context={"inputs": inputs})
        want = inputs["inputs"]

        def one_pass(tracer: Tracer | None) -> float:
            cold_caches()
            with traced(tracer) if tracer else contextlib.nullcontext():
                t0 = perf_counter()
                try:
                    report = C.sweep(self.max_rank)
                except Exception:
                    traceback.print_exc()
                    report = None
                elapsed = perf_counter() - t0
            out.attempted += want
            if report is None:
                out.failed += want
            else:
                out.failed += report.failed + abs(want - report.total)
                if report.failed or report.total != want:
                    print(report.to_text(), file=sys.stderr)
            return elapsed

        plain: list[float] = []
        out.context["op_ms"] = plain
        if not trace:
            repeat(lambda: plain.append(1000 * one_pass(None)), seconds)
            out.metrics = {
                "op_p50_ms": statistics.median(plain),
                "op_p75_ms": p75(plain),
                "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
            }
            return out
        # alternate plain and traced passes: per-layer medians and the overhead
        timed: list[float] = []
        per_pass: list[dict[str, float]] = []

        def pair() -> None:
            plain.append(1000 * one_pass(None))
            tracer = Tracer()
            timed.append(1000 * one_pass(tracer))
            per_pass.append(layer_metrics(tracer))

        repeat(pair, seconds)
        out.metrics = median_metrics(per_pass)
        out.metrics["trace_overhead_frac"] = (
            statistics.median(timed) / statistics.median(plain) - 1
        )
        return out


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

# One round of CLI calls: (kind, type).  The types are fixed so that every
# seed pays for the same root-system builds; the seed picks the decorations,
# the export formats and the order.  Ranks go up to 12 because a cold build
# of B12 or D12 is what makes the slowest calls slow.
CLI_ROUND = (
    ("compute", "A7"), ("compute", "C9"), ("compute", "D10"), ("compute", "E6"),
    ("compute", "F4"), ("compute", "G2"), ("compute", "B12"),
    ("compute-json", "B6"), ("compute-json", "A11"), ("compute-json", "D12"),
    ("compute-json", "E7"), ("compute-json", "E8"), ("compute-json", "C12"),
    ("compute-json", "A2xA1"), ("compute", "B3xA2"), ("compute-json", "D5xA3"),
    ("box", "E6"), ("box", "D8"), ("box", "A9"), ("box", "B10"), ("box", "E7"),
    ("flag", "C7"), ("flag", "E8"), ("flag", "A6"),
)
EXPORT_FORMATS = ("json", "dot", "text")
_COMPONENT = re.compile(r"([A-G])([0-9]+)")


@dataclass(frozen=True)
class CliCall:
    kind: str  # "compute", "compute-json", "box" or "flag"
    components: tuple[tuple[str, int], ...]
    crossed: tuple[bool, ...]
    fmt: str = ""  # export format of a hasse call

    @property
    def spec(self) -> str:
        head = "x".join(f"{f}{r}" for f, r in self.components)
        return head + ":" + "".join("x" if c else "o" for c in self.crossed)

    def argv(self, output) -> list[str]:
        if self.kind == "compute":
            return ["compute", self.spec]
        if self.kind == "compute-json":
            return ["compute", self.spec, "--json"]
        return ["hasse", self.spec, f"--{self.kind}", "--format", self.fmt,
                "-o", str(output)]


def export_node_count(data: str, fmt: str) -> int:
    if fmt == "json":
        return len(json.loads(data)["nodes"])
    if fmt == "dot":
        return sum(
            line.count('"') // 2 for line in data.splitlines()
            if line.startswith("{ rank=same;")
        )
    return sum(
        line.count("(") for line in data.splitlines() if line.startswith("height ")
    )


def check_cli(call: CliCall, code: int, stdout: str, output: Path) -> list[str]:
    """What is wrong with one CLI call's answer; empty when it is right."""
    if code != 0:
        return [f"exit code {code}"]
    if call.kind == "flag":
        want = sum(positive_root_count(f, r) for f, r in call.components)
        got = export_node_count(output.read_text(), call.fmt)
        return [] if got == want else [f"{got} nodes, expected {want} positive roots"]
    ids = expected_ids(call.components, call.crossed)
    if call.kind == "box":
        want = sum(c.dimension for c in ids)
        got = export_node_count(output.read_text(), call.fmt)
        return [] if got == want else [f"{got} box nodes, expected dimension {want}"]
    if call.kind == "compute-json":
        got = [
            (c["family"], c["rank"], c["crossed_node"], c["dimension"])
            for c in json.loads(stdout)["components"]
        ]
        want = [c.key() for c in ids]
        return [] if got == want else [f"answer {got}, rules give {want}"]
    missing = [str(c) for c in ids if str(c) not in stdout.splitlines()]
    return [f"missing line {m!r}" for m in missing]


@dataclass(frozen=True)
class CliCold:
    round: tuple[tuple[str, str], ...] = CLI_ROUND

    def inputs(self, seed: int) -> list[CliCall]:
        rng = random.Random(seed)
        calls = []
        for kind, head in self.round:
            components = tuple((f, int(r)) for f, r in _COMPONENT.findall(head))
            crossed = sum((random_crosses(rng, r) for _, r in components), ())
            fmt = rng.choice(EXPORT_FORMATS) if kind in ("box", "flag") else ""
            calls.append(CliCall(kind, components, crossed, fmt))
        rng.shuffle(calls)
        return calls

    def run(self, calls, seconds: float, trace: bool, root: Path) -> Outcome:
        out = Outcome(context={"inputs": [" ".join(c.argv("FILE")) for c in calls]})
        env = child_env(root)
        process_ms: list[float] = []
        with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=root) as tmp:
            files = [Path(tmp, f"{i}.{c.fmt}") for i, c in enumerate(calls)]

            def processes() -> list[float]:
                elapsed = []
                for call, path in zip(calls, files):
                    argv = [sys.executable, "-m", "cominuscule.cli", *call.argv(path)]
                    t0 = perf_counter()
                    try:
                        proc = subprocess.run(
                            argv, env=env, cwd=root, capture_output=True,
                            text=True, timeout=120,
                        )
                        problems = check_cli(call, proc.returncode, proc.stdout, path)
                    except subprocess.TimeoutExpired:
                        problems = ["timed out"]
                    elapsed.append(1000 * (perf_counter() - t0))
                    out.record(problems, " ".join(argv[3:]))
                process_ms.extend(elapsed)
                return elapsed

            def main_calls(tracer: Tracer | None) -> list[float]:
                cli = module("cli")
                elapsed = []
                for call, path in zip(calls, files):
                    cold_caches()
                    stdout = io.StringIO()
                    with traced(tracer) if tracer else contextlib.nullcontext():
                        with contextlib.redirect_stdout(stdout):
                            t0 = perf_counter()
                            try:
                                code = cli.main(call.argv(path))
                            except Exception:
                                traceback.print_exc()
                                code = -1  # a crash fails the call's check
                            elapsed.append(1000 * (perf_counter() - t0))
                    out.record(check_cli(call, code, stdout.getvalue(), path),
                               f"in-process {call.spec}")
                return elapsed

            if not trace:
                repeat(processes, seconds)
                out.metrics = {
                    "op_p50_ms": statistics.median(process_ms),
                    "op_p75_ms": p75(process_ms),
                    "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
                }
            else:
                main_ms: list[float] = []
                gaps: list[float] = []
                overhead: list[float] = []
                per_round: list[dict[str, float]] = []

                def one_round() -> None:
                    procs = processes()
                    plain = main_calls(None)
                    tracer = Tracer()
                    timed = main_calls(tracer)
                    main_ms.extend(plain)
                    gaps.extend(p - m for p, m in zip(procs, plain))
                    overhead.append(sum(timed) / sum(plain) - 1)
                    per_round.append(layer_metrics(tracer))

                repeat(one_round, seconds)
                out.metrics = median_metrics(per_round)
                out.metrics["trace_overhead_frac"] = statistics.median(overhead)
                out.metrics["cli.main_ms"] = statistics.median(main_ms)
                out.metrics["cli.process_overhead_ms"] = statistics.median(gaps)
        out.context["op_ms"] = process_ms
        return out


WORKLOADS = {"sweep": Sweep(), "cli_cold": CliCold()}
