"""Benchmark of the cominuscule package, one workload per run.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload sweep --seed 1 --seconds 60 --trace 0

Workloads are `sweep` and `cli_cold` (see README.md).  With
`--trace 0` the run reports the end-to-end metrics named in BENCHMARK.json;
with `--trace 1` a traced run reports the per-layer metrics.  Every metric is
printed by name with its unit, then the run context, and the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  The package is imported from the checkout's `src/`;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
UNITS_BY_SUFFIX = (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"),
                   ("_frac", "ratio"))


class MissingSource(Exception):
    pass


def load_package():
    """Import the package from the checkout's src/, not from anywhere else."""
    if not (SRC / "cominuscule" / "__init__.py").is_file():
        raise MissingSource(f"no package source under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import cominuscule

    if Path(cominuscule.__file__).resolve().parent != (SRC / "cominuscule").resolve():
        raise MissingSource(f"cominuscule was imported from {cominuscule.__file__}")
    import workloads

    return workloads


def setup_seconds(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing the package, numpy
    included: the start-up every CLI call pays."""
    cmd = [sys.executable, "-c", "import cominuscule"]
    # untimed first import: writes the bytecode of a fresh checkout
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def unit_of(name: str, declared: dict[str, str]) -> str:
    if name in declared:
        return declared[name]
    return next((u for suffix, u in UNITS_BY_SUFFIX if name.endswith(suffix)), "count")


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, context).  Assumes load_package."""
    import numpy
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    inputs = workload.inputs(seed)
    if not trace:
        setup = setup_seconds(workloads.child_env(ROOT))
    out = workload.run(inputs, seconds, trace, ROOT)
    if not trace:
        out.metrics["setup_s"] = setup
        out.context["setup_runs"] = SETUP_RUNS
    context = {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "fail_frac": out.failed / out.attempted if out.attempted else 1.0,
        "op_samples": len(out.context.get("op_ms", ())),
        "all_metrics": {
            name: {"value": value, "unit": unit_of(name, units)}
            for name, value in out.metrics.items()
        },
        **out.context,
    }
    result = {
        "correct": out.attempted > 0 and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    return result, context


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = load_package()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, context = measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    for name, m in context["all_metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {context['fail_frac']:.6g} ratio"
          f" ({result['failed']} of {result['attempted']})")
    print("context: " + json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
