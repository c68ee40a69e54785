"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

workloads = bench.load_package()

import cominuscule as C  # noqa: E402

TINY = {
    "sweep": workloads.Sweep(max_rank=4),
    "cli_cold": workloads.CliCold(
        round=(("compute-json", "E6"), ("compute", "A2xA1"), ("box", "D5"))
    ),
}
DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_reports_every_metric(name, trace):
    result, context = bench.measure(TINY[name], seed=3, seconds=0.01, trace=trace)
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(m["value"] > 0 for k, m in result["metrics"].items()
               if k != "trace_overhead_frac")
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and context["fail_frac"] == 0
    assert result["correct"] is True


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(
        workloads.WORKLOADS
    )


def test_sweep_size_is_the_sweep_input_count():
    assert workloads.sweep_size(9) == 4499
    assert workloads.sweep_size(4) == sum(
        2**t.total_rank - 1 for t in C.sweep_inputs(4)
    )


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.inputs(7) == w.inputs(7)
    cli = workloads.WORKLOADS["cli_cold"]
    assert cli.inputs(7) != cli.inputs(8)


@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
def test_export_node_count_reads_every_format(fmt):
    h = C.hasse(C.build_root_system(C.diagram_type(("E", 6))))
    data = C.export(h, fmt).decode()
    assert workloads.export_node_count(data, fmt) == len(h.nodes) == 36


def test_cli_check_rejects_a_wrong_answer(tmp_path):
    call = workloads.CliCall("box", (("E", 6),), (True,) + (False,) * 5, "json")
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"nodes": [{}] * 15, "edges": []}))
    assert workloads.check_cli(call, 0, "", path) == ["15 box nodes, expected dimension 16"]
    path.write_text(json.dumps({"nodes": [{}] * 16, "edges": []}))
    assert workloads.check_cli(call, 0, "", path) == []
    assert workloads.check_cli(call, 2, "", path) == ["exit code 2"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
