"""Tests of the benchmark itself: its checks, its output, its refusals.

Run from the repository root with ``python3 -m pytest perfbench``. Every
workload runs at reduced size on seed 7, a seed the benchmark was not tuned
on, and every correctness check is shown to trip on a corrupted output.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from enrichedfp import _kernels  # noqa: E402
from enrichedfp.mappings import Mapping  # noqa: E402

SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pass(name, tmp_path, seed=SEED):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed, "small", tmp_path / "inputs")
    outdir = tmp_path / "out"
    outdir.mkdir()
    return workload, inputs, workload.run(inputs, outdir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_workload_passes_its_checks(name, tmp_path):
    workload, inputs, outputs = _pass(name, tmp_path)
    results = workload.check(inputs, outputs)
    assert len(results) == len(workload.ops)
    assert results == [[] for _ in workload.ops]


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a = workloads.build_certify(SEED, "small", tmp_path)
    b = workloads.build_certify(SEED, "small", tmp_path)
    c = workloads.build_certify(SEED + 1, "small", tmp_path)
    assert np.array_equal(a["matrix"], b["matrix"])
    assert np.array_equal(a["sample"].points, b["sample"].points)
    assert not np.array_equal(a["matrix"], c["matrix"])


def _failed_ops(workload, inputs, outputs):
    return [op for op, fails in zip(workload.ops, workload.check(inputs, outputs)) if fails]


def test_certify_gate_trips_on_a_wrong_rate(tmp_path):
    workload, inputs, outputs = _pass("certify_5d", tmp_path)
    cert = outputs["kannan"]
    outputs["kannan"] = dataclasses.replace(cert, rate=cert.rate * (1.0 - 1e-9))
    assert _failed_ops(workload, inputs, outputs) == ["estimate_kannan"]
    outputs["kannan"] = dataclasses.replace(cert, k=0.0)
    assert _failed_ops(workload, inputs, outputs) == ["estimate_kannan"]


def test_rotation_gate_trips_on_a_changed_csv_digit(tmp_path):
    workload, inputs, outputs = _pass("solve_rotation_20d", tmp_path)
    lines = outputs["csv"].read_text().splitlines(keepends=True)
    row = lines[5].split(",")
    first = float(row[1].split(";")[0])
    row[1] = ";".join(["%.17g" % np.nextafter(first, np.inf)] + row[1].split(";")[1:])
    lines[5] = ",".join(row)
    outputs["csv"].write_text("".join(lines))
    assert _failed_ops(workload, inputs, outputs) == ["write_trace_csv"]


def test_rotation_gate_trips_on_an_early_stop(tmp_path):
    workload, inputs, outputs = _pass("solve_rotation_20d", tmp_path)
    trace = outputs["trace"]
    trace.iterates[-1] = trace.iterates[len(trace.iterates) // 2]
    assert "krasnoselskij" in _failed_ops(workload, inputs, outputs)


def test_apps_gate_trips_on_an_infeasible_point(tmp_path):
    workload, inputs, outputs = _pass("apps_30d", tmp_path)
    outputs["sfp"].point = outputs["sfp"].point + 1e-3
    outputs["vip"].point = outputs["vip"].point + 1e-3
    assert _failed_ops(workload, inputs, outputs) == ["solve_sfp", "solve_vip"]


def test_cli_gate_trips_on_exit_code_and_changed_output(tmp_path):
    workload, inputs, outputs = _pass("cli_catalog", tmp_path)
    assert _failed_ops(workload, inputs, outputs) == []
    summary = outputs["outdir"] / "cmd1" / "summary.json"
    payload = json.loads(summary.read_text())
    payload["kannan_k"] = payload["kannan_k"] + 1.0
    summary.write_text(json.dumps(payload))
    outputs["codes"][6] = 4
    assert _failed_ops(workload, inputs, outputs) == ["certify reflection", "vip vip_line"]


def test_tracer_restores_the_package_and_counts_kernel_pairs(tmp_path):
    original = _kernels.ratio_sup, Mapping.apply
    tracer = tracing.Tracer(alloc=True)
    workload = workloads.WORKLOADS["certify_5d"]
    with tracer.installed():
        with tracer.root("setup"):
            inputs = workload.build(SEED, "small", tmp_path)
        with tracer.root("pass"):
            workload.run(inputs, tmp_path)
    assert (_kernels.ratio_sup, Mapping.apply) == original
    metrics, wall = tracing.per_layer_metrics(tracer.spans)
    n = inputs["sample"].size
    assert metrics["kernels.ratio_sup.calls"] == 16
    assert metrics["kernels.violation_max.calls"] == 2
    assert metrics["kernels.pairs"] == 18 * n * (n - 1)
    assert metrics["certify.sweeps_per_estimate"] == 9
    assert metrics["kernels.peak_alloc_mb"] > 0.0
    assert wall > 0.0
    assert 0.99 < sum(metrics[f"{layer}.self_frac"] for layer in (*tracing.LAYERS, "pass")) < 1.01


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace, group",
    [("cli_catalog", "0", "end_to_end"), ("solve_rotation_20d", "1", "per_layer")],
)
def test_run_prints_every_metric_of_its_group(workload, trace, group):
    proc = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", trace, "--size", "small"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[group]]
    for m in SPEC[group]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "fail_frac" in proc.stdout and "iterations" in proc.stdout


def test_run_refuses_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "cli_catalog", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
