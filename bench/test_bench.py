"""Self-tests of the benchmark itself: python3 -m pytest bench -q

They check that a seed fixes the op list, that a wrong result is counted
as a failure, that tracing leaves results unchanged, that the printed
metrics match BENCHMARK.json, and that the benchmark refuses to run
without the library sources.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

IN_PROCESS = ("spectra", "states", "oracle")


def make(name):
    return workloads.Cli(ROOT) if name == "cli" else workloads.WORKLOADS[name]()


def first_ops(name, seed, count):
    return list(itertools.islice(make(name).ops(seed), count))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_op_list(name):
    assert first_ops(name, 11, 300) == first_ops(name, 11, 300)
    assert first_ops(name, 11, 300) != first_ops(name, 12, 300)


def test_mix_shares_are_equal_per_cycle():
    ops = first_ops("spectra", 3, 500)
    counts = {f: sum(op[0] == f for op in ops) for f in workloads.Spectra.families}
    assert set(counts.values()) == {100}


def _planted(name, op, result):
    """The op's result with one value made wrong by a small amount."""
    if name == "spectra":
        return dataclasses.replace(result, value=result.value * (1 + 1e-5))
    if name == "states":
        wf, level, samples = result
        return dataclasses.replace(wf, amplitude=wf.amplitude * 1.001), level, samples
    if name == "oracle":
        return result + 2e-3 * max(1.0, abs(result))
    code, stdout, stderr = result
    scaled = re.sub(rb"-?\d+\.\d+(?:e-?\d+)?", lambda m: repr(float(m[0]) * 1.001).encode(), stdout)
    return code, scaled, stderr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_wrong_value_is_counted_as_failure(name):
    workload = make(name)
    call = workload.run_in_process if name == "cli" else workload.run
    ops = first_ops(name, 5, 6)
    clean = _loop(workload, ops, call)
    assert clean["failed"] == 0, clean["failures"]
    fresh = make(name)
    bad = _loop(fresh, ops, lambda op: _planted(name, op, call(op)))
    assert bad["failed"] == len(ops), bad["failures"]


def _loop(workload, ops, call):
    latencies, failures = [], []
    for op in ops:
        latency, problem = worker.one_op(workload, call, op)
        latencies.append(latency)
        if problem is not None:
            failures.append(problem)
    return worker.summarize({"latencies": latencies, "failures": failures})


def _values(name, result):
    if name == "spectra":
        return (result.value, result.d_at_solution, result.iterations)
    if name == "states":
        wf, level, samples = result
        return (level.value, wf.amplitude, [(s.r, s.value) for s in samples])
    return result


@pytest.mark.parametrize("name", IN_PROCESS + ("cli",))
def test_traced_and_untraced_results_are_identical(name):
    workload = make(name)
    call = workload.run_in_process if name == "cli" else workload.run
    ops = first_ops(name, 9, 12 if name != "cli" else 40)
    untraced = [_values(name, call(op)) for op in ops]
    tracer = Tracer()
    assert tracer.install() == []
    try:
        traced = [_values(name, tracer.run_op(call, op)) for op in ops]
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracer.metrics()
    assert metrics["spectrum.solves"] > 0 or name == "oracle"
    assert metrics["oracles.eigen_ms"] > 0 or name != "oracle"


def test_uninstall_restores_every_entry_point():
    import radialsolve.quadrature as quadrature
    import radialsolve.wavefunctions as wavefunctions

    before = (quadrature.adaptive_integral, wavefunctions.adaptive_integral, quadrature.eval_effective)
    tracer = Tracer()
    tracer.install()
    assert wavefunctions.adaptive_integral is not before[1]
    tracer.uninstall()
    assert (quadrature.adaptive_integral, wavefunctions.adaptive_integral, quadrature.eval_effective) == before


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ("0", "1"))
def test_printed_metrics_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _run(ROOT, "--workload", "spectra", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", "spectra", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
