"""radialsolve benchmark: one seeded closed-loop workload per invocation.

    python3 bench/run.py --workload states --seed 1 --seconds 40 --trace 0
    for w in cli states oracle; do
        python3 bench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done

BENCHMARK.json lists cli, states and oracle. The spectra workload runs the
same way but is left out of it: on a shared 2-vCPU host its p90, set by
the parabolic solves, spread by 0.28 (interquartile range over median of
ten 30-s runs), more than the largest bound allowed.

Run from the repository root; the library is imported from ./src. Each
workload runs in fresh interpreters (bench/worker.py): set-up is timed
SETUP_RUNS times and the last interpreter goes on to the timed loop. With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
and the spans are written to .bench_out/. Lines before it are a readable
summary and the environment the numbers were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli", "spectra", "states", "oracle")
SETUP_RUNS = 5
OUT_DIR = ".bench_out"


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics of BENCHMARK.json."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def spawn(args, mode: str, trace_out: str | None = None):
    """Start a worker; returns (process, seconds until it printed READY)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    t0 = perf_counter()
    # its own process group, so that stop() also ends the CLI children it runs
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def stop(proc) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def finish(proc, timeout: float) -> str:
    """The worker's stdout after READY, once it has exited with code 0."""
    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "note": "baseline taken on a shared 2-vCPU VM whose speed drifts by up to 1.8x; compare runs made close together",
    }


def git_sha() -> str:
    """HEAD of ./.git when the checkout has one (read directly, no git call)."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "radialsolve", "__init__.py")):
        print("bench: src/radialsolve not found; run from the repository root", file=sys.stderr)
        return 2

    procs = []
    try:
        if args.trace:
            trace_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            proc, _ = spawn(args, "trace", trace_out)
            procs.append(proc)
            result = json.loads(finish(proc, 150).strip().splitlines()[-1])
        else:
            setups = []
            for _ in range(SETUP_RUNS - 1):
                proc, ready = spawn(args, "setup")
                procs.append(proc)
                finish(proc, 60)
                setups.append(ready)
            proc, ready = spawn(args, "run")
            procs.append(proc)
            setups.append(ready)
            result = json.loads(finish(proc, 150).strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc!r}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            stop(proc)

    attempted = max(result["ops"], 1)
    if args.trace:
        values = result["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": result["ops_per_s"],
            "op_ms_p50": result["op_ms_p50"],
            "op_ms_p90": result["op_ms_p90"],
            # share of ops that returned and matched the reference; the
            # fail ratio is 1 minus this, and "failed" below counts them
            "ok_ratio": 1.0 - result["failed"] / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"ops={result['ops']} failed={result['failed']} fail_ratio={result['failed'] / attempted:.6g}")
    if not args.trace:
        print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
        print(f"# op_ms_p50 and op_ms_p90 from {result['samples']} timed ops")
    else:
        print(f"# traced ops={result['traced_ops']} spans={result['spans']} -> {trace_out}")
        if result["missing_entry_points"]:
            print(f"# entry points not found: {result['missing_entry_points']}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for name, m in metrics.items():
        print(f"# {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
