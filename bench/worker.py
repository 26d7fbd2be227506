"""One workload in a fresh interpreter; started by run.py, not by hand.

It sets up (imports radialsolve, makes the seeded op stream, runs one
warm-up op), prints READY, and then, by mode:

* ``setup``: exits, so that run.py can time set-up alone;
* ``run``: runs the closed loop untraced for the given seconds;
* ``trace``: runs the loop untraced and then traced for a share of the
  seconds each, writes the spans, and adds the micro and fresh-process rows.

The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the source path above)

# share of --seconds given to each of the untraced and traced loops in a
# traced run; the micro and fresh-process rows take most of the rest
TRACE_LOOP_SHARE = 0.35
WARMUP_SEED = 0


def closed_loop(workload, ops, seconds: float, call) -> dict:
    """Ops back to back until ``seconds`` have passed or ``ops`` runs out;
    each op is checked against the reference."""
    latencies: list[float] = []
    failures: list[str] = []
    deadline = perf_counter() + seconds
    for op in ops:
        if perf_counter() >= deadline:
            break
        latency, problem = one_op(workload, call, op)
        latencies.append(latency)
        if problem is not None:
            failures.append(f"{op}: {problem}")
    return {"latencies": latencies, "failures": failures}


def one_op(workload, call, op) -> tuple[float, str | None]:
    """Latency of call(op), and why its result missed the reference, if it did."""
    t0 = perf_counter()
    try:
        result = call(op)
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        return perf_counter() - t0, f"raised {exc!r}"
    latency = perf_counter() - t0
    return latency, workload.check(op, result)


def summarize(loop: dict) -> dict:
    lat = loop["latencies"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    return {
        "ops": len(lat),
        "samples": len(lat),
        "failed": len(loop["failures"]),
        "failures": loop["failures"][:5],
        # throughput of the library calls alone: the reference checks run
        # between ops and are left out
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": deciles[4] * 1e3,
        "op_ms_p90": deciles[8] * 1e3,
    }


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(ROOT) if args.workload == "cli" else cls()
    # the same warm-up op for every seed, so that set-up time does not
    # depend on which op a seed happens to draw first
    op = next(workload.ops(WARMUP_SEED))
    _, warm_problem = one_op(workload, workload.run, op)
    stream = workload.ops(args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        loop = closed_loop(workload, stream, args.seconds, workload.run)
        result = summarize(loop)
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
    else:
        result = trace(args, workload, stream)
    result["ops"] += 1  # the warm-up op is checked like the others
    if warm_problem is not None:
        result["failed"] += 1
        result["failures"].insert(0, f"warm-up {op}: {warm_problem}")
    print(json.dumps(result), flush=True)
    return 0


def trace(args, workload, stream) -> dict:
    import micro
    from spans import Tracer

    # the cli workload is traced in process: cli.main(argv) per op
    call = workload.run_in_process if args.workload == "cli" else workload.run
    loop_seconds = max(1.0, TRACE_LOOP_SHARE * args.seconds)
    untraced = summarize(closed_loop(workload, stream, loop_seconds, call))
    tracer = Tracer()
    missing = tracer.install()
    try:
        traced_loop = closed_loop(workload, stream, loop_seconds, lambda op: tracer.run_op(call, op))
    finally:
        tracer.uninstall()
    traced = summarize(traced_loop)
    layers = tracer.metrics()
    layers["trace.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]

    cli = workloads.Cli(ROOT)
    main_loop = closed_loop(cli, cli.pool(args.seed), math.inf, cli.run_in_process)
    layers["cli.main_ms"] = statistics.fmean(main_loop["latencies"]) * 1e3
    layers.update(micro.measure(ROOT))

    if args.trace_out:
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        tracer.write(args.trace_out)
        with open(args.trace_out.replace(".tsv.gz", ".layers.json"), "w", encoding="utf-8") as fh:
            json.dump({"per_layer": layers, "counts": tracer.counts, "missing": missing}, fh, indent=1)
    loops = (untraced, traced, summarize(main_loop))
    return {
        "ops": sum(loop["ops"] for loop in loops),
        "failed": sum(loop["failed"] for loop in loops),
        "failures": [f for loop in loops for f in loop["failures"]][:5],
        "traced_ops": traced["ops"],
        "spans": len(tracer.name),
        "missing_entry_points": missing,
        "per_layer": layers,
    }


if __name__ == "__main__":
    sys.exit(main())
