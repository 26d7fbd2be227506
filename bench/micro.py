"""Single-call timings of the ROADMAP baseline rows, and fresh-process costs.

Every value is the median of a few repeats, in the unit its name ends with.
The fresh-process rows time a whole child interpreter, so they include
interpreter start-up; ``cli.interp_ms`` is that floor on its own.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

import radialsolve as rs

PROCESS_REPEATS = 5


def fresh_process_s(root: str, args: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(PROCESS_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, *args], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def call_s(fn, repeats: int, inner: int = 1) -> float:
    """Median over ``repeats`` batches of the mean time of one call."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t0) / inner)
    return statistics.median(times)


def measure(root: str) -> dict[str, float]:
    ho1 = rs.EffectivePotential(rs.IsotropicHO(omega=1.0), l=1)
    para1 = rs.EffectivePotential(rs.Parabolic(a=1.0, b=1.0, c=1.0), l=1)
    wf, _ = rs.build_bound_state(para1, 1, "symmetric")
    cli = ["-m", "radialsolve.cli"]
    return {
        "micro.eval_effective_us": call_s(lambda: rs.eval_effective(ho1, 1.3), 7, 2000) * 1e6,
        "micro.solve_turning_points_ms": call_s(lambda: rs.solve_turning_points(ho1, 3.0), 7) * 1e3,
        "micro.sce_parabolic_ms": call_s(lambda: rs.self_consistent_energy(para1, rs.General(1)), 7) * 1e3,
        "micro.sce_ho_ms": call_s(lambda: rs.self_consistent_energy(ho1, rs.General(1)), 7, 5) * 1e3,
        "micro.normalize_parabolic_l1_ms": call_s(lambda: rs.normalize(wf), 5) * 1e3,
        "micro.numerov_ho_l1_ms": call_s(lambda: rs.numerov_bound_state(ho1, 1, (3.6, 5.4)), 3) * 1e3,
        "micro.cli_tables_s": fresh_process_s(root, cli + ["tables", "--which", "part2_table2"]),
        "micro.cli_numerov_s": fresh_process_s(
            root, cli + ["oracle", "numerov", "--potential", "ho:omega=1", "--nodes", "0", "--bracket", "1:2"]
        ),
        "cli.interp_ms": fresh_process_s(root, ["-c", "pass"]) * 1e3,
        "cli.numpy_import_ms": fresh_process_s(root, ["-c", "import numpy"]) * 1e3,
        "cli.import_ms": fresh_process_s(root, ["-c", "import radialsolve.cli"]) * 1e3,
    }
