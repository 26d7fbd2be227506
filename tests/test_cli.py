"""CLI contract: exit codes and stderr on hostile input, the sample grid, and
numpy staying off the start-up path of the verbs that need no arrays."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialsolve import EffectivePotential, InfiniteSphericalWell, IsotropicHO
from radialsolve import build_bound_state, normalize
from radialsolve.cli import main, sample_grid

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_main(argv):
    """(exit code, stdout bytes, stderr text) of ``cli.main(argv)``."""
    out, err = io.BytesIO(), io.StringIO()
    text = io.TextIOWrapper(out, encoding="utf-8")  # the CLI writes to stdout.buffer
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
        code = main(argv)
    text.flush()
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- robustness

VALUES = ["1e-300", "1e-200", "1e-160", "0.5", "1", "2", "1e200", "1e300", "nan", "inf", "-1", "0"]
FAMILIES = {
    "hydrogen": ("Z", "e"),
    "well": ("L",),
    "ho": ("omega",),
    "hoso": ("omega", "j", "s", "c0"),
    "parabolic": ("a", "b", "c"),
}
values = st.sampled_from(VALUES)


@st.composite
def argvs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    params = ",".join(f"{key}={draw(values)}" for key in FAMILIES[family])
    head = [
        "--potential", f"{family}:{params}",
        f"--l={draw(st.integers(-1, 4))}",
        "--units", draw(st.sampled_from(["natural", "eV-nm"])),
    ]
    if draw(st.booleans()):
        # --energy=<x>: argparse would read a bare negative value as an option
        return ["turning-points", *head, f"--energy={draw(values)}"]
    branch = draw(st.sampled_from(["ground", "symmetric", "antisymmetric", "general"]))
    n = draw(st.sampled_from(["1", "2", "1:3"]))
    signed = ["--signed"] if draw(st.booleans()) else []
    return ["spectrum", *head, "--branch", branch, "--n", n, *signed]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=argvs())
@example(argv=["spectrum", "--potential", "well:L=1e-200", "--l=0"])
@example(argv=["spectrum", "--potential", "well:L=1e-200", "--l=1"])
@example(argv=["spectrum", "--potential", "well:L=1e300", "--l=1"])
@example(argv=["spectrum", "--potential", "parabolic:a=inf,b=1e300,c=1e-160", "--l=3"])
@example(argv=["spectrum", "--potential", "parabolic:a=1e-300,b=1e100,c=1", "--l=1"])
@example(argv=["turning-points", "--potential", "parabolic:a=1e-200,b=2,c=1e300", "--l=3", "--energy=1e200"])
@example(argv=["spectrum", "--potential", "parabolic:a=0.5,b=1e200,c=2", "--l=0"])
@example(argv=["spectrum", "--potential", "hydrogen:Z=1,e=1e-200", "--l=0", "--signed"])
@example(argv=["spectrum", "--potential", "hoso:omega=0.5,j=0.5,s=inf,c0=1", "--l=0"])
def test_cli_ends_in_an_exit_code_and_at_most_one_error_line(argv):
    code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        prefix = "error:" if code == 1 else "usage error:"
        assert err.startswith(prefix) and err.count("\n") == 1, err


def test_parabolic_turning_points_of_a_wide_well():
    # the roots 0.0077 and 9050 lie six decades apart around r_min = 1.8
    code, out, err = run_main([
        "turning-points", "--potential", "parabolic:a=0.001,b=2,c=1000", "--l", "3", "--energy", "101000",
    ])
    assert (code, err) == (0, "")
    fields = dict(line.split("=") for line in out.decode().split())
    assert float(fields["r1"]) == pytest.approx(0.0077459673, rel=1e-9)
    assert float(fields["r2"]) == pytest.approx(9049.8756, rel=1e-8)
    assert fields["method"] == "numeric"


@pytest.mark.parametrize(
    "argv",
    [
        # the relativistic spin-orbit prefactor overflows
        ["wavefunction", "--potential", "hoso:omega=1e200,j=1.5", "--l", "1", "--n", "2", "--parity", "antisymmetric"],
        ["oracle", "numerov", "--potential", "hoso:omega=1e200,j=1.5", "--l", "1", "--nodes", "0", "--bracket", "1:2"],
        # L * L underflows to 0 in hbar^2 / (2 m L^2)
        ["oracle", "well", "--L", "1e-300", "--l", "1", "--n", "1:2"],
        # the length scale overflows, so no r_max search can end
        ["oracle", "numerov", "--potential", "hydrogen:e=1e-160", "--l", "1", "--nodes", "0", "--bracket", "0:1e-160"],
        # r * r underflows to 0 on the grid of a 1e-300 well: no numpy warning before the error
        ["oracle", "numerov", "--potential", "well:L=1e-300", "--l", "0", "--nodes", "0", "--bracket", "0:1"],
    ],
    ids=["wavefunction hoso", "numerov hoso", "well", "numerov hydrogen", "numerov well"],
)
def test_extreme_parameters_end_in_one_error_line(argv):
    # a fresh process with a timeout, so a search that never ends fails the test
    proc = subprocess.run(
        [sys.executable, "-m", "radialsolve.cli", *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


# ---------------------------------------------------------------- sample grid


@pytest.mark.parametrize("num", [0, 1, 2, 3, 512])
@pytest.mark.parametrize(
    "start, stop",
    [
        (1e-6, 2.5),
        (0.3, 0.3),
        (2.0, 1.0),
        (1.0, math.nextafter(1.0, 2.0)),  # span below one ulp step per point
        (1e-310, 1e-310 + 1e-315),  # subnormal span
        (1e-162, 1e154),
    ],
)
def test_sample_grid_is_linspace_bit_for_bit(start, stop, num):
    grid = sample_grid(start, stop, num)
    assert all(type(r) is float for r in grid)
    assert grid == np.linspace(start, stop, num).tolist()


@pytest.mark.parametrize(
    "potential, spec, l, n, parity",
    [
        ("ho:omega=1.3", IsotropicHO(omega=1.3), 0, 2, "symmetric"),
        ("ho:omega=0.7", IsotropicHO(omega=0.7), 2, 1, "antisymmetric"),
        ("well:L=1.7", InfiniteSphericalWell(L=1.7), 0, 1, "symmetric"),
        ("well:L=0.9", InfiniteSphericalWell(L=0.9), 1, 3, "antisymmetric"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wavefunction_samples_sit_on_the_linspace_grid(potential, spec, l, n, parity, fmt):
    num = 97
    code, out, _ = run_main([
        "wavefunction", "--potential", potential, "--l", str(l), "--n", str(n),
        "--parity", parity, "--samples", str(num), "--format", fmt,
    ])
    assert code == 0
    if fmt == "csv":
        rs = [float(line.split(",")[0]) for line in out.decode().strip().split("\n")[1:]]
    else:
        rs = [s["r"] for s in json.loads(out)["samples"]]
    wf, _ = build_bound_state(EffectivePotential(spec, l=l), n, parity)
    tp = normalize(wf).tp
    assert rs == np.linspace(tp.r1 if tp.r1 > 0 else tp.r2 * 1e-6, tp.r2, num).tolist()


# ---------------------------------------------------------------- start-up path

NO_ARRAY_VERBS = [
    ["tables", "--which", "part2_table2"],
    ["tables", "--which", "hydrogen", "--format", "json"],
    ["spectrum", "--potential", "ho:omega=1", "--l", "1", "--n", "1:3"],
    ["turning-points", "--potential", "ho:omega=1", "--l", "1", "--energy", "3"],
    ["oracle", "ho", "--l", "1", "--n", "0:2"],
    ["oracle", "well", "--L", "1", "--l", "1", "--n", "1:2"],
    ["oracle", "bessel-zeros", "--l", "2", "--n", "1:3"],
    ["wavefunction", "--potential", "ho:omega=1", "--l", "1", "--samples", "64"],
    ["turning-points", "--potential", "parabolic:a=1,b=1,c=1", "--l", "1", "--energy", "6"],
    ["spectrum", "--potential", "parabolic:a=1,b=1,c=1", "--l", "1", "--n", "1:2"],
]
ARRAY_VERBS = [
    ["oracle", "numerov", "--potential", "ho:omega=1", "--nodes", "0", "--bracket", "1:2"],
]

_PROBE = """
import io, sys
import radialsolve, radialsolve.cli
loaded = 'numpy' in sys.modules
sys.stdout = io.TextIOWrapper(io.BytesIO())
code = radialsolve.cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(loaded, code, 'numpy' in sys.modules)
"""


def _probe(argv):
    """(numpy loaded after import, exit code, numpy loaded after main) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    loaded, code, after = proc.stdout.split()
    return loaded == "True", int(code), after == "True"


@pytest.mark.parametrize("argv", NO_ARRAY_VERBS, ids=lambda a: " ".join(a[:3]))
def test_verbs_without_arrays_never_import_numpy(argv):
    assert _probe(argv) == (False, 0, False)


@pytest.mark.parametrize("argv", ARRAY_VERBS, ids=lambda a: " ".join(a[:3]))
def test_array_verbs_load_numpy_on_first_use(argv):
    assert _probe(argv) == (False, 0, True)
