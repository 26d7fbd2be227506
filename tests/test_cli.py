"""CLI contract: exit codes and stderr on hostile input, the sample grid, and
numpy staying off the start-up path of the verbs that need no arrays."""

import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialsolve import EffectivePotential, InfiniteSphericalWell, IsotropicHO
from radialsolve import build_bound_state, normalize
from radialsolve.cli import MAX_COUNT, main, parse_branch, parse_potential, sample_grid
from radialsolve.spectrum import closed_form_energy

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

VALUES = ["1e-320", "1e-300", "1e-200", "1e-160", "0.5", "1", "2", "1e200", "1e300", "nan", "inf", "-1", "0"]
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
@example(argv=["spectrum", "--potential", "parabolic:a=1e-320,b=1,c=1", "--l=1"])
@example(argv=["turning-points", "--potential", "parabolic:a=1e-320,b=1,c=1", "--l=1", "--energy=2"])
def test_cli_ends_in_an_exit_code_and_at_most_one_error_line(argv):
    assert_exit_code_and_at_most_one_error_line(argv)


#: wall-clock seconds one argv may take before it counts as a hang
BUDGET_S = 30.0


class Hang(BaseException):
    """An argv outlived its budget. Not an Exception: no handler in the CLI can swallow it."""


@contextlib.contextmanager
def wall_budget(seconds, what):
    """Raise Hang naming ``what`` in the main thread once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise Hang(f"{what} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def assert_exit_code_and_at_most_one_error_line(argv):
    with wall_budget(BUDGET_S, argv):
        code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        prefix = "error:" if code == 1 else "usage error:"
        assert err.startswith(prefix) and err.count("\n") == 1, err


@st.composite
def oracle_argvs(draw):
    kind = draw(st.sampled_from(["bessel-zeros", "well", "ho", "numerov"]))
    tail = [
        f"--l={draw(st.integers(-1, 15))}",
        "--units", draw(st.sampled_from(["natural", "eV-nm"])),
    ]
    n = ["--n", draw(st.sampled_from(["0", "1", "2", "1:3"]))]
    if kind == "bessel-zeros":
        return ["oracle", kind, *tail, *n]
    if kind == "well":
        return ["oracle", kind, f"--L={draw(values)}", *tail, *n]
    if kind == "ho":
        return ["oracle", kind, f"--omega={draw(values)}", *tail, *n]
    catalog = {**FAMILIES, "free": ()}
    family = draw(st.sampled_from(sorted(catalog)))
    params = ",".join(f"{key}={draw(values)}" for key in catalog[family])
    return [
        "oracle", kind, "--potential", f"{family}:{params}", *tail,
        f"--nodes={draw(st.integers(-1, 2))}", f"--bracket={draw(values)}:{draw(values)}",
    ]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=oracle_argvs())
@example(argv=["oracle", "numerov", "--potential", "ho:omega=1", "--l=15", "--nodes=2", "--bracket=19.6:21.4"])
@example(argv=["oracle", "numerov", "--potential", "well:L=2000", "--l=0", "--nodes=0", "--bracket=0:2e-6"])
@example(argv=["oracle", "ho", "--omega=nan", "--l=1", "--n", "1"])
@example(argv=["oracle", "numerov", "--potential", "hydrogen:e=1e-200", "--l=1", "--nodes=0", "--bracket=-1:0"])
def test_oracle_ends_in_an_exit_code_and_at_most_one_error_line(argv):
    assert_exit_code_and_at_most_one_error_line(argv)


@st.composite
def wavefunction_argvs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    params = ",".join(f"{key}={draw(values)}" for key in FAMILIES[family])
    return [
        "wavefunction", "--potential", f"{family}:{params}",
        f"--l={draw(st.integers(-1, 4))}",
        "--units", draw(st.sampled_from(["natural", "eV-nm"])),
        f"--n={draw(st.integers(0, 3))}",
        "--parity", draw(st.sampled_from(["symmetric", "antisymmetric"])),
        f"--samples={draw(st.sampled_from([-1, 0, 1, 2, 17]))}",
        "--format", draw(st.sampled_from(["csv", "json"])),
    ]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=wavefunction_argvs())
@example(argv=["wavefunction", "--potential", "parabolic:a=1e-320,b=1,c=1", "--l=1", "--samples=2"])
def test_wavefunction_ends_in_an_exit_code_and_at_most_one_error_line(argv):
    assert_exit_code_and_at_most_one_error_line(argv)


def test_a_hang_fails_and_names_its_argv(monkeypatch):
    def spin(args):
        while True:
            pass

    monkeypatch.setattr(sys.modules["radialsolve.cli"], "cmd_spectrum", spin)
    monkeypatch.setattr(sys.modules[__name__], "BUDGET_S", 0.2)
    with pytest.raises(Hang, match="spectrum.*still running"):
        assert_exit_code_and_at_most_one_error_line(["spectrum", "--potential", "ho:omega=1"])


@pytest.mark.parametrize(
    "potential",
    ["ho:omega=0", "well:L=-1", "parabolic:a=inf,b=1,c=1", "hydrogen:Z=0", "hoso:omega=1,j=0.2"],
)
def test_values_the_spec_rejects_are_domain_errors(potential):
    code, _, err = run_main(["spectrum", "--potential", potential])
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "potential",
    ["morse:D=1", "ho:omega=1,w=2", "ho:", "ho:omega=abc", "hydrogen:Z=1.5", "ho:omega"],
    ids=["unknown name", "unknown key", "missing key", "bad float", "bad int", "no value"],
)
def test_grammar_errors_are_usage_errors(potential):
    code, _, err = run_main(["spectrum", "--potential", potential])
    assert code == 2
    assert err.startswith("usage error:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--potential", "ho:omega=1", "--n", "3:1"],
        ["oracle", "bessel-zeros", "--l", "1", "--n", "3:1"],
        ["oracle", "well", "--L", "1", "--n", "3:1"],
        ["oracle", "ho", "--n", "2:0"],
    ],
    ids=lambda a: " ".join(a[:2]),
)
def test_a_reversed_n_range_is_a_usage_error(argv):
    assert run_main(argv) == (2, b"", f"usage error: bad n {argv[-1]!r}; the range lo:hi needs hi >= lo\n")


def test_a_one_level_n_range_is_not_reversed():
    code, out, err = run_main(["oracle", "bessel-zeros", "--l", "0", "--n", "2:2"])
    assert (code, err) == (0, "") and out.decode().count("\n") == 1


def test_a_negative_node_count_is_a_domain_error_naming_it():
    argv = ["oracle", "numerov", "--potential", "ho:omega=1", "--nodes", "-1", "--bracket", "1:2"]
    assert run_main(argv) == (1, b"", "error: node_target must be >= 0, got -1\n")


#: an integer past the float range, and one past the C ssize_t of a list length
PAST_FLOAT = "1" + "0" * 400
PAST_SSIZE = "1" + "0" * 200
OUT_OF_RANGE = [
    # an integer that no float holds: a domain error where the value enters the API
    (1, ["spectrum", "--potential", "ho:omega=1", "--l", PAST_FLOAT]),
    (1, ["spectrum", "--potential", "ho:omega=1", "--n", PAST_FLOAT]),
    (1, ["spectrum", "--potential", f"hydrogen:Z={PAST_FLOAT}"]),
    (1, ["turning-points", "--potential", "ho:omega=1", "--l", PAST_FLOAT, "--energy", "1"]),
    (1, ["wavefunction", "--potential", "well:L=1", "--n", PAST_FLOAT]),
    (1, ["oracle", "ho", "--n", PAST_FLOAT]),
    (1, ["oracle", "ho", "--l", PAST_FLOAT]),
    (1, ["oracle", "numerov", "--potential", "ho:omega=1", "--l", PAST_FLOAT, "--bracket", "0:5"]),
    # a count the CLI would turn into a list: a usage error before anything is allocated
    (2, ["spectrum", "--potential", "ho:omega=1", "--n", f"1:{PAST_SSIZE}"]),
    (2, ["wavefunction", "--potential", "well:L=1", "--samples", PAST_FLOAT]),
    (2, ["spectrum", "--potential", "ho:omega=1", "--n", f"1:{MAX_COUNT + 1}"]),
    (2, ["oracle", "bessel-zeros", "--l", "0", "--n", f"0:{MAX_COUNT}"]),
    (2, ["wavefunction", "--potential", "well:L=1", "--samples", str(MAX_COUNT + 1)]),
]


@pytest.mark.parametrize(
    "code, argv", OUT_OF_RANGE,
    ids=[" ".join(a if len(a) < 40 else f"<{len(a)} chars>" for a in argv) for _, argv in OUT_OF_RANGE],
)
def test_an_integer_out_of_range_ends_in_a_one_line_error(code, argv):
    got, out, err = run_main(argv)
    assert (got, out) == (code, b"")
    assert err.startswith("error: " if code == 1 else "usage error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


#: l = 10^300: its centrifugal coefficient hbar^2 l (l + 1) / (2 m) overflows
L_OVERFLOWING = "1" + "0" * 300


@pytest.mark.parametrize(
    "argv",
    [
        ["turning-points", "--potential", "ho:omega=1", "--l", L_OVERFLOWING, "--energy", "1"],
        ["spectrum", "--potential", "ho:omega=1", "--l", L_OVERFLOWING],
    ],
    ids=["turning-points", "spectrum"],
)
def test_an_overflowing_centrifugal_coefficient_is_refused_where_it_enters(argv):
    assert run_main(argv) == (
        1, b"", "error: centrifugal coefficient hbar^2 l (l + 1) / (2 m) overflows to inf for l=1e+300\n"
    )


@pytest.mark.parametrize(
    "l, bracket, message",
    [
        # the stride-8 and stride-4 starts lie past the allowed region: the
        # search runs at stride 2 and finds the bracket empty
        ("200", "200.3:200.6", "bracket contains no state with 0 nodes"),
        # the stride-2 start lies past r_max, and at l = 5000 so does the
        # full grid's
        ("2000", "1:2000.55", "the centrifugal start r = 65.1379 of the Numerov search grid"),
        ("5000", "1:5000.55", "the centrifugal start r = 177.067 of the Numerov search grid"),
    ],
)
def test_a_short_numerov_grid_ends_in_a_domain_error(l, bracket, message):
    argv = ["oracle", "numerov", "--potential", "ho:omega=1", "--l", l, "--nodes", "0", "--bracket", bracket]
    code, out, err = run_main(argv)
    assert (code, out) == (1, b"")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("omega", ["0", "-1", "inf", "nan", "1e308", "1e-320"])
def test_oracle_ho_rejects_a_frequency_out_of_range(omega):
    code, _, err = run_main(["oracle", "ho", f"--omega={omega}"])
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_level_next_to_a_large_floor():
    # near the floor E = c = 1000, h(E) = E - g / d(E)^2 moves by about 3e-6
    # per ulp of E, so no float meets |h| <= 1e-10 max(1, |E|)
    code, out, err = run_main(["spectrum", "--potential", "parabolic:a=0.001,b=0.001,c=1000", "--l", "0"])
    assert (code, err) == (0, "")


def test_level_far_above_the_starting_energy_scale():
    # the level, about 3.7e133, lies some 440 doublings above the first bracket
    code, out, err = run_main([
        "spectrum", "--potential", "parabolic:a=0.5,b=1e200,c=2", "--l", "0", "--format", "csv",
    ])
    assert (code, err) == (0, "")
    # a parabolic row has no closed-form oracle: the level is method_primary
    energy = float(out.decode().splitlines()[1].split(",")[2])
    assert energy == pytest.approx(3.667948673974271e133, rel=1e-12)


def test_oscillator_whose_a_coeff_overflows():
    # a * coeff = 1.1e308 * 3 overflows, but the minimum 2 sqrt(a) sqrt(coeff) does not
    code, out, err = run_main(["spectrum", "--potential", "ho:omega=1.5e154", "--l", "2", "--format", "csv"])
    assert (code, err) == (0, "")
    cells = out.decode().splitlines()[1].split(",")
    assert cells[1] == cells[2] == "4.824867710921808e+154"


def test_level_at_an_energy_scale_of_1e_300():
    # the level 5.8e-300 needs Brent to stop at 1e-15 * 5.8e-300, far below
    # the least normal float, or its residual of about 6e-310 is refused
    code, out, err = run_main(
        ["spectrum", "--potential", "well:L=1e150", "--l", "1", "--branch", "ground", "--format", "csv"]
    )
    assert (code, err) == (0, "")
    cells = out.decode().splitlines()[1].split(",")
    assert cells[1] == cells[2] == "5.82842712474619e-300"


def test_oscillator_whose_r2_squared_overflows():
    # r2^2 = 2e308 is not a float, r2 itself is
    code, out, err = run_main(["turning-points", "--potential", "ho:omega=1", "--l", "1", "--energy=1e308"])
    assert (code, err) == (0, "")
    fields = dict(line.split("=") for line in out.decode().split())
    assert float(fields["r2"]) == pytest.approx(1.414213562373095e154, rel=4e-16)


def scaled_potential(family, k, l, j_up):
    """A ``--potential`` whose energy scale hbar^2 / (m length^2) is about 10^k."""
    s = 10.0**k
    if family == "ho":
        return f"ho:omega={s!r}"
    if family == "hoso":
        j = l + 0.5 if j_up or l == 0 else l - 0.5
        return f"hoso:omega={s!r},j={j},c0={0.015 * s!r}"
    if family == "well":
        return f"well:L={10.0 ** (-k / 2)!r}"
    return f"hydrogen:e={10.0 ** (k / 4)!r}"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    family=st.sampled_from(["ho", "hoso", "well", "hydrogen"]),
    k=st.integers(-150, 150),
    l=st.integers(0, 3),
    branch=st.sampled_from(["ground", "symmetric", "antisymmetric", "general"]),
    n_hi=st.integers(1, 3),
    j_up=st.booleans(),
)
def test_spectrum_oracle_is_the_closed_form(family, k, l, branch, n_hi, j_up):
    potential = scaled_potential(family, k, l, j_up)
    argv = ["spectrum", "--potential", potential, "--l", str(l), "--branch", branch, "--n", f"1:{n_hi}",
            "--format", "csv"] + (["--signed"] if family == "hydrogen" else [])
    code, out, err = run_main(argv)
    assert (code, err) == (0, "")
    U = EffectivePotential(parse_potential(potential), l=l)
    rows = [line.split(",") for line in out.decode().splitlines()[1:]]
    assert len(rows) == n_hi
    for n, cells in enumerate(rows, start=1):
        assert cells[1] == repr(closed_form_energy(U, parse_branch(branch, n)))
        assert float(cells[5]) <= 1e-9


@pytest.mark.parametrize(
    "potential, bracket, exact",
    [
        # a 2000-unit well: the old fixed step of 1e-3 needed 2e6 points, above the cap
        ("well:L=2000", "0:2e-6", math.pi**2 / 2 / 2000**2),
        ("ho:omega=1e-6", "1e-6:2e-6", 1.5e-6),
    ],
)
def test_numerov_step_follows_the_length_scale(potential, bracket, exact):
    code, out, err = run_main([
        "oracle", "numerov", "--potential", potential, "--l", "0", "--nodes", "0", f"--bracket={bracket}",
    ])
    assert (code, err) == (0, "")
    assert float(out.decode().rsplit("E=", 1)[1]) == pytest.approx(exact, rel=1e-8)


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
        # a subnormal a: the length scale overflows (the minimum search halved inf forever)
        ["spectrum", "--potential", "parabolic:a=1e-320,b=1,c=1", "--l", "1"],
        # Z e^2 underflows to 0: hbar^2 / (m Z e^2) divided by zero
        ["oracle", "numerov", "--potential", "hydrogen:e=1e-200", "--l", "1", "--nodes", "0", "--bracket=-1:0"],
        # U overflows at the end of the grid: no numpy overflow warning before the error
        ["oracle", "numerov", "--potential", "parabolic:a=1e-160,b=1e300,c=1e200", "--l", "1", "--nodes", "0",
         "--bracket", "0:1"],
    ],
    ids=[
        "wavefunction hoso", "numerov hoso", "well", "numerov hydrogen", "numerov well",
        "spectrum parabolic", "numerov hydrogen 1e-200", "numerov parabolic overflow",
    ],
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
    pytest.param(
        ["wavefunction", "--potential", "well:L=1", "--l", "0", "--samples", "64"],
        id="wavefunction --potential well:L=1 --l 0",
    ),
    pytest.param(
        ["wavefunction", "--potential", "well:L=1", "--l", "2", "--samples", "64"],
        id="wavefunction --potential well:L=1 --l 2",
    ),
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
print(*sorted(m for m in sys.modules if m.startswith('radialsolve.') or m in ('dataclasses', 'json')))
"""


def _run_probe(argv):
    """(numpy loaded after import, exit code, numpy loaded after main, modules loaded after main)
    in a fresh interpreter; the modules are radialsolve's, without the prefix, and
    ``dataclasses`` and ``json``."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    numpy_line, modules_line = proc.stdout.splitlines()
    loaded, code, after = numpy_line.split()
    modules = {m.removeprefix("radialsolve.") for m in modules_line.split()}
    return loaded == "True", int(code), after == "True", modules


def _probe(argv):
    """(numpy loaded after import, exit code, numpy loaded after main) in a fresh interpreter."""
    return _run_probe(argv)[:3]


@pytest.mark.parametrize("argv", NO_ARRAY_VERBS, ids=lambda a: " ".join(a[:3]))
def test_verbs_without_arrays_never_import_numpy(argv):
    assert _probe(argv) == (False, 0, False)


@pytest.mark.parametrize("argv", ARRAY_VERBS, ids=lambda a: " ".join(a[:3]))
def test_array_verbs_load_numpy_on_first_use(argv):
    assert _probe(argv) == (False, 0, True)


# library calls that read U's shape from its coefficients and need no arrays
LIBRARY_CALLS = [
    "phase_Q(EffectivePotential(IsotropicHO(omega=1.0), l=1), 2.0, 1.0)",
    "phase_Q(EffectivePotential(InfiniteSphericalWell(L=1.0), l=2), 0.9, 0.5)",
    "solve_turning_points(EffectivePotential(IsotropicHO(omega=1.0), l=1), 3.0)",
    "solve_turning_points(EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=1), 6.0)",
]


@pytest.mark.parametrize("call", LIBRARY_CALLS)
def test_library_calls_without_arrays_never_import_numpy(call):
    probe = f"import sys\nfrom radialsolve import *\n{call}\nprint('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.stdout.split() == ["False"]


# each verb loads only the modules it runs: the ones it must not load
UNLOADED = {
    "turning-points": {"dataclasses", "json", "quadrature", "spectrum", "wavefunctions", "oracles"},
    "oracle": {"dataclasses", "json", "quadrature", "spectrum", "wavefunctions"},
    "spectrum": {"quadrature", "wavefunctions", "oracles"},
    "tables": {"quadrature", "wavefunctions"},
    "wavefunction": {"oracles"},
}
IMPORT_SETS = [
    ["turning-points", "--potential", "ho:omega=1", "--l", "1", "--energy", "3"],
    ["turning-points", "--potential", "parabolic:a=1,b=1,c=1", "--l", "1", "--energy", "6"],
    ["oracle", "bessel-zeros", "--l", "2", "--n", "1:3"],
    ["oracle", "well", "--L", "1", "--l", "1", "--n", "1:2"],
    ["oracle", "ho", "--l", "1", "--n", "0:2"],
    ["spectrum", "--potential", "hoso:omega=1,j=2.5,c0=0.015", "--l", "2", "--n", "1:2", "--format", "json"],
    ["spectrum", "--potential", "parabolic:a=1,b=1,c=1", "--l", "1", "--n", "1:2"],
    ["tables", "--which", "part2_table1", "--format", "json"],
    ["tables", "--which", "hydrogen", "--format", "csv"],
    ["wavefunction", "--potential", "ho:omega=1", "--l", "1", "--samples", "64", "--format", "json"],
    ["wavefunction", "--potential", "well:L=1", "--l", "0", "--samples", "64"],
]


@pytest.mark.parametrize("argv", IMPORT_SETS, ids=lambda a: " ".join(a[:3]))
def test_each_verb_loads_only_the_modules_it_runs(argv):
    _, code, _, modules = _run_probe(argv)
    assert code == 0
    assert {"cli", "errors", "potentials"} <= modules
    assert modules & UNLOADED[argv[0]] == set()
