"""Byte pins of the CLI's stdout: one argv per verb and format at unit scale.

Each case's expected bytes live in ``tests/data/cli_golden/<name>.out``. A
change that moves any printed digit, column or meta field fails here.
"""

import contextlib
import io
from pathlib import Path

import pytest

from radialsolve.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

CASES = {
    "spectrum_ho_csv": ["spectrum", "--potential", "ho:omega=1", "--l", "1", "--n", "1:3", "--format", "csv"],
    "spectrum_hoso_json": [
        "spectrum", "--potential", "hoso:omega=1,j=2.5,s=0.5,c0=0.015", "--l", "2",
        "--branch", "symmetric", "--n", "1:2", "--format", "json",
    ],
    "spectrum_well_json": [
        "spectrum", "--potential", "well:L=1", "--l", "1", "--branch", "antisymmetric", "--n", "1:3",
        "--format", "json",
    ],
    "spectrum_hydrogen_csv": [
        "spectrum", "--potential", "hydrogen:Z=1", "--l", "1", "--branch", "ground", "--signed", "--format", "csv",
    ],
    "wavefunction_ho_l0_csv": ["wavefunction", "--potential", "ho:omega=1", "--l", "0", "--samples", "24"],
    "wavefunction_well_l1_csv": [
        "wavefunction", "--potential", "well:L=1", "--l", "1", "--n", "2", "--parity", "antisymmetric",
        "--samples", "24",
    ],
    "turning_points_parabolic_l1": [
        "turning-points", "--potential", "parabolic:a=1,b=1,c=1", "--l", "1", "--energy", "6",
    ],
    "oracle_numerov_ho": [
        "oracle", "numerov", "--potential", "ho:omega=1", "--l", "1", "--nodes", "1", "--bracket", "4:6",
    ],
}


def stdout_of(argv: list[str]) -> bytes:
    """stdout bytes of ``cli.main(argv)``; the run must exit 0 with nothing on stderr."""
    out, err = io.BytesIO(), io.StringIO()
    text = io.TextIOWrapper(out, encoding="utf-8")  # the CLI writes to stdout.buffer
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
        code = main(argv)
    text.flush()
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_the_golden_bytes(name):
    assert stdout_of(CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()
