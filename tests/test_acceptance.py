"""Acceptance gate: end-to-end criteria with one printed PASS/FAIL line each.

Each criterion recomputes its quantities from scratch and compares against
independently established reference values (Bessel zeros, analytic ladders,
Numerov shooting, published table entries) at the stated tolerances.
"""

import math
import time

import numpy as np

from radialsolve.cli import main
from radialsolve.oracles import bessel_zero, numerov_bound_state, well_oracle_energy
from radialsolve.potentials import (
    NATURAL,
    EffectivePotential,
    FreeParticle,
    HOSpinOrbit,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
    eval_effective,
)
from radialsolve.quadrature import make_phase, phase_Q
from radialsolve.report import reproduce_table
from radialsolve.spectrum import General, closed_form_energy, self_consistent_energy
from radialsolve.turning_points import turning_points
from radialsolve.wavefunctions import (
    boundary_residuals,
    build_bound_state,
    delta_model_wavefunction,
    detuned_state,
    free_particle_radial,
)


def _verdict(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status}: {name}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _check_rows(rows, expected, tol, failures):
    for row, (label, oracle, primary, secondary) in zip(rows, expected):
        if row.state_label != label:
            failures.append(f"label {row.state_label} != {label}")
            continue
        for col, got, want in (
            ("oracle", row.oracle, oracle),
            ("method_primary", row.method_primary, primary),
            ("method_secondary", row.method_secondary, secondary),
        ):
            if want is None:
                continue
            if abs(got - want) > tol:
                failures.append(f"{label} {col}: {got:.6g} vs {want} (tol {tol})")


def test_criterion_1_well_table():
    expected = [
        ("1s", 9.872, 9.870, 9.870),
        ("1p", 20.187, 20.755, 2.984),
        ("1d", 33.212, 31.260, 0.479),
        ("2s", 39.476, 39.478, 39.478),
        ("2p", 59.676, 59.250, 23.707),
        ("2d", 82.719, 76.260, 14.697),
    ]
    failures: list[str] = []
    t0 = time.perf_counter()
    rows = reproduce_table("part2_table1")
    elapsed = time.perf_counter() - t0
    _check_rows(rows, expected, 0.01, failures)
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _verdict("criterion 1 (hard-well table, +/-0.01, < 1 s)", failures)


def test_criterion_2_ho_table():
    expected = [
        ("1s", 3.5, 1.571, None),
        ("1p", 4.5, 2.430, None),
        ("1d", 5.5, 3.217, None),
        ("2s", 5.5, 3.142, None),
        ("2p", 6.5, 3.927, None),
        ("2d", 7.5, 4.597, None),
    ]
    failures: list[str] = []
    t0 = time.perf_counter()
    rows = reproduce_table("part2_table2")
    elapsed = time.perf_counter() - t0
    _check_rows(rows, expected, 0.005, failures)
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _verdict("criterion 2 (oscillator table, +/-0.005 hw, < 1 s)", failures)


def test_criterion_3_spin_orbit_table():
    expected = [
        ("1d_5/2", 3.485, 3.204, None),
        ("1f_5/2", 4.530, 4.096, None),
        ("1f_7/2", 4.478, 4.051, None),
        ("1g_7/2", 5.538, 5.003, None),
        ("1g_9/2", 5.470, 4.941, None),
    ]
    failures: list[str] = []
    t0 = time.perf_counter()
    rows = reproduce_table("part2_table3")
    elapsed = time.perf_counter() - t0
    _check_rows(rows, expected, 0.005, failures)
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _verdict("criterion 3 (spin-orbit table, +/-0.005 hw, < 1 s)", failures)


def test_criterion_4_hydrogen():
    failures: list[str] = []
    (row,) = reproduce_table("hydrogen")
    if abs(row.method_primary - (-13.6)) > 0.1:
        failures.append(f"closed form {row.method_primary:.4f} eV not within -13.6 +/- 0.1")
    if abs(row.method_secondary - row.method_primary) > 1e-6 * abs(row.method_primary):
        failures.append(
            f"signed solver {row.method_secondary!r} vs closed {row.method_primary!r}"
        )
    _verdict("criterion 4 (hydrogen ground state, physical units)", failures)


def test_criterion_5_oracle_integrity():
    failures: list[str] = []
    t0 = time.perf_counter()
    literature = {
        (0, 1): 3.14159,
        (1, 1): 4.49341,
        (2, 1): 5.76346,
        (0, 2): 6.28319,
        (1, 2): 7.72525,
        (2, 2): 9.09501,
    }
    for (l, n), ref in literature.items():
        got = bessel_zero(l, n)
        if abs(got - ref) > 1e-4:
            failures.append(f"bessel_zero({l},{n})={got:.6f} vs {ref}")
    for l in range(3):
        for nodes in range(3):
            U = EffectivePotential(IsotropicHO(omega=1.0), l=l)
            exact = 2 * nodes + l + 1.5
            got = numerov_bound_state(U, nodes, (exact - 0.9, exact + 0.9)).value
            if abs(got - exact) > 1e-4 * exact:
                failures.append(f"numerov HO l={l} nodes={nodes}: {got:.6f} vs {exact}")
    for l, n in ((0, 1), (0, 2), (1, 1), (1, 2)):
        U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=l)
        exact = well_oracle_energy(1.0, l, n).value
        got = numerov_bound_state(U, n - 1, (exact - 2.0, exact + 2.0)).value
        if abs(got - exact) > 1e-3 * exact:
            failures.append(f"numerov well l={l} n={n}: {got:.6f} vs {exact:.6f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.3f}s >= 10s")
    _verdict("criterion 5 (Bessel-zero and Numerov oracle integrity, < 10 s)", failures)


def _check_phase_derivative(failures):
    cases = [
        (InfiniteSphericalWell(L=10.0), 2, (0.5, 8.0)),
        (IsotropicHO(omega=1.0), 1, (0.3, 3.0)),
        (HOSpinOrbit(omega=1.0, j=2.5, c0=0.015), 2, (0.3, 3.0)),
        (Parabolic(a=1.0, b=1.0, c=1.0), 1, (0.3, 3.0)),
    ]
    for spec, l, (lo, hi) in cases:
        U = EffectivePotential(spec, l=l)
        q = make_phase(U, lo, hi)
        for r in np.linspace(lo * 1.2, hi * 0.9, 50):
            r = float(r)
            h = 1e-6 * r
            fd = (q(r + h) - q(r - h)) / (2.0 * h)
            expected = NATURAL.m1 * math.sqrt(eval_effective(U, r))
            if abs(fd - expected) > 1e-5 * abs(expected):
                failures.append(f"dQ/dr at r={r:.3f} for {type(spec).__name__}")
                break


def _check_phase_closed_vs_numeric(failures):
    cases = [
        (InfiniteSphericalWell(L=5.0), 2, 0.5, 3.0),
        (IsotropicHO(omega=1.0), 0, 0.5, 2.0),
        (IsotropicHO(omega=1.0), 3, 0.7, 2.5),
        (HOSpinOrbit(omega=1.0, j=2.5, c0=0.015), 2, 0.6, 2.2),
        (FreeParticle(), 1, 1.0, 4.0),
    ]
    for spec, l, r_ref, r in cases:
        U = EffectivePotential(spec, l=l)
        closed = phase_Q(U, r, r_ref, method="closed_form").value
        numeric = phase_Q(U, r, r_ref, method="numeric").value
        if abs(closed - numeric) > 1e-8 * max(1.0, abs(closed)):
            failures.append(f"Q closed vs numeric for {type(spec).__name__} l={l}")


def _check_closed_vs_self_consistent(failures):
    for l in range(5):
        for n in range(1, 4):
            U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=l)
            level = self_consistent_energy(U, General(n))
            plus = closed_form_energy(U, General(n))
            if abs(level.value - plus) > 1e-8 * abs(plus):
                failures.append(f"well l={l} n={n}: SC {level.value!r} vs closed {plus!r}")
            U = EffectivePotential(IsotropicHO(omega=1.0), l=l)
            level = self_consistent_energy(U, General(n))
            closed = closed_form_energy(U, General(n))
            if abs(level.value - closed) > 1e-8 * abs(closed):
                failures.append(f"HO l={l} n={n}: SC {level.value!r} vs closed {closed!r}")
            j = l + 0.5
            U = EffectivePotential(HOSpinOrbit(omega=1.0, j=j, s=0.5, c0=0.015), l=l)
            level = self_consistent_energy(U, General(n))
            closed = closed_form_energy(U, General(n))
            if abs(level.value - closed) > 1e-8 * abs(closed):
                failures.append(f"HOSO l={l} n={n}: SC {level.value!r} vs closed {closed!r}")


def _peak_F(wf):
    rs = np.linspace(wf.tp.r1 + 1e-9, wf.tp.r2, 200)
    return max(abs(wf.radial_F(float(r))) for r in rs)


def _check_boundary_residuals(failures):
    for spec, l in (
        (InfiniteSphericalWell(L=1.0), 0),
        (InfiniteSphericalWell(L=1.0), 2),
        (IsotropicHO(omega=1.0), 1),
    ):
        U = EffectivePotential(spec, l=l)
        for parity in ("symmetric", "antisymmetric"):
            for n in (1, 2):
                wf, _ = build_bound_state(U, n, parity)
                peak = _peak_F(wf)
                if max(boundary_residuals(wf)) > 1e-12 * peak:
                    failures.append(f"quantized residual {type(spec).__name__} l={l} n={n}")
    U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
    tp = turning_points(U, 3.0)
    wf = detuned_state(U, tp, 2.5 * math.pi / tp.d, "symmetric")
    if max(boundary_residuals(wf)) <= 1e-6 * _peak_F(wf):
        failures.append("detuned carrier residual did not exceed 1e-6 * max|F|")


def _check_delta_model(failures):
    from radialsolve.quadrature import adaptive_integral

    for k in (0.5, 1.0, 2.0):
        r0 = 20.0 / k
        norm, _ = adaptive_integral(
            lambda r: delta_model_wavefunction(k, r0, r) ** 2, 0.0, r0 + 40.0 / k
        )
        if abs(norm - 1.0) > 1e-6:
            failures.append(f"delta norm k={k}: {norm!r}")
        eps = 1e-8
        d = lambda r: delta_model_wavefunction(k, r0, r)
        right = (d(r0 + 2 * eps) - d(r0 + eps)) / eps
        left = (d(r0 - eps) - d(r0 - 2 * eps)) / eps
        jump = (left - right) / d(r0)
        if abs(jump - 2.0 * k) > 1e-6 * 2.0 * k:
            failures.append(f"delta derivative jump k={k}: {jump!r}")


def _check_free_particle_continuity(failures):
    from radialsolve.wavefunctions import FreeParticleWave

    for carrier in ("exp_plus", "exp_minus", "cos", "sin"):
        for l in range(5):
            fp = FreeParticleWave(l=l, K=1.3, carrier=carrier)
            eps = 1e-12
            at = complex(free_particle_radial(fp, 1.0))
            below = complex(free_particle_radial(fp, 1.0 - eps))
            above = complex(free_particle_radial(fp, 1.0 + eps))
            if abs(below - at) > 1e-9 or abs(above - at) > 1e-9:
                failures.append(f"free-particle discontinuity l={l} carrier={carrier}")


def _check_cli_determinism(failures, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc = main(["tables", "--which", "part2_table3", "--format", "json", "--out", str(path)])
        if rc != 0:
            failures.append(f"CLI exit code {rc}")
            return
    if a.read_bytes() != b.read_bytes():
        failures.append("repeated CLI runs are not byte-identical")


def test_criterion_6_property_suites(tmp_path):
    failures: list[str] = []
    _check_phase_derivative(failures)
    _check_phase_closed_vs_numeric(failures)
    _check_closed_vs_self_consistent(failures)
    _check_boundary_residuals(failures)
    _check_delta_model(failures)
    _check_free_particle_continuity(failures)
    _check_cli_determinism(failures, tmp_path)
    _verdict("criterion 6 (phase, energy, wavefunction and CLI property suites)", failures)
