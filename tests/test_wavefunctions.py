"""Tests for radial wavefunctions: bound states, delta model, free particle."""

import math
import pathlib

import numpy as np
import pytest

from radialsolve.errors import DomainError, NotNormalizableError
from radialsolve.potentials import (
    NATURAL,
    EffectivePotential,
    FreeParticle,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
)
from radialsolve.quadrature import adaptive_integral, phase_Q
from radialsolve.report import render_samples, samples_from_csv
from radialsolve.turning_points import TurningPoints, turning_points
from radialsolve.wavefunctions import (
    FreeParticleWave,
    RadialWaveFunction,
    SamplePoint,
    boundary_residuals,
    build_bound_state,
    delta_model_wavefunction,
    detuned_state,
    eval_radial,
    evanescent_eval,
    free_particle_radial,
    normalize,
    sample_wavefunction,
)

WELL = EffectivePotential(InfiniteSphericalWell(L=1.0), l=1)
HO1 = EffectivePotential(IsotropicHO(omega=1.0), l=1)


def _interior_sign_changes(wf: RadialWaveFunction, samples: int = 4096) -> int:
    eps = 1e-6 * wf.tp.d
    rs = np.linspace(wf.tp.r1 + eps, wf.tp.r2 - eps, samples)
    vals = np.array([wf.radial_F(float(r)) for r in rs])
    return int(np.count_nonzero(np.diff(np.sign(vals)) != 0))


class TestBoundStates:
    def test_symmetric_boundary_zeros(self):
        wf, _ = build_bound_state(WELL, 1, "symmetric")
        # K d = pi puts the carrier zeros exactly on the turning points
        assert wf.K * wf.tp.d == pytest.approx(math.pi, rel=1e-15)
        assert abs(wf.carrier(wf.tp.r1)) < 1e-12
        assert abs(wf.carrier(wf.tp.r2)) < 1e-12

    def test_antisymmetric_node_at_midpoint(self):
        wf, _ = build_bound_state(WELL, 1, "antisymmetric")
        assert wf.K * wf.tp.d == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert abs(wf.radial_F(wf.tp.r0)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric_node_count(self, n):
        wf, _ = build_bound_state(HO1, n, "symmetric")
        assert _interior_sign_changes(wf) == 2 * n - 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_antisymmetric_node_count(self, n):
        wf, _ = build_bound_state(HO1, n, "antisymmetric")
        assert _interior_sign_changes(wf) == 2 * n - 1

    def test_zero_outside_support(self):
        wf, _ = build_bound_state(HO1, 1, "symmetric")
        assert wf.radial_F(wf.tp.r1 * 0.5) == 0.0
        assert wf.radial_F(wf.tp.r2 * 2.0) == 0.0

    def test_eval_radial_is_F_over_r(self):
        wf, _ = build_bound_state(HO1, 2, "symmetric")
        r = wf.tp.r0 * 1.1
        assert eval_radial(wf, r) == pytest.approx(wf.radial_F(r) / r, rel=1e-15)

    def test_rejects_nonpositive_radius(self):
        wf, _ = build_bound_state(HO1, 1, "symmetric")
        with pytest.raises(DomainError):
            wf.radial_F(0.0)
        with pytest.raises(DomainError):
            eval_radial(wf, -1.0)

    def test_carrier_is_centred_on_r0(self):
        wf, _ = build_bound_state(HO1, 1, "symmetric")
        r = wf.tp.r0 * 1.05
        assert wf.carrier(r) == pytest.approx(math.cos(wf.K * (r - wf.tp.r0)), rel=1e-15)

    def test_energy_matches_carrier_wavenumber(self):
        # the solved branch energy satisfies K = m1 sqrt(E) to solver tolerance
        wf, level = build_bound_state(WELL, 2, "symmetric")
        assert NATURAL.m1 * math.sqrt(level.value) == pytest.approx(wf.K, rel=1e-9)


class TestNormalize:
    @pytest.mark.parametrize("parity", ["symmetric", "antisymmetric"])
    def test_unit_norm(self, parity):
        wf, _ = build_bound_state(HO1, 2, parity)
        nwf = normalize(wf)
        lo = nwf.tp.r1 if nwf.tp.r1 > 0 else nwf.tp.r2 * 1e-12
        norm_sq, _ = adaptive_integral(lambda r: nwf.radial_F(r) ** 2, lo, nwf.tp.r2)
        assert norm_sq == pytest.approx(1.0, abs=1e-8)

    def test_scale_invariance(self):
        from dataclasses import replace

        wf, _ = build_bound_state(WELL, 1, "symmetric")
        a = normalize(replace(wf, amplitude=1.0)).amplitude
        b = normalize(replace(wf, amplitude=7.5)).amplitude
        assert a == pytest.approx(b, rel=1e-12)

    def test_free_particle_not_normalizable(self):
        fp = FreeParticleWave(l=1, K=2.0, carrier="cos")
        with pytest.raises(NotNormalizableError):
            normalize(fp)


PARABOLIC_STATES = [
    (l, n, parity) for l in range(4) for n in (1, 2, 3) for parity in ("symmetric", "antisymmetric")
]


def _parabolic(l):
    return EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=l)


class TestParabolicStates:
    """States without a closed-form Q, whose phase comes from a table."""

    @pytest.mark.parametrize("l, n, parity", PARABOLIC_STATES)
    def test_phase_matches_phase_q(self, l, n, parity):
        wf, _ = build_bound_state(_parabolic(l), n, parity)
        lo = wf.tp.r1 if wf.tp.r1 > 0 else wf.tp.r2 * 1e-12
        for r in np.linspace(lo, wf.tp.r2, 9):
            ref = phase_Q(wf.potential, float(r), lo, method="numeric").value
            assert abs(wf.phase(float(r)) - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("l, n, parity", PARABOLIC_STATES)
    def test_unit_norm_and_boundary_zeros(self, l, n, parity):
        wf, _ = build_bound_state(_parabolic(l), n, parity)
        nwf = normalize(wf)
        # fixed 200-point Gauss-Legendre rule, independent of the adaptive one
        x, w = np.polynomial.legendre.leggauss(200)
        half = 0.5 * nwf.tp.d
        F = np.array([nwf.radial_F(float(nwf.tp.r0 + half * t)) for t in x])
        assert float(half * np.sum(w * F * F)) == pytest.approx(1.0, abs=1e-8)
        assert max(boundary_residuals(nwf)) <= 1e-12 * float(np.max(np.abs(F)))

    def test_finite_below_the_reference_radius(self):
        # l = 0 has r1 = 0; the phase is anchored at r2 * 1e-12
        wf, _ = build_bound_state(_parabolic(0), 1, "symmetric")
        assert wf.tp.r1 == 0.0
        for r in (wf.tp.r2 * 1e-13, wf.tp.r2 * 1e-15):
            assert math.isfinite(eval_radial(wf, r))

    def test_work_guard(self, u_count):
        # re-integrating Q from r_ref at each point took 165,139 U evaluations
        # here; the phase table takes about 9,100
        wf, _ = build_bound_state(_parabolic(1), 1, "symmetric")
        wf = normalize(wf)
        samples = sample_wavefunction(wf, [float(r) for r in np.linspace(wf.tp.r1, wf.tp.r2, 512)])
        assert len(samples) == 512
        assert 0 < u_count.points <= 10_000

    def test_sampling_is_one_array_call(self, u_count):
        wf, _ = build_bound_state(_parabolic(1), 2, "antisymmetric")
        wf = normalize(wf)
        grid = [float(r) for r in np.linspace(wf.tp.r1, wf.tp.r2, 512)]
        before = (u_count.scalar_calls, u_count.array_calls)
        sample_wavefunction(wf, grid)
        assert (u_count.scalar_calls - before[0], u_count.array_calls - before[1]) == (0, 1)

    @pytest.mark.parametrize("l, n, parity", [s for s in PARABOLIC_STATES if s[0] >= 1])
    def test_samples_match_pointwise_evaluation(self, l, n, parity):
        wf, _ = build_bound_state(_parabolic(l), n, parity)
        wf = normalize(wf)
        # the grid reaches past both ends of the support
        grid = [float(r) for r in np.linspace(0.5 * wf.tp.r1, 1.1 * wf.tp.r2, 257)]
        assert sample_wavefunction(wf, grid) == [SamplePoint(r, eval_radial(wf, r)) for r in grid]

    @pytest.mark.parametrize("l, n, parity", [s for s in PARABOLIC_STATES if s[0] >= 1])
    def test_amplitude_matches_scalar_norm_integral(self, l, n, parity):
        wf, _ = build_bound_state(_parabolic(l), n, parity)
        norm_sq, _ = adaptive_integral(lambda r: wf.radial_F(r) ** 2, wf.tp.r1, wf.tp.r2, tol=1e-10)
        assert normalize(wf).amplitude == 1.0 / math.sqrt(norm_sq)

    def test_golden_csv(self, tmp_path):
        # written by the per-point scalar phase rule; the grid-wide evaluation
        # must reproduce it byte for byte
        from radialsolve.cli import main

        golden = pathlib.Path(__file__).parent / "data" / "parabolic_wavefunction.csv"
        out = tmp_path / "wf.csv"
        argv = ["wavefunction", "--potential", "parabolic:a=1,b=1,c=1", "--l", "1", "--n", "2",
                "--parity", "antisymmetric", "--samples", "512", "--format", "csv", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == golden.read_bytes()


class TestDeltaModel:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_peak_value(self, k):
        assert delta_model_wavefunction(k, 5.0, 5.0) == pytest.approx(math.sqrt(k), rel=1e-15)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_unit_norm(self, k):
        r0 = 20.0 / k  # far enough from r = 0 that the truncated tail is ~e^{-40}
        val, _ = adaptive_integral(
            lambda r: delta_model_wavefunction(k, r0, r) ** 2, 0.0, r0 + 40.0 / k
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_derivative_jump(self, k):
        # D'(r0+) - D'(r0-) = -2k D(r0)
        r0, eps = 5.0, 1e-8

        def d(r):
            return delta_model_wavefunction(k, r0, r)

        right = (d(r0 + 2 * eps) - d(r0 + eps)) / eps
        left = (d(r0 - eps) - d(r0 - 2 * eps)) / eps
        assert (left - right) / d(r0) == pytest.approx(2.0 * k, rel=1e-6)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(DomainError):
            delta_model_wavefunction(0.0, 1.0, 1.0)


class TestEvanescent:
    def test_unity_at_reference(self):
        assert evanescent_eval(HO1, 0.5, 5.0, 5.0) == 1.0

    def test_strictly_decreasing_outward(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        tp = turning_points(U, 1.0)
        rs = np.linspace(tp.r2 * 1.01, tp.r2 * 2.0, 20)
        vals = [evanescent_eval(U, 1.0, float(r), tp.r2 * 1.005) for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_constant_barrier_unit_decay(self):
        # U - E = hbar^2/2m over a unit length gives exactly e^{-1}
        U = EffectivePotential(FreeParticle(), l=0)
        val = evanescent_eval(U, -0.5, 3.0, 2.0)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_rejects_allowed_region(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        with pytest.raises(DomainError):
            evanescent_eval(U, 10.0, 1.0, 0.5)

    def test_reports_first_allowed_sample(self):
        # E = 1.5 lies above U = r^2/2 + 1/r^2 on (1, sqrt 2); of the 129 even
        # samples of [0.5, 3], 0.5 + 65/128 is the first one inside
        with pytest.raises(DomainError, match=r"E >= U at r = 1\.00781: classically allowed"):
            evanescent_eval(HO1, 1.5, 3.0, 0.5)


class TestFreeParticle:
    def test_l0_pieces_coincide(self):
        fp = FreeParticleWave(l=0, K=2.0, carrier="sin")
        for r in (0.5, 1.0, 1.7):
            assert free_particle_radial(fp, r) == pytest.approx(math.sin(2.0 * r) / r, rel=1e-15)

    @pytest.mark.parametrize("carrier", ["exp_plus", "exp_minus", "cos", "sin"])
    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_continuity_at_unit_radius(self, carrier, l):
        fp = FreeParticleWave(l=l, K=1.3, carrier=carrier)
        eps = 1e-12
        below = complex(free_particle_radial(fp, 1.0 - eps))
        at = complex(free_particle_radial(fp, 1.0))
        above = complex(free_particle_radial(fp, 1.0 + eps))
        assert abs(below - at) < 1e-9
        assert abs(above - at) < 1e-9

    def test_l1_envelope_at_e(self):
        fp = FreeParticleWave(l=1, K=1.0, carrier="cos")
        expected = math.cos(math.e) / math.e * math.exp(-math.sqrt(2.0))
        assert free_particle_radial(fp, math.e) == pytest.approx(expected, rel=1e-14)

    def test_complex_carriers_conjugate(self):
        plus = FreeParticleWave(l=2, K=1.5, carrier="exp_plus")
        minus = FreeParticleWave(l=2, K=1.5, carrier="exp_minus")
        v_plus = free_particle_radial(plus, 1.8)
        v_minus = free_particle_radial(minus, 1.8)
        assert v_plus == pytest.approx(v_minus.conjugate(), rel=1e-14)

    def test_invalid_carrier_rejected(self):
        with pytest.raises(DomainError):
            FreeParticleWave(l=0, K=1.0, carrier="tan")


class TestBoundaryResiduals:
    @pytest.mark.parametrize("spec,l", [
        (InfiniteSphericalWell(L=1.0), 0),
        (InfiniteSphericalWell(L=1.0), 2),
        (IsotropicHO(omega=1.0), 1),
        (IsotropicHO(omega=1.0), 3),
    ])
    @pytest.mark.parametrize("parity", ["symmetric", "antisymmetric"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_quantized_residuals_vanish(self, spec, l, parity, n):
        U = EffectivePotential(spec, l=l)
        wf, _ = build_bound_state(U, n, parity)
        rs = np.linspace(wf.tp.r1 + 1e-9, wf.tp.r2, 200)
        peak = max(abs(wf.radial_F(float(r))) for r in rs)
        at_r1, at_r2 = boundary_residuals(wf)
        assert at_r1 <= 1e-12 * max(peak, 1e-300)
        assert at_r2 <= 1e-12 * max(peak, 1e-300)

    def test_detuned_carrier_leaks(self):
        U = HO1
        level_tp = turning_points(U, 3.0)
        K = 2.5 * math.pi / level_tp.d
        wf = detuned_state(U, level_tp, K, "symmetric")
        rs = np.linspace(wf.tp.r1 + 1e-9, wf.tp.r2, 200)
        peak = max(abs(wf.radial_F(float(r))) for r in rs)
        at_r1, at_r2 = boundary_residuals(wf)
        assert max(at_r1, at_r2) > 1e-3 * peak
        assert max(at_r1, at_r2) > 1e-6 * peak


class TestSampling:
    def test_empty_grid(self):
        wf, _ = build_bound_state(HO1, 1, "symmetric")
        assert sample_wavefunction(wf, []) == []

    def test_single_point(self):
        wf, _ = build_bound_state(HO1, 1, "symmetric")
        r = wf.tp.r0
        pts = sample_wavefunction(wf, [r])
        assert len(pts) == 1
        assert pts[0].r == r
        assert pts[0].value == pytest.approx(eval_radial(wf, r), rel=1e-15)

    def test_grid_must_increase(self):
        wf, _ = build_bound_state(HO1, 1, "symmetric")
        with pytest.raises(DomainError):
            sample_wavefunction(wf, [1.0, 1.0])
        with pytest.raises(DomainError):
            sample_wavefunction(wf, [-1.0, 1.0])

    def test_free_particle_inner_flag(self):
        fp = FreeParticleWave(l=1, K=1.0, carrier="cos")
        r1 = math.sqrt(2.0)  # sqrt(l(l+1))/K
        pts = sample_wavefunction(fp, [0.5, r1 * 0.99, r1 * 1.01, 3.0])
        assert [p.in_inner_forbidden for p in pts] == [True, True, False, False]

    def test_csv_round_trip_bit_identical(self):
        wf, _ = build_bound_state(HO1, 2, "antisymmetric")
        grid = np.linspace(wf.tp.r1 + 1e-6, wf.tp.r2 * 1.2, 512)
        pts = sample_wavefunction(wf, [float(r) for r in grid])
        blob = render_samples(pts, format="csv")
        again = render_samples(samples_from_csv(blob), format="csv")
        assert again == blob

    def test_free_particle_csv_round_trip(self):
        fp = FreeParticleWave(l=2, K=1.5, carrier="exp_plus")
        pts = sample_wavefunction(fp, [0.5, 1.0, 2.0, 4.0])
        blob = render_samples(pts, format="csv")
        assert samples_from_csv(blob) == pts
