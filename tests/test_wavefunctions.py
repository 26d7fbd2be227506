"""Tests for radial wavefunctions: bound states, delta model, free particle."""

import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialsolve.errors import ComplexPhaseError, DomainError, NotNormalizableError
from radialsolve.potentials import (
    NATURAL,
    EffectivePotential,
    FreeParticle,
    HOSpinOrbit,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
    UnitSystem,
)
from radialsolve.quadrature import _adaptive_panels, _gk15, _phase_integrand, adaptive_integral, phase_Q
from radialsolve.report import render_samples
from radialsolve.turning_points import TurningPoints, turning_points
from radialsolve.wavefunctions import (
    FreeParticleWave,
    RadialWaveFunction,
    SamplePoint,
    boundary_residuals,
    build_bound_state,
    delta_model_wavefunction,
    detuned_state,
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
        # R(r) = (A / r) cos[K (r - r0)] e^{-Q(r)}
        wf, _ = build_bound_state(HO1, 2, "symmetric")
        r = wf.tp.r0 * 1.1
        expected = wf.amplitude * wf.carrier(r) * math.exp(-wf.phase(r)) / r
        assert sample_wavefunction(wf, [r])[0].value == pytest.approx(expected, rel=1e-15)

    def test_rejects_nonpositive_radius(self):
        wf, _ = build_bound_state(HO1, 1, "symmetric")
        with pytest.raises(DomainError):
            wf.radial_F(0.0)
        with pytest.raises(DomainError):
            wf.radial_F(-1.0)

    def test_carrier_is_centred_on_r0(self):
        wf, _ = build_bound_state(HO1, 1, "symmetric")
        r = wf.tp.r0 * 1.05
        assert wf.carrier(r) == pytest.approx(math.cos(wf.K * (r - wf.tp.r0)), rel=1e-15)

    def test_bad_parity_is_rejected_before_the_solve(self, monkeypatch):
        import radialsolve.spectrum as spectrum

        calls = []
        solve = spectrum.turning_points
        monkeypatch.setattr(spectrum, "turning_points", lambda U, E: calls.append(E) or solve(U, E))
        with pytest.raises(DomainError, match="parity"):
            build_bound_state(HO1, 1, "odd")
        assert calls == []

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


#: (family, k, l) with length scale 10^k: the well L = 10^k, the oscillator
#: omega = 1 with mass 10^(-2k). Oscillators with l >= 1 stop at 10^+-75,
#: where the product b * P of the closed-form phase leaves the normal floats.
SCALED_STATES = st.one_of(
    st.tuples(st.just("well"), st.integers(-150, 150), st.integers(0, 2)),
    st.tuples(st.just("ho"), st.integers(-150, 150), st.just(0)),
    st.tuples(st.just("ho"), st.integers(-150, 150), st.integers(1, 3)),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(state=SCALED_STATES, n=st.integers(1, 3), parity=st.sampled_from(["symmetric", "antisymmetric"]))
@example(state=("well", -60, 1), n=2, parity="symmetric")
@example(state=("ho", 20, 2), n=1, parity="antisymmetric")
def test_unit_norm_at_any_length_scale(state, n, parity):
    # the norm integral scales with the support width, while the adaptive
    # loop stops on tol * max(1, |I|): a small support must not end it early
    family, k, l = state
    if family == "well":
        U = EffectivePotential(InfiniteSphericalWell(L=10.0**k), l=l)
    else:
        U = EffectivePotential(IsotropicHO(omega=1.0), l=l, units=UnitSystem(mass=10.0 ** (-2 * k)))
    wf = normalize(build_bound_state(U, n, parity)[0])
    # fixed 200-point Gauss-Legendre rule, independent of the adaptive one
    x, w = np.polynomial.legendre.leggauss(200)
    half = 0.5 * wf.tp.d
    F = np.array(wf.radial_F_many([float(wf.tp.r0 + half * t) for t in x]))
    assert abs(half * float(np.sum(w * F * F)) - 1.0) <= 1e-9


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
            assert math.isfinite(wf.radial_F(r) / r)

    def test_work_guard(self, u_count):
        # re-integrating Q from r_ref at each point took 165,139 U evaluations
        # here; the phase table takes about 9,100
        wf, _ = build_bound_state(_parabolic(1), 1, "symmetric")
        wf = normalize(wf)
        samples = sample_wavefunction(wf, [float(r) for r in np.linspace(wf.tp.r1, wf.tp.r2, 512)])
        assert len(samples) == 512
        assert 0 < u_count.points <= 10_000

    def test_golden_state_call_counts(self, u_count, monkeypatch):
        # one U call per split of a quadrature panel, and one turning-point
        # solve per energy, the level's reused by the state; the check that U
        # stays non-negative on the support reads U.least and makes no array call
        import radialsolve.spectrum as spectrum

        energies = []
        solve = spectrum.turning_points
        monkeypatch.setattr(spectrum, "turning_points", lambda U, E: energies.append(E) or solve(U, E))
        wf, _ = build_bound_state(_parabolic(1), 2, "antisymmetric")
        built = u_count.array_calls
        normalize(wf)
        assert (built, u_count.array_calls - built, len(energies)) == (4, 6, 9)
        assert len(set(energies)) == len(energies)

    def test_golden_state_flank_solves_evaluate_each_point_once(self, monkeypatch):
        # the march hands Brent both end values of each flank's bracket, and
        # g(r_in) is evaluated once; evaluating them again took 232 g calls
        tp_module = sys.modules["radialsolve.turning_points"]
        calls, flank = [], tp_module._flank_turning_points

        def counted(U, E, g):
            return flank(U, E, lambda r: calls.append(r) or g(r))

        monkeypatch.setattr(tp_module, "_flank_turning_points", counted)
        build_bound_state(_parabolic(1), 2, "antisymmetric")
        assert len(calls) == 178

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
        assert sample_wavefunction(wf, grid) == [SamplePoint(r, wf.radial_F(r) / r) for r in grid]

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


coefficients = st.floats(0.5, 2.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    a=coefficients, b=coefficients, c=coefficients, l=st.integers(1, 3), n=st.integers(1, 3),
    parity=st.sampled_from(["symmetric", "antisymmetric"]),
)
def test_state_matches_its_scalar_references(a, b, c, l, n, parity):
    # the whole-array table repeats the scalar K15 rule from each panel edge,
    # and the level's turning points are those of a fresh solve at its energy
    U = EffectivePotential(Parabolic(a=a, b=b, c=c), l=l)
    wf, level = build_bound_state(U, n, parity)
    assert level.turning_points == turning_points(U, level.value)
    lo, hi = wf.tp.r1, wf.tp.r2
    integrand = _phase_integrand(U)
    panels = sorted(_adaptive_panels(integrand, lo, hi, 1e-10)[2])
    edges = [edge for edge, _ in panels]
    prefix = [0.0]
    for _, v in panels[:-1]:
        prefix.append(prefix[-1] + v)
    rs = [0.5 * lo, *edges, *(float(r) for r in np.linspace(lo, hi, 65)), 1.1 * hi]
    expected = []
    for r in rs:
        if not lo <= r <= hi:
            expected.append(phase_Q(U, r, lo, method="numeric").value)
            continue
        i = max(j for j, edge in enumerate(edges) if edge <= r)
        expected.append(prefix[i] if r == edges[i] else prefix[i] + _gk15(integrand, edges[i], r)[0])
    assert wf.phase.many(rs) == expected


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


def _shifted_ho1(E: float) -> EffectivePotential:
    """U - E for U = HO1, as the spin-orbit shift C = c0 / 2 of l = 1, j = 3/2."""
    return EffectivePotential(HOSpinOrbit(omega=1.0, j=1.5, c0=2.0 * E), l=1)


def _envelope(U: EffectivePotential, r: float, r_ref: float) -> float:
    """The decaying envelope e^{-Q(r)} under the barrier U > 0, Q(r_ref) = 0."""
    return math.exp(-phase_Q(U, r, r_ref).value)


class TestEvanescent:
    """The envelope e^{-Q} where U - E > 0, and the guard naming where it is not."""

    def test_unity_at_reference(self):
        assert _envelope(_shifted_ho1(0.5), 5.0, 5.0) == 1.0

    def test_strictly_decreasing_outward(self):
        U_E = _shifted_ho1(2.0)
        tp = turning_points(HO1, 2.0)
        assert U_E(tp.r2 * 1.5) == pytest.approx(HO1(tp.r2 * 1.5) - 2.0, rel=1e-15)
        rs = np.linspace(tp.r2 * 1.01, tp.r2 * 2.0, 20)
        vals = [_envelope(U_E, float(r), tp.r2 * 1.005) for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_constant_barrier_unit_decay(self):
        # m1 sqrt(U) = sqrt(2) / r under the l = 1 barrier U = 1/r^2, so Q = 1
        # from r_ref to r_ref e^{1/sqrt 2}: exactly e^{-1}
        U = EffectivePotential(FreeParticle(), l=1)
        val = _envelope(U, 2.0 * math.exp(1.0 / math.sqrt(2.0)), 2.0)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_rejects_allowed_region(self):
        with pytest.raises(ComplexPhaseError):
            _envelope(_shifted_ho1(10.0), 1.0, 0.5)

    def test_rejects_an_allowed_region_between_samples(self):
        # E = u_min (1 + 1e-7) lies above U only on a 7e-4 wide interval
        # around r_min = 3^(1/4), narrower than the step of a 129-point grid;
        # l = 2, j = 5/2 shifts U by C = c0
        r_min, u_min = EffectivePotential(IsotropicHO(omega=1.0), l=2).minimum
        U_E = EffectivePotential(HOSpinOrbit(omega=1.0, j=2.5, c0=u_min * (1.0 + 1e-7)), l=2)
        with pytest.raises(ComplexPhaseError, match=rf"U\({r_min:.6g}\) = "):
            _envelope(U_E, 3.0, 0.5)

    def test_reports_where_u_is_least(self):
        # E = 1.5 lies above U = r^2/2 + 1/r^2 on (1, sqrt 2); U is least,
        # sqrt 2, at r = 2^(1/4) = 1.18921
        with pytest.raises(ComplexPhaseError, match=r"U\(1\.18921\) = "):
            _envelope(_shifted_ho1(1.5), 3.0, 0.5)


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
        assert pts[0].value == pytest.approx(wf.radial_F(r) / r, rel=1e-15)

    def test_grid_must_increase(self):
        wf, _ = build_bound_state(HO1, 1, "symmetric")
        with pytest.raises(DomainError):
            sample_wavefunction(wf, [1.0, 1.0])
        with pytest.raises(DomainError):
            sample_wavefunction(wf, [-1.0, 1.0])

    def test_free_particle_inner_flag(self):
        # the inner turning point r1 = sqrt(l(l+1)) / K, E = hbar^2 K^2 / 2m:
        # U > E below it, U < E above it
        fp = FreeParticleWave(l=1, K=1.0, carrier="cos")
        U, E = EffectivePotential(FreeParticle(), l=fp.l), 0.5 * fp.K**2
        r1 = math.sqrt(2.0)  # sqrt(l(l+1))/K
        assert U(r1) == pytest.approx(E, rel=1e-15)
        assert [U(r) > E for r in [0.5, r1 * 0.99, r1 * 1.01, 3.0]] == [True, True, False, False]

    def test_free_particle_csv_round_trip(self):
        fp = FreeParticleWave(l=2, K=1.5, carrier="cos")
        pts = [SamplePoint(r, free_particle_radial(fp, r)) for r in [0.5, 1.0, 2.0, 4.0]]
        header, *lines = render_samples(pts, format="csv").decode().splitlines()
        assert header == "r,value"
        cells = [line.split(",") for line in lines]
        assert [SamplePoint(float(r), float(v)) for r, v in cells] == pts

    def test_csv_round_trip_bit_identical(self):
        wf, _ = build_bound_state(HO1, 2, "antisymmetric")
        grid = np.linspace(wf.tp.r1 + 1e-6, wf.tp.r2 * 1.2, 512)
        pts = sample_wavefunction(wf, [float(r) for r in grid])
        blob = render_samples(pts, format="csv")
        cells = [line.split(",") for line in blob.decode().splitlines()[1:]]
        again = render_samples([SamplePoint(float(r), float(v)) for r, v in cells], format="csv")
        assert again == blob

    def test_sample_point_is_immutable_and_hashable(self):
        p = SamplePoint(1.5, -0.25)
        with pytest.raises(AttributeError):
            p.value = 0.0
        assert hash(p) == hash(SamplePoint(1.5, -0.25))
        assert len({p, SamplePoint(1.5, -0.25), SamplePoint(1.5, 0.25)}) == 2

    def test_sample_point_repr(self):
        assert repr(SamplePoint(1.5, -0.25)) == "SamplePoint(r=1.5, value=-0.25)"
        assert repr(SamplePoint(2.0, 1e-320)) == "SamplePoint(r=2.0, value=1e-320)"


@pytest.mark.parametrize("parity", ["symmetric", "antisymmetric"])
@pytest.mark.parametrize(
    "U",
    [HO1, WELL, EffectivePotential(IsotropicHO(omega=0.7), l=0), EffectivePotential(Parabolic(1.0, 1.0, 1.0), l=2)],
    ids=["ho-l1", "well-l1", "ho-l0", "parabolic-l2"],
)
def test_radial_F_many_is_the_pointwise_product(U, parity):
    # amplitude * carrier(r) * exp(-Q(r)) in this order, 0 outside [r1, r2]
    wf = normalize(build_bound_state(U, 2, parity)[0])
    r1, r2 = wf.tp.r1, wf.tp.r2
    inside = [float(r) for r in np.linspace(r1 or r2 * 1e-12, r2, 97)] + [wf.tp.r0]
    past_both_ends = [float(r) for r in np.linspace(-r2 * 1e-3 if r1 == 0.0 else r1 * 0.5, r2 * 1.2, 97)]
    past_both_ends += [r1 or r2 * 1e-12, wf.tp.r0, r2]
    with_nan = inside[:40] + [math.nan] + inside[40:]
    for rs in (inside, past_both_ends, with_nan, [math.nan] + inside):
        expected = [
            wf.amplitude * wf.carrier(r) * math.exp(-wf.phase(r)) if r1 <= r <= r2 else 0.0 for r in rs
        ]
        # repr tells the signs of zero apart
        assert [repr(F) for F in wf.radial_F_many(rs)] == [repr(F) for F in expected]
    grid = inside[:-1]
    samples = sample_wavefunction(wf, grid)
    assert all(type(p) is SamplePoint for p in samples)
    assert repr(samples) == repr([SamplePoint(r, F / r) for r, F in zip(grid, wf.radial_F_many(grid))])
