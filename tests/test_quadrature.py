"""Tests for adaptive quadrature and the area / phase integrals."""

import math

import numpy as np
import pytest

from radialsolve.errors import ComplexPhaseError, DomainError, IntegrationError
from radialsolve.potentials import (
    NATURAL,
    EffectivePotential,
    FreeParticle,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
    eval_effective,
)
from radialsolve.quadrature import adaptive_integral, area_S, make_phase, phase_Q
from radialsolve.turning_points import TurningPoints, turning_points


class TestAdaptiveIntegral:
    def test_constant(self):
        val, err = adaptive_integral(lambda x: 1.0, 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_x_squared(self):
        val, _ = adaptive_integral(lambda x: x * x, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_inverse_sqrt_endpoint_singularity(self):
        val, _ = adaptive_integral(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-8)

    def test_reversed_limits(self):
        fwd, _ = adaptive_integral(lambda x: x, 0.0, 2.0)
        rev, _ = adaptive_integral(lambda x: x, 2.0, 0.0)
        assert rev == pytest.approx(-fwd, rel=1e-14)

    def test_empty_interval(self):
        assert adaptive_integral(lambda x: 1e6, 3.0, 3.0) == (0.0, 0.0)

    def test_nonintegrable_raises(self):
        with pytest.raises(IntegrationError):
            adaptive_integral(lambda x: 1.0 / x, 0.0, 1.0)

    def test_panel_budget_exhaustion_keeps_partial(self):
        # a comb of narrow spikes defeats refinement before the panel budget
        def comb(x):
            return 1.0 / math.sqrt(abs(math.sin(5000.0 * x)) + 1e-300)

        with pytest.raises(IntegrationError) as exc_info:
            adaptive_integral(comb, 0.0, 1.0, tol=1e-14)
        assert exc_info.value.partial is not None

    def test_error_estimate_honest(self):
        val, err = adaptive_integral(lambda x: math.sin(10 * x), 0.0, math.pi, tol=1e-10)
        exact = (1.0 - math.cos(10 * math.pi)) / 10.0
        assert abs(val - exact) <= max(err, 1e-12)


class TestAreaS:
    def test_free_particle_zero(self):
        U = EffectivePotential(FreeParticle(), l=0)
        tp = TurningPoints(r1=1.0, r2=3.0, energy=0.0, method="numeric")
        assert area_S(U, tp).value == 0.0

    def test_hydrogen_divergent_at_origin(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=0)
        tp = turning_points(U, -0.5)
        assert tp.r1 == 0.0
        with pytest.raises(IntegrationError):
            area_S(U, tp)

    def test_hydrogen_log_form_away_from_origin(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=0)
        tp = TurningPoints(r1=0.1, r2=2.0, energy=-0.5, method="numeric")
        closed = area_S(U, tp, method="closed_form")
        assert closed.value == pytest.approx(-math.log(2.0 / 0.1), rel=1e-12)
        numeric = area_S(U, tp, method="numeric")
        assert numeric.value == pytest.approx(closed.value, rel=1e-9)

    def test_ho_l0(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        tp = turning_points(U, 1.0)
        res = area_S(U, tp)
        assert res.value == pytest.approx(math.sqrt(2.0) / 3.0, rel=1e-10)
        numeric = area_S(U, tp, method="numeric")
        assert numeric.value == pytest.approx(res.value, rel=1e-9)

    def test_closed_vs_numeric_families(self):
        cases = [
            (IsotropicHO(omega=1.0), 2, 5.0),
            (HOSpinOrbit(omega=1.0, j=2.5, c0=0.015), 2, 5.0),
            (InfiniteSphericalWell(L=1.0), 1, 12.0),
            (Parabolic(a=1.0, b=1.0, c=1.0), 1, 8.0),
        ]
        for spec, l, E in cases:
            U = EffectivePotential(spec, l=l)
            tp = turning_points(U, E)
            closed = area_S(U, tp, method="closed_form")
            numeric = area_S(U, tp, method="numeric")
            assert numeric.value == pytest.approx(closed.value, rel=1e-8)


class TestPhaseQ:
    def test_zero_at_reference(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        res = phase_Q(U, 1.3, 1.3)
        assert res.value == 0.0

    def test_well_l1_log_form(self):
        U = EffectivePotential(InfiniteSphericalWell(L=10.0), l=1)
        res = phase_Q(U, math.e, 1.0)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-10)
        numeric = phase_Q(U, math.e, 1.0, method="numeric")
        assert numeric.value == pytest.approx(math.sqrt(2.0), rel=1e-8)

    def test_ho_l1_closed_vs_numeric(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        closed = phase_Q(U, 2.0, 1.0, method="closed_form")
        numeric = phase_Q(U, 2.0, 1.0, method="numeric")
        assert closed.value == pytest.approx(numeric.value, rel=1e-8)

    def test_closed_vs_numeric_all_closed_families(self):
        cases = [
            (InfiniteSphericalWell(L=5.0), 2, 0.5, 3.0),
            (IsotropicHO(omega=1.0), 0, 0.5, 2.0),
            (IsotropicHO(omega=1.0), 3, 0.7, 2.5),
            (HOSpinOrbit(omega=1.0, j=2.5, c0=0.015), 2, 0.6, 2.2),
            (FreeParticle(), 1, 1.0, 4.0),
        ]
        for spec, l, r_ref, r in cases:
            U = EffectivePotential(spec, l=l)
            closed = phase_Q(U, r, r_ref, method="closed_form")
            numeric = phase_Q(U, r, r_ref, method="numeric")
            assert abs(closed.value - numeric.value) <= 1e-8 * max(1.0, abs(closed.value))

    def test_complex_phase_rejected(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=0)
        with pytest.raises(ComplexPhaseError) as exc_info:
            phase_Q(U, 2.0, 0.5, method="numeric")
        lo, hi = exc_info.value.interval
        assert lo < hi

    @pytest.mark.parametrize("r, r_ref", [(4.0, 0.5), (0.5, 4.0)])
    def test_complex_phase_interval(self, r, r_ref):
        # U = 1/r^2 - 1/r turns negative just past r = 1; of the 257 even samples
        # of [0.5, 4] (step 3.5/256), 0.9921875 is the last one with U >= 0
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1)
        with pytest.raises(ComplexPhaseError) as exc_info:
            phase_Q(U, r, r_ref, method="numeric")
        assert exc_info.value.interval == (0.9921875, 1.01953125)

    @pytest.mark.parametrize("r_ref, r", [(0.3, 2.7), (1e-9, 1.1), (0.9, 5.0), (3.0, 0.2)])
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_complex_phase_interval_matches_scalar_scan(self, l, r_ref, r):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=l)
        # the point-by-point scan over 257 even samples, kept as the reference
        lo, hi = min(r, r_ref), max(r, r_ref)
        step = (hi - lo) / 256
        expected, prev = None, lo
        for i in range(257):
            x = lo + i * step
            if eval_effective(U, x) < 0.0:
                expected = (prev, min(x + step, hi))
                break
            prev = x
        try:
            phase_Q(U, r, r_ref, method="numeric")
            got = None
        except ComplexPhaseError as exc:
            got = exc.interval
        assert got == expected

    def test_rejects_nonpositive_radii(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        with pytest.raises(DomainError):
            phase_Q(U, -1.0, 1.0)


class TestPhaseProperties:
    POTENTIALS = [
        (InfiniteSphericalWell(L=10.0), 2, (0.5, 8.0)),
        (IsotropicHO(omega=1.0), 1, (0.3, 3.0)),
        (HOSpinOrbit(omega=1.0, j=2.5, c0=0.015), 2, (0.3, 3.0)),
        (Parabolic(a=1.0, b=1.0, c=1.0), 1, (0.3, 3.0)),
    ]

    def test_derivative_matches_integrand(self):
        # dQ/dr = m1 sqrt(U) is the defining relation of the phase function
        for spec, l, (lo, hi) in self.POTENTIALS:
            U = EffectivePotential(spec, l=l)
            q = make_phase(U, lo, hi)
            for r in np.linspace(lo * 1.2, hi * 0.9, 50):
                r = float(r)
                h = 1e-6 * r
                fd = (q(r + h) - q(r - h)) / (2.0 * h)
                expected = NATURAL.m1 * math.sqrt(eval_effective(U, r))
                assert fd == pytest.approx(expected, rel=1e-5)

    def test_additivity(self):
        for spec, l, (lo, hi) in self.POTENTIALS:
            U = EffectivePotential(spec, l=l)
            a, b, c = lo, 0.5 * (lo + hi), hi
            q_ac = phase_Q(U, c, a).value
            q_ab = phase_Q(U, b, a).value
            q_bc = phase_Q(U, c, b).value
            assert q_ac == pytest.approx(q_ab + q_bc, abs=1e-9 * max(1.0, abs(q_ac)))

    def test_monotone_nondecreasing(self):
        for spec, l, (lo, hi) in self.POTENTIALS:
            U = EffectivePotential(spec, l=l)
            q = make_phase(U, lo, hi)
            vals = [q(float(r)) for r in np.linspace(lo, hi, 40)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_make_phase_matches_phase_q(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=2)
        q = make_phase(U, 0.5, 2.5)
        for r in (0.8, 1.5, 2.5):
            assert q(r) == pytest.approx(phase_Q(U, r, 0.5).value, rel=1e-12)


class TestPhaseTable:
    """make_phase for a family without a closed-form Q: one table per span."""

    U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=1)

    def test_matches_phase_q_inside_the_span(self):
        lo, hi = 0.4, 2.6
        q = make_phase(self.U, lo, hi)
        assert q(lo) == 0.0
        for r in [*np.linspace(lo, hi, 37), 0.4 + 1e-15, 2.6 - 1e-15]:
            ref = phase_Q(self.U, float(r), lo, method="numeric").value
            assert abs(q(float(r)) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_falls_back_outside_the_span(self):
        lo, hi = 0.4, 2.6
        q = make_phase(self.U, lo, hi)
        for r in (0.1, 3.0):
            assert q(r) == phase_Q(self.U, r, lo, method="numeric").value
        assert q(0.1) < 0.0 < q(3.0)

    def test_single_point_span(self):
        q = make_phase(self.U, 1.0, 1.0)
        assert q(1.0) == 0.0
        assert q(2.0) == phase_Q(self.U, 2.0, 1.0, method="numeric").value

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)])
    def test_rejects_bad_span(self, lo, hi):
        with pytest.raises(DomainError):
            make_phase(self.U, lo, hi)

    def test_complex_phase_raised_when_built(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1)
        with pytest.raises(ComplexPhaseError) as exc_info:
            make_phase(U, 0.5, 4.0)
        assert exc_info.value.interval == (0.9921875, 1.01953125)

    def test_each_value_costs_one_rule(self, u_count):
        q = make_phase(self.U, 0.4, 2.6)
        built = u_count.points
        q(1.234)
        assert u_count.points - built == 15
        assert u_count.scalar_calls == 0

    def test_many_values_cost_one_array_call(self, u_count):
        q = make_phase(self.U, 0.4, 2.6)
        calls, points = u_count.array_calls, u_count.points
        rs = [float(r) for r in np.linspace(0.5, 2.5, 40)]
        values = q.many(rs)
        assert u_count.array_calls - calls == 1
        assert u_count.points - points == 15 * len(rs)
        assert values == [q(r) for r in rs]

    def test_many_mixes_table_and_fallback(self):
        q = make_phase(self.U, 0.4, 2.6)
        rs = [0.1, 0.4, 1.0, 2.6, 3.0]
        assert q.many(rs) == [q(r) for r in rs]
        assert q.many([]) == []

    def test_table_matches_scalar_rule_bit_for_bit(self):
        # the array path repeats the scalar K15 rule from the panel edge
        from radialsolve.quadrature import _adaptive_panels, _gk15, _phase_integrand

        lo, hi = 0.4, 2.6
        q = make_phase(self.U, lo, hi)
        integrand = _phase_integrand(self.U)
        _, _, panels = _adaptive_panels(integrand, lo, hi, 1e-10)
        panels.sort()
        edges = [a for a, _ in panels]
        prefix = [0.0]
        for _, v in panels[:-1]:
            prefix.append(prefix[-1] + v)
        rs = [*edges, *(float(r) for r in np.linspace(lo, hi, 101))]
        for r, value in zip(rs, q.many(rs)):
            i = max(j for j, a in enumerate(edges) if a <= r)
            expected = prefix[i] if r == edges[i] else prefix[i] + _gk15(integrand, edges[i], r)[0]
            assert value == expected
