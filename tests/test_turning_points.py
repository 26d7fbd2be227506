"""Tests for the turning-point solvers (closed form, quartic, generic)."""

import math
import re

import numpy as np
import pytest

from radialsolve.errors import (
    DomainError,
    NoClassicalRegionError,
)
from radialsolve.potentials import (
    NATURAL,
    EffectivePotential,
    FreeParticle,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
    effective_minimum,
    eval_effective,
)
from radialsolve.turning_points import (
    TurningPoints,
    closed_form_turning_points,
    parabolic_turning_points,
    quartic_positive_roots,
    solve_turning_points,
    turning_points,
)


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTurningPointsType:
    def test_midpoint_and_width(self):
        tp = TurningPoints(r1=1.0, r2=3.0, energy=2.0, method="numeric")
        assert tp.r0 == 2.0
        assert tp.d == 2.0

    def test_degenerate_rejected(self):
        with pytest.raises(NoClassicalRegionError):
            TurningPoints(r1=1.0, r2=1.0, energy=2.0, method="numeric")


class TestSolveTurningPoints:
    def test_ho_l0(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        tp = solve_turning_points(U, 1.0)
        assert tp.r1 == 0.0
        assert tp.r2 == pytest.approx(math.sqrt(2.0), rel=1e-10)
        # independent bisection oracle on the outer flank
        r2_oracle = _bisect(lambda r: eval_effective(U, r) - 1.0, 1.0, 3.0)
        assert tp.r2 == pytest.approx(r2_oracle, rel=1e-10)

    def test_well_l1(self):
        U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=1)
        tp = solve_turning_points(U, 4.0)
        # U = 1/r^2 inside, so r1 solves 1/r^2 = 4
        assert tp.r1 == pytest.approx(0.5, rel=1e-10)
        assert tp.r2 == 1.0
        r1_oracle = _bisect(lambda r: eval_effective(U, r) - 4.0, 0.1, 0.9)
        assert tp.r1 == pytest.approx(r1_oracle, rel=1e-10)

    def test_below_minimum_raises(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        _, u_min = effective_minimum(U)
        with pytest.raises(NoClassicalRegionError):
            solve_turning_points(U, u_min)
        with pytest.raises(NoClassicalRegionError):
            solve_turning_points(U, u_min - 0.5)

    def test_residuals_at_roots(self):
        for spec, l, E in (
            (IsotropicHO(omega=1.0), 2, 5.0),
            (HydrogenLike(Z=1, e_charge=1.0), 1, -0.2),
            (Parabolic(a=1.0, b=1.0, c=1.0), 1, 8.0),
        ):
            U = EffectivePotential(spec, l=l)
            tp = solve_turning_points(U, E)
            assert abs(eval_effective(U, tp.r1) - E) <= 1e-8 * max(1.0, abs(E))
            assert abs(eval_effective(U, tp.r2) - E) <= 1e-8 * max(1.0, abs(E))


class TestClosedForm:
    def test_hydrogen_l0(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=0)
        tp = closed_form_turning_points(U, -0.5)
        assert tp.r1 == 0.0
        assert tp.r2 == pytest.approx(2.0, rel=1e-14)
        assert tp.d == pytest.approx(2.0, rel=1e-14)
        r2_oracle = _bisect(lambda r: eval_effective(U, r) + 0.5, 1.0, 4.0)
        assert tp.r2 == pytest.approx(r2_oracle, rel=1e-10)

    def test_ho_at_minimum_degenerate(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        with pytest.raises(NoClassicalRegionError):
            closed_form_turning_points(U, math.sqrt(2.0))

    def test_hoso_zero_coupling_reduces_to_ho(self):
        Uso = EffectivePotential(HOSpinOrbit(omega=1.0, j=2.5, c0=0.0), l=2)
        Uho = EffectivePotential(IsotropicHO(omega=1.0), l=2)
        for E in (3.0, 4.5, 7.0, 11.0):
            a = closed_form_turning_points(Uso, E)
            b = closed_form_turning_points(Uho, E)
            assert a.r1 == pytest.approx(b.r1, rel=1e-14)
            assert a.r2 == pytest.approx(b.r2, rel=1e-14)

    def test_well_requires_positive_energy(self):
        U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=0)
        with pytest.raises(NoClassicalRegionError):
            closed_form_turning_points(U, -1.0)

    def test_closed_vs_numeric_sweep(self):
        rng = np.random.default_rng(42)
        for spec in (
            IsotropicHO(omega=1.0),
            InfiniteSphericalWell(L=1.0),
            HOSpinOrbit(omega=1.0, j=2.5, s=0.5, c0=0.015),
        ):
            for l in range(5):
                if isinstance(spec, HOSpinOrbit) and abs(l - 0.5) > 2.5:
                    continue
                if isinstance(spec, HOSpinOrbit) and not (abs(l - 0.5) <= spec.j <= l + 0.5):
                    continue
                U = EffectivePotential(spec, l=l)
                try:
                    _, u_min = effective_minimum(U)
                except Exception:
                    u_min = 0.0
                base = max(u_min, 0.0)
                for _ in range(20):
                    E = base + 0.05 + 8.0 * rng.random()
                    closed = closed_form_turning_points(U, E)
                    numeric = solve_turning_points(U, E)
                    assert numeric.r1 == pytest.approx(closed.r1, abs=1e-9 * max(1.0, closed.r2))
                    assert numeric.r2 == pytest.approx(closed.r2, abs=1e-9 * max(1.0, closed.r2))

    def test_hydrogen_closed_vs_numeric(self):
        for l in range(5):
            U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=l)
            if l == 0:
                energies = [-0.05, -0.2, -0.4]
            else:
                _, u_min = effective_minimum(U)
                energies = [u_min * f for f in (0.8, 0.5, 0.1)]
            for E in energies:
                closed = closed_form_turning_points(U, E)
                numeric = solve_turning_points(U, E)
                assert numeric.r1 == pytest.approx(closed.r1, abs=1e-9 * max(1.0, closed.r2))
                assert numeric.r2 == pytest.approx(closed.r2, abs=1e-9 * max(1.0, closed.r2))


class TestQuarticRoots:
    def test_factored_biquadratic(self):
        roots = quartic_positive_roots(1.0, 0.0, -5.0, 4.0)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(1.0, rel=1e-12)
        assert roots[1] == pytest.approx(2.0, rel=1e-12)

    def test_no_positive_roots(self):
        assert quartic_positive_roots(1.0, 1.0, 1.0, 1.0) == []

    def test_parabolic_case_vs_grid_oracle(self):
        # roots of r^4 + r^3 - 5 r^2 + 1 (a=1, b=1, c=0 is not allowed in the
        # potential type, but the raw quartic solver takes bare coefficients)
        def p(x):
            return ((x + 1.0) * x - 5.0) * x * x + 1.0

        grid = np.linspace(1e-4, 10.0, 10_000)
        vals = p(grid)
        brackets = np.flatnonzero(np.diff(np.sign(vals)) != 0)
        oracle = sorted(_bisect(p, grid[i], grid[i + 1]) for i in brackets)
        roots = quartic_positive_roots(1.0, 1.0, -5.0, 1.0)
        assert len(roots) == len(oracle) == 2
        for got, want in zip(roots, oracle):
            assert got == pytest.approx(want, rel=1e-9)

    def test_residual_bound(self):
        coeffs = (2.0, -3.0, -7.0, 1.5)
        scale = max(1.0, max(abs(c) for c in coeffs))
        for x in quartic_positive_roots(*coeffs):
            residual = ((coeffs[0] * x + coeffs[1]) * x + coeffs[2]) * x * x + coeffs[3]
            assert abs(residual) <= 1e-9 * scale


    @pytest.mark.parametrize(
        "coeffs", [(1e-300, 1e100, -1.7e67, 1.0), (1e-200, 2.0, 1e300, 6.0), (1.0, math.nan, 0.0, 1.0)]
    )
    def test_rejects_non_finite_monic_coefficients(self, coeffs):
        with pytest.raises(DomainError, match="not finite"):
            quartic_positive_roots(*coeffs)


class TestParabolic:
    def test_roots_bracket_minimum(self):
        U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=1)
        r_min, u_min = effective_minimum(U)
        tp = parabolic_turning_points(U, u_min + 3.0)
        assert tp.r1 < r_min < tp.r2
        assert abs(eval_effective(U, tp.r1) - tp.energy) < 1e-9
        assert abs(eval_effective(U, tp.r2) - tp.energy) < 1e-9

    def test_l0_single_root(self):
        U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=0)
        tp = parabolic_turning_points(U, 6.0)
        assert tp.r1 == 0.0
        assert abs(eval_effective(U, tp.r2) - 6.0) < 1e-9

    def test_below_minimum(self):
        U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=0)
        with pytest.raises(NoClassicalRegionError):
            parabolic_turning_points(U, 0.5)


class TestMonotonicity:
    def test_width_increases_with_energy(self):
        for spec, l in ((IsotropicHO(omega=1.0), 1), (Parabolic(a=1.0, b=1.0, c=1.0), 1)):
            U = EffectivePotential(spec, l=l)
            _, u_min = effective_minimum(U)
            widths = [turning_points(U, u_min + dE).d for dE in np.linspace(0.3, 6.0, 15)]
            assert all(a < b for a, b in zip(widths, widths[1:]))


class TestDispatcher:
    def test_routes_by_family(self):
        assert turning_points(EffectivePotential(IsotropicHO(omega=1.0), l=0), 1.0).method == "closed_form"
        assert turning_points(EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=0), 5.0).method == "closed_form"
        U = EffectivePotential(FreeParticle(), l=1)
        with pytest.raises(NoClassicalRegionError):
            # pure centrifugal barrier has no outer turning point
            turning_points(U, 1.0)

    @pytest.mark.parametrize("E", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "spec, l",
        [(IsotropicHO(omega=1.0), 0), (InfiniteSphericalWell(L=1.0), 1), (Parabolic(a=1.0, b=1.0, c=1.0), 1)],
    )
    def test_rejects_non_finite_energy(self, spec, l, E):
        with pytest.raises(DomainError, match="finite"):
            turning_points(EffectivePotential(spec, l=l), E)

    def test_rejects_underflowing_oscillator(self):
        # m omega^2 / 2 is 0.0 in floating point, so r = sqrt(x / (2a)) cannot be formed
        with pytest.raises(DomainError, match="underflows"):
            turning_points(EffectivePotential(IsotropicHO(omega=1e-300), l=1), 1.0)

    @pytest.mark.parametrize("omega, kind", [(1e-160, "underflows"), (1e200, "overflows")])
    def test_rejects_non_normal_oscillator_strength(self, omega, kind):
        # m omega^2 / 2 is subnormal (5e-321) or infinite
        U = EffectivePotential(IsotropicHO(omega=omega), l=1)
        with pytest.raises(DomainError, match=f"{kind}.*omega={re.escape(repr(omega))}"):
            closed_form_turning_points(U, 1.0)
