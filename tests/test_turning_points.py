"""Tests for the turning-point solvers (closed form, parabolic flanks, generic)."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialsolve.errors import (
    DomainError,
    NoClassicalRegionError,
)
from radialsolve.potentials import (
    EV_NM,
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
from radialsolve.turning_points import (
    TurningPoints,
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
        _, u_min = U.minimum
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
        tp = turning_points(U, -0.5)
        assert tp.r1 == 0.0
        assert tp.r2 == pytest.approx(2.0, rel=1e-14)
        assert tp.d == pytest.approx(2.0, rel=1e-14)
        r2_oracle = _bisect(lambda r: eval_effective(U, r) + 0.5, 1.0, 4.0)
        assert tp.r2 == pytest.approx(r2_oracle, rel=1e-10)

    def test_ho_at_minimum_degenerate(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        with pytest.raises(NoClassicalRegionError):
            turning_points(U, math.sqrt(2.0))

    def test_hoso_zero_coupling_reduces_to_ho(self):
        Uso = EffectivePotential(HOSpinOrbit(omega=1.0, j=2.5, c0=0.0), l=2)
        Uho = EffectivePotential(IsotropicHO(omega=1.0), l=2)
        for E in (3.0, 4.5, 7.0, 11.0):
            a = turning_points(Uso, E)
            b = turning_points(Uho, E)
            assert a.r1 == pytest.approx(b.r1, rel=1e-14)
            assert a.r2 == pytest.approx(b.r2, rel=1e-14)

    def test_well_requires_positive_energy(self):
        U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=0)
        with pytest.raises(NoClassicalRegionError):
            turning_points(U, -1.0)

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
                # the well with l = 0 has no minimum
                base = max(U.minimum[1], 0.0) if U.minimum else 0.0
                for _ in range(20):
                    E = base + 0.05 + 8.0 * rng.random()
                    closed = turning_points(U, E)
                    numeric = solve_turning_points(U, E)
                    assert numeric.r1 == pytest.approx(closed.r1, abs=1e-9 * max(1.0, closed.r2))
                    assert numeric.r2 == pytest.approx(closed.r2, abs=1e-9 * max(1.0, closed.r2))

    def test_hydrogen_closed_vs_numeric(self):
        for l in range(5):
            U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=l)
            if l == 0:
                energies = [-0.05, -0.2, -0.4]
            else:
                _, u_min = U.minimum
                energies = [u_min * f for f in (0.8, 0.5, 0.1)]
            for E in energies:
                closed = turning_points(U, E)
                numeric = solve_turning_points(U, E)
                assert numeric.r1 == pytest.approx(closed.r1, abs=1e-9 * max(1.0, closed.r2))
                assert numeric.r2 == pytest.approx(closed.r2, abs=1e-9 * max(1.0, closed.r2))


def _quartic_roots(a, b, c, l, E):
    """Positive real roots of a r^4 + b r^3 + (c - E) r^2 + coeff, ascending.

    This is E = U(r) of the parabolic well times r^2 (natural units), solved
    as the eigenvalues of its companion matrix: a reference that shares no
    code with the flank solves.
    """
    coeff = l * (l + 1) / 2.0
    roots = np.roots([a, b, c - E, 0.0, coeff])
    return sorted(float(z.real) for z in roots if abs(z.imag) <= 1e-7 * abs(z) and z.real > 0)


def _quartic_turning_points(a, b, c, l, E):
    """The reference roots next to the minimum of U: (0, r2) for l = 0, else (r1, r2)."""
    roots = _quartic_roots(a, b, c, l, E)
    if l == 0:
        return 0.0, roots[0]
    r_min, _ = EffectivePotential(Parabolic(a=a, b=b, c=c), l=l).minimum
    return max(x for x in roots if x < r_min), min(x for x in roots if x > r_min)


class TestQuarticRoots:
    """Parabolic turning points against the positive roots of the quartic a r^4 + b r^3 + (c - E) r^2 + coeff."""

    def test_factored_biquadratic(self):
        # (r - 1)(r - 2)(r^2 + 6 r + 4) / 8 = r^4 / 8 + 3 r^3 / 8 - 3 r^2 / 2 + 1:
        # a = 1/8, b = 3/8, c - E = -3/2 and coeff = 1 (l = 1)
        U = EffectivePotential(Parabolic(a=0.125, b=0.375, c=1.0), l=1)
        tp = turning_points(U, 2.5)
        assert tp.r1 == pytest.approx(1.0, rel=1e-13)
        assert tp.r2 == pytest.approx(2.0, rel=1e-13)
        assert tp.method == "numeric"

    def test_no_positive_roots(self):
        # U = r^2 + r + 2 + 1/r^2 > 1 everywhere: r^4 + r^3 + r^2 + 1 has no positive root
        assert _quartic_roots(1.0, 1.0, 2.0, 1, 1.0) == []
        with pytest.raises(NoClassicalRegionError):
            turning_points(EffectivePotential(Parabolic(a=1.0, b=1.0, c=2.0), l=1), 1.0)

    def test_parabolic_case_vs_grid_oracle(self):
        U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=1)
        E = 7.0

        def f(x):
            return eval_effective(U, x) - E

        grid = np.linspace(1e-2, 10.0, 10_000)
        vals = np.array([f(float(x)) for x in grid])
        brackets = np.flatnonzero(np.diff(np.sign(vals)) != 0)
        oracle = sorted(_bisect(f, grid[i], grid[i + 1]) for i in brackets)
        tp = turning_points(U, E)
        assert len(oracle) == 2
        assert tp.r1 == pytest.approx(oracle[0], rel=1e-12)
        assert tp.r2 == pytest.approx(oracle[1], rel=1e-12)

    def test_residual_bound(self):
        a, b, c, E = 2.0, 3.0, 1.0, 8.0  # l = 1: coeff = 1
        coeffs = (a, b, c - E, 1.0)
        scale = max(1.0, max(abs(x) for x in coeffs))
        tp = turning_points(EffectivePotential(Parabolic(a=a, b=b, c=c), l=1), E)
        for x in (tp.r1, tp.r2):
            residual = ((a * x + b) * x + c - E) * x * x + 1.0
            assert abs(residual) <= 1e-12 * scale

    @pytest.mark.parametrize("l", [0, 1, 3])
    @pytest.mark.parametrize(
        "a, b, c, dE",
        [
            (1.0, 1.0, 1.0, 3.0),
            (0.5, 2.0, 0.25, 0.01),
            (1e-3, 0.5, 1e3, 1e5),
            (1e3, 1e-3, 2.0, 50.0),
            (0.001, 2.0, 1000.0, 1e5),
        ],
    )
    def test_matches_companion_matrix(self, a, b, c, l, dE):
        U = EffectivePotential(Parabolic(a=a, b=b, c=c), l=l)
        _, u_min = U.minimum
        E = u_min + dE
        tp = turning_points(U, E)
        r1, r2 = _quartic_turning_points(a, b, c, l, E)
        assert tp.r1 == pytest.approx(r1, rel=1e-9)
        assert tp.r2 == pytest.approx(r2, rel=1e-9)

    def test_wide_well_keeps_both_roots(self):
        # at E = 101000 the companion roots span six decades (0.0077 and
        # 9050); both flanks are found although the minimum sits at 1.8
        a, b, c, l, E = 0.001, 2.0, 1000.0, 3, 101000.0
        tp = turning_points(EffectivePotential(Parabolic(a=a, b=b, c=c), l=l), E)
        r1, r2 = _quartic_turning_points(a, b, c, l, E)
        assert tp.r1 == pytest.approx(r1, rel=1e-9)
        assert tp.r2 == pytest.approx(r2, rel=1e-9)

    @pytest.mark.parametrize(
        "a, b, c, l, E",
        [
            (1e-300, 1e100, 1.0, 1, 1.7e67),  # b / a and E / a overflow
            (1e300, 1e200, 1e-300, 0, 0.5),  # r2 = t / b = 5e-201
            (1e-300, 1e-300, 1e-300, 1, 0.5),  # r2 = sqrt(E / a) = 7e149
            (1.0, 1.0, 1.0, 1, 1e200),  # r1 = 1e-100, r2 = 1e100
        ],
    )
    def test_extreme_coefficients(self, a, b, c, l, E):
        U = EffectivePotential(Parabolic(a=a, b=b, c=c), l=l)
        tp = turning_points(U, E)
        coeff = U.centrifugal_coeff

        def u(r):  # divides by r twice, so r^2 may underflow
            return a * r * r + b * r + c + coeff / r / r

        # E lies between U one part in 1e12 inside and outside each root
        for r in (tp.r1, tp.r2):
            if r > 0:
                lo, hi = sorted((u(r * (1 - 1e-12)), u(r * (1 + 1e-12))))
                assert lo <= E <= hi


class TestParabolic:
    def test_roots_bracket_minimum(self):
        U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=1)
        r_min, u_min = U.minimum
        tp = turning_points(U, u_min + 3.0)
        assert tp.r1 < r_min < tp.r2
        assert abs(eval_effective(U, tp.r1) - tp.energy) < 1e-9
        assert abs(eval_effective(U, tp.r2) - tp.energy) < 1e-9

    def test_l0_single_root(self):
        U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=0)
        tp = turning_points(U, 6.0)
        assert tp.r1 == 0.0
        assert abs(eval_effective(U, tp.r2) - 6.0) < 1e-9

    def test_below_minimum(self):
        U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=0)
        with pytest.raises(NoClassicalRegionError):
            turning_points(U, 0.5)


class TestMonotonicity:
    def test_width_increases_with_energy(self):
        for spec, l in ((IsotropicHO(omega=1.0), 1), (Parabolic(a=1.0, b=1.0, c=1.0), 1)):
            U = EffectivePotential(spec, l=l)
            _, u_min = U.minimum
            widths = [turning_points(U, u_min + dE).d for dE in np.linspace(0.3, 6.0, 15)]
            assert all(a < b for a, b in zip(widths, widths[1:]))


class TestDispatcher:
    def test_routes_by_family(self):
        assert turning_points(EffectivePotential(IsotropicHO(omega=1.0), l=0), 1.0).method == "closed_form"
        assert turning_points(EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=0), 5.0).method == "closed_form"
        assert turning_points(EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=1), 5.0).method == "numeric"
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
        # rejected where U is built, before any turning-point solve
        with pytest.raises(DomainError, match=f"oscillator strength.*{kind}.*omega={re.escape(repr(omega))}"):
            EffectivePotential(IsotropicHO(omega=omega), l=1)


# ------------------------------------- one quadratic, one rule below the minimum


@st.composite
def quadratic_cases(draw):
    """(U, E) of the Coulomb, oscillator, spin-orbit or well closed form, l 1-3,
    with E - u_min log-uniform in [1e-2, 1e8] |u_min| (hydrogen: E = u_min / (1 + t))."""
    l = draw(st.integers(1, 3))
    x = 10.0 ** draw(st.floats(-2.0, 2.0))
    spec = draw(st.sampled_from([
        IsotropicHO(omega=x),
        HOSpinOrbit(omega=x, j=l + 0.5, c0=0.05 * x),
        HOSpinOrbit(omega=x, j=l - 0.5, c0=0.05 * x),
        HydrogenLike(Z=1 + int(x) % 3, e_charge=x ** 0.25),
        InfiniteSphericalWell(L=x),
    ]))
    U = EffectivePotential(spec, l=l, units=draw(st.sampled_from([NATURAL, EV_NM])))
    t = 10.0 ** draw(st.floats(-2.0, 8.0))
    _, u_min = U.minimum
    return U, u_min / (1.0 + t) if U.coulomb else u_min + t * abs(u_min)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=quadratic_cases())
def test_closed_form_roots_match_the_flank_solves_to_16_ulps(case):
    # the inner root too: A y^2 - B y + C = 0 never subtracts B and sqrt(disc)
    U, E = case
    closed, numeric = turning_points(U, E), solve_turning_points(U, E)
    for x, ref in ((closed.r1, numeric.r1), (closed.r2, numeric.r2)):
        assert abs(x - ref) <= 16 * math.ulp(ref), (U, E, x, ref)


@pytest.mark.parametrize(
    "spec, l",
    [
        (IsotropicHO(omega=1.0), 0),
        (IsotropicHO(omega=1.0), 1),
        (HOSpinOrbit(omega=1.0, j=1.5, c0=0.5), 1),
        (HOSpinOrbit(omega=1.0, j=2.5, c0=2.0), 3),
        (HydrogenLike(Z=1, e_charge=1.0), 1),
        (HydrogenLike(Z=2, e_charge=1.0), 3),
        (InfiniteSphericalWell(L=1.0), 1),
        (Parabolic(a=1.0, b=1.0, c=1.0), 0),
        (Parabolic(a=1.0, b=1.0, c=1.0), 2),
    ],
)
def test_at_and_one_ulp_below_the_minimum_one_error(spec, l):
    U = EffectivePotential(spec, l=l)
    _, u_min = U.minimum
    for E in (u_min, math.nextafter(u_min, -math.inf), u_min - 1.0):
        with pytest.raises(NoClassicalRegionError, match=re.escape(f"E={E} at or below the minimum U={u_min}")):
            turning_points(U, E)


def test_hydrogen_below_the_barrier_is_below_the_minimum():
    U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1)
    with pytest.raises(NoClassicalRegionError, match=re.escape("E=-1.0 at or below the minimum U=-0.25")):
        turning_points(U, -1.0)


def _decimal_roots(U, E):
    """sqrt of both roots of a y^2 - (E - c) y + coeff = 0 in 40-digit decimals,
    which do not overflow; y1 = coeff / (a y2) from the product of the roots."""
    with localcontext() as ctx:
        ctx.prec = 40
        A, B, C = (Decimal(v) for v in (U.quadratic, E - U.offset, U.centrifugal_coeff))
        y2 = (B + (B * B - 4 * A * C).sqrt()) / (2 * A)
        return float((C / (A * y2)).sqrt()), float(y2.sqrt())


@pytest.mark.parametrize("omega, E", [(1e154, 3e154), (1.0, 1e200), (1.5e154, 1e155)])
def test_an_overflowing_discriminant_is_factored_not_rounded_to_0(omega, E):
    # B * B (and with omega = 1e154, 4 A C) is inf: r1 and r2 still hold to a few ulps
    U = EffectivePotential(IsotropicHO(omega=omega), l=1 if omega < 1.2e154 else 2)
    tp = turning_points(U, E)
    for x, ref in zip((tp.r1, tp.r2), _decimal_roots(U, E)):
        assert abs(x - ref) <= 4 * math.ulp(ref), (x, ref)


def test_an_overflowing_outer_root_is_a_domain_error():
    # r2 = 1e320 for hydrogen is not a float
    with pytest.raises(DomainError, match="outer turning point overflows"):
        turning_points(EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1), -1e-320)


@pytest.mark.parametrize("omega, E", [(1.0, 1e308), (1e-100, 1e300)])
def test_an_oscillator_root_whose_square_overflows_is_returned(omega, E):
    # r2^2 = 2e308 and 4e500 are not floats, r2 = 1.4e154 and 2e250 are
    U = EffectivePotential(IsotropicHO(omega=omega), l=1)
    tp = turning_points(U, E)
    for x, ref in zip((tp.r1, tp.r2), _decimal_roots(U, E)):
        assert abs(x - ref) <= 4 * math.ulp(ref), (x, ref)


@pytest.mark.parametrize("spec", [IsotropicHO(omega=1.0), Parabolic(a=1.0, b=1.0, c=1.0), HydrogenLike(Z=1)])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_generic_solve_just_above_the_minimum(spec, l):
    # U has at most two roots, so the flank solves are the whole answer even
    # one ulp above u_min, near a double root, where the rounding noise of
    # U - E changes sign more than twice (HO omega=1, l=1: E = 1.4142135623730954)
    U = EffectivePotential(spec, l=l)
    _, u_min = U.minimum
    for E in [math.nextafter(u_min, math.inf)] + [u_min + k * 1e-15 * abs(u_min) for k in range(1, 21)]:
        closed, numeric = turning_points(U, E), solve_turning_points(U, E)
        assert numeric.r1 == pytest.approx(closed.r1, rel=2e-8), E
        assert numeric.r2 == pytest.approx(closed.r2, rel=2e-8), E
