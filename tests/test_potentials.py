"""Unit tests for the potential catalog and effective-potential evaluation."""

import math

import numpy as np
import pytest

from radialsolve.errors import DomainError, NoMinimumError
from radialsolve.potentials import (
    EV_NM,
    INFINITE,
    NATURAL,
    EffectivePotential,
    FreeParticle,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
    UnitSystem,
    effective_minimum,
    eval_effective,
    eval_effective_array,
    eval_potential,
    spin_orbit_constant,
    validate_jls,
)


class TestUnitSystem:
    def test_m1_definition(self):
        u = UnitSystem(hbar=2.0, mass=3.0)
        assert u.m1 == pytest.approx(math.sqrt(2.0 * 3.0) / 2.0, rel=1e-15)

    def test_natural_defaults(self):
        assert NATURAL.hbar == 1.0 and NATURAL.mass == 1.0
        assert NATURAL.m1 == pytest.approx(math.sqrt(2.0))

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(DomainError):
            UnitSystem(hbar=0.0)
        with pytest.raises(DomainError):
            UnitSystem(mass=-1.0)


class TestEvalPotential:
    def test_ho_at_r2(self):
        assert eval_potential(IsotropicHO(omega=1.0), 2.0, NATURAL) == pytest.approx(2.0)

    def test_hydrogen_at_r1(self):
        assert eval_potential(HydrogenLike(Z=1, e_charge=1.0), 1.0, NATURAL) == pytest.approx(-1.0)

    def test_parabolic_at_r1(self):
        assert eval_potential(Parabolic(a=1.0, b=2.0, c=3.0), 1.0, NATURAL) == pytest.approx(6.0)

    def test_well_outside_is_infinite(self):
        spec = InfiniteSphericalWell(L=1.0)
        assert eval_potential(spec, 0.5, NATURAL) == 0.0
        assert eval_potential(spec, 1.0, NATURAL) == INFINITE
        assert eval_potential(spec, 2.0, NATURAL) == INFINITE
        assert eval_potential(spec, 1.5, NATURAL) > 1e300  # above all finite energies

    def test_free_particle_zero(self):
        assert eval_potential(FreeParticle(), 7.3, NATURAL) == 0.0

    def test_rejects_nonpositive_r(self):
        with pytest.raises(DomainError):
            eval_potential(IsotropicHO(omega=1.0), 0.0, NATURAL)
        with pytest.raises(DomainError):
            eval_potential(IsotropicHO(omega=1.0), -1.0, NATURAL)


class TestEvalEffective:
    def test_free_particle_l0(self):
        U = EffectivePotential(FreeParticle(), l=0)
        for r in (0.1, 1.0, 10.0):
            assert eval_effective(U, r) == 0.0

    def test_free_particle_l1_unit_r(self):
        U = EffectivePotential(FreeParticle(), l=1)
        assert eval_effective(U, 1.0) == pytest.approx(1.0)

    def test_hydrogen_l1(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1)
        assert eval_effective(U, 2.0) == pytest.approx(-0.25)

    def test_centrifugal_difference_exact(self):
        specs = [
            HydrogenLike(Z=2, e_charge=1.0),
            IsotropicHO(omega=0.7),
            HOSpinOrbit(omega=1.0, j=2.5, c0=0.015),
            Parabolic(a=1.0, b=1.0, c=1.0),
            FreeParticle(),
            InfiniteSphericalWell(L=3.0),
        ]
        ls = {type(s): 2 for s in specs}
        for spec in specs:
            U = EffectivePotential(spec, l=ls[type(spec)])
            for r in np.linspace(0.1, 2.9, 23):
                v = eval_potential(spec, float(r), NATURAL, U.l)
                u = eval_effective(U, float(r))
                if v == INFINITE:
                    assert u == INFINITE
                else:
                    assert u - v == pytest.approx(U.centrifugal_coeff / r**2, rel=1e-14)

    def test_l0_effective_equals_potential(self):
        U = EffectivePotential(IsotropicHO(omega=2.0), l=0)
        for r in (0.2, 1.0, 5.0):
            assert eval_effective(U, r) == U.eval_potential(r)

    def test_centrifugal_coeff_formula(self):
        for l in range(5):
            U = EffectivePotential(FreeParticle(), l=l, units=UnitSystem(hbar=2.0, mass=0.5))
            assert U.centrifugal_coeff == 2.0**2 * l * (l + 1) / (2 * 0.5)


def _golden_section_min(f, lo, hi, tol=1e-12):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while b - a > tol * max(1.0, abs(c)):
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    x = 0.5 * (a + b)
    return x, f(x)


class TestEffectiveMinimum:
    def test_ho_l0_is_origin(self):
        r_min, u_min = effective_minimum(EffectivePotential(IsotropicHO(omega=1.0), l=0))
        assert r_min == 0.0
        assert u_min == 0.0

    def test_ho_l1_closed_form(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        r_min, u_min = effective_minimum(U)
        assert r_min == pytest.approx(2.0**0.25, rel=1e-12)
        assert u_min == pytest.approx(math.sqrt(2.0), rel=1e-12)
        # independent check by golden-section search
        r_gs, u_gs = _golden_section_min(lambda r: eval_effective(U, r), 0.1, 5.0)
        assert r_min == pytest.approx(r_gs, rel=1e-5)
        assert u_min == pytest.approx(u_gs, rel=1e-11)

    def test_hydrogen_l1_closed_form(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1)
        r_min, u_min = effective_minimum(U)
        assert r_min == pytest.approx(2.0, rel=1e-12)
        assert u_min == pytest.approx(-0.25, rel=1e-12)
        r_gs, u_gs = _golden_section_min(lambda r: eval_effective(U, r), 0.1, 20.0)
        assert r_min == pytest.approx(r_gs, rel=1e-5)
        assert u_min == pytest.approx(u_gs, rel=1e-11)

    def test_parabolic_l1_stationary(self):
        U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=1)
        r_min, u_min = effective_minimum(U)
        h = 1e-6 * r_min
        grad = (eval_effective(U, r_min + h) - eval_effective(U, r_min - h)) / (2 * h)
        assert abs(grad) < 1e-5
        assert u_min == pytest.approx(eval_effective(U, r_min))

    def test_parabolic_minimum_is_relative_at_tiny_scales(self):
        # r_min ~ 6e-34: an absolute 1e-12 stop would leave U' of one sign
        a, b = 1e-300, 1e100
        U = EffectivePotential(Parabolic(a=a, b=b, c=1.0), l=1)
        r_min, _ = effective_minimum(U)

        def dU(r):
            return 2.0 * a * r + b - 2.0 * U.centrifugal_coeff / r**3

        assert dU(r_min * (1.0 - 1e-12)) < 0.0 < dU(r_min * (1.0 + 1e-12))

    @pytest.mark.parametrize(
        "spec, l, match",
        [
            (InfiniteSphericalWell(L=1e-200), 0, "overflows.*L=1e-200"),
            (InfiniteSphericalWell(L=1e-160), 1, "overflows.*L=1e-160"),
            (InfiniteSphericalWell(L=1e300), 1, "underflows.*L=1e\\+300"),
            (HydrogenLike(Z=1, e_charge=1e-200), 0, "underflows.*e=1e-200"),
            (HydrogenLike(Z=2, e_charge=1e300), 1, "overflows.*e=1e\\+300"),
        ],
    )
    def test_rejects_non_normal_energy_scale(self, spec, l, match):
        # hbar^2 / (m L^2) and m (Z e^2)^2 / hbar^2 are 0, subnormal or infinite
        with pytest.raises(DomainError, match=match):
            effective_minimum(EffectivePotential(spec, l=l))

    def test_monotone_cases_raise(self):
        with pytest.raises(NoMinimumError):
            effective_minimum(EffectivePotential(FreeParticle(), l=0))
        with pytest.raises(NoMinimumError):
            effective_minimum(EffectivePotential(InfiniteSphericalWell(L=1.0), l=0))
        with pytest.raises(NoMinimumError):
            effective_minimum(EffectivePotential(HydrogenLike(), l=0))

    def test_unimodal_shape_for_l1(self):
        for spec in (IsotropicHO(omega=1.0), HOSpinOrbit(omega=1.0, j=1.5, c0=0.015), Parabolic(a=1.0, b=1.0, c=1.0)):
            U = EffectivePotential(spec, l=1)
            r_min, _ = effective_minimum(U)
            left = [eval_effective(U, r) for r in np.linspace(0.05 * r_min, 0.95 * r_min, 500)]
            right = [eval_effective(U, r) for r in np.linspace(1.05 * r_min, 5.0 * r_min, 500)]
            assert all(a > b for a, b in zip(left, left[1:]))
            assert all(a < b for a, b in zip(right, right[1:]))


class TestSpinOrbitConstant:
    def test_c0_mode_d52(self):
        # bracket = 5/2*7/2 - 2*3 - 1/2*3/2 = 8.75 - 6 - 0.75 = 2
        c = spin_orbit_constant(1.0, 2.5, 2, 0.5, NATURAL, mode="c0", c0=0.015)
        assert c == pytest.approx(0.015, rel=1e-14)

    def test_c0_mode_negative_bracket(self):
        # l=3, j=5/2: bracket = 8.75 - 12 - 0.75 = -4
        c = spin_orbit_constant(1.0, 2.5, 3, 0.5, NATURAL, mode="c0", c0=0.015)
        assert c == pytest.approx(-0.030, rel=1e-14)

    def test_vanishing_bracket(self):
        # j(j+1) = l(l+1) + s(s+1): l=1, s=1/2 -> need j(j+1) = 2.75; no physical j,
        # so use s chosen to cancel: l=1, j=3/2, s via bracket 0 impossible for fixed
        # half-integers -- instead check c0=0 gives 0 for any coupling
        assert spin_orbit_constant(1.0, 1.5, 1, 0.5, NATURAL, mode="c0", c0=0.0) == 0.0

    def test_bracket_antisymmetry(self):
        # l=2, j=5/2 has bracket +2; l=2, j=3/2 has bracket -3... use the pair
        # (l=3, j=5/2) bracket -4 vs (l=1, j=3/2): 3.75-2-0.75 = +1. Antisymmetry is
        # over the bracket value itself:
        up = spin_orbit_constant(1.0, 2.5, 2, 0.5, NATURAL, mode="c0", c0=0.3)
        down = spin_orbit_constant(1.0, 1.5, 2, 0.5, NATURAL, mode="c0", c0=0.3)
        # l=2, j=3/2: 3.75 - 6 - 0.75 = -3; ratio -3/2 relative to +2 bracket
        assert down == pytest.approx(-1.5 * up, rel=1e-13)

    def test_relativistic_mode(self):
        c = spin_orbit_constant(1.0, 2.5, 2, 0.5, EV_NM, mode="relativistic")
        expected = EV_NM.hbar**2 * 1.0 / (2.0 * EV_NM.mass * EV_NM.light_speed**2) * 2.0
        assert c == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("omega, kind", [(1e200, "overflows"), (1e-160, "underflows")])
    def test_relativistic_prefactor_must_be_normal(self, omega, kind):
        # checked like the other energy scales: it must be a normal float
        with pytest.raises(DomainError, match=f"prefactor.*{kind}"):
            spin_orbit_constant(omega, 1.5, 1, 0.5, NATURAL, mode="relativistic")

    def test_invalid_triple_rejected(self):
        with pytest.raises(DomainError):
            spin_orbit_constant(1.0, 4.5, 1, 0.5, NATURAL)
        with pytest.raises(DomainError):
            validate_jls(0.5, 2, 0.5)

    def test_valid_triples_accepted(self):
        validate_jls(2.5, 2, 0.5)
        validate_jls(1.5, 2, 0.5)
        validate_jls(0.5, 0, 0.5)


class TestConstruction:
    def test_effective_potential_validates_coupling(self):
        with pytest.raises(DomainError):
            EffectivePotential(HOSpinOrbit(omega=1.0, j=4.5, c0=0.015), l=1)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            IsotropicHO(omega=0.0)
        with pytest.raises(DomainError):
            InfiniteSphericalWell(L=-1.0)
        with pytest.raises(DomainError):
            HydrogenLike(Z=0)
        with pytest.raises(DomainError):
            Parabolic(a=1.0, b=0.0, c=1.0)
        with pytest.raises(DomainError, match="finite"):
            Parabolic(a=math.inf, b=1e300, c=1e-160)
        with pytest.raises(DomainError):
            HOSpinOrbit(omega=1.0, j=math.inf)
        with pytest.raises(DomainError):
            HOSpinOrbit(omega=1.0, j=0.5, s=math.inf)
        with pytest.raises(DomainError):
            EffectivePotential(FreeParticle(), l=-1)

    def test_spin_orbit_shift_property(self):
        U = EffectivePotential(HOSpinOrbit(omega=1.0, j=2.5, c0=0.015), l=2)
        assert U.spin_orbit_shift == pytest.approx(0.015)
        assert EffectivePotential(IsotropicHO(omega=1.0), l=2).spin_orbit_shift == 0.0


CATALOG = [
    HydrogenLike(Z=2, e_charge=1.3),
    InfiniteSphericalWell(L=2.0),
    IsotropicHO(omega=0.7),
    HOSpinOrbit(omega=1.0, j=0.5, c0=0.015),
    HOSpinOrbit(omega=1.0, j=1.5),
    Parabolic(a=1.0, b=0.5, c=0.25),
    FreeParticle(),
]


class TestUnderflowingRadius:
    """Below r of about 1.5e-162, r * r underflows to 0."""

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: type(spec).__name__)
    @pytest.mark.parametrize("l", [0, 1])
    def test_scalar_and_array_agree(self, spec, l):
        if isinstance(spec, HOSpinOrbit):
            spec = HOSpinOrbit(omega=spec.omega, j=l + 0.5, c0=spec.c0)
        U = EffectivePotential(spec, l=l)
        r = [1e-200, 1e-160, 1.0]
        scalar = np.array([eval_effective(U, x) for x in r])
        array = eval_effective_array(U, np.array(r))  # a RuntimeWarning fails the test
        assert array.tobytes() == scalar.tobytes()
        # the centrifugal term is +inf for l >= 1 and absent for l = 0
        expected = U.eval_potential(1e-200) if l == 0 else INFINITE
        assert scalar[0] == expected
