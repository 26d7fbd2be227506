"""Unit tests for the potential catalog and effective-potential evaluation."""

import itertools
import math
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialsolve.errors import DomainError, RadialSolveError
from radialsolve.oracles import bohr_energy, ho_so_oracle_energy, numerov_bound_state, spherical_bessel
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
    eval_effective,
    eval_effective_array,
    validate_jls,
)
from radialsolve.quadrature import area_S, phase_Q
from radialsolve.spectrum import Antisymmetric, General, Ground, Symmetric, branch_g, self_consistent_energy
from radialsolve.turning_points import turning_points


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


def V(spec, r):
    """V(r) of ``spec`` alone: the potential term of U with l = 0."""
    return EffectivePotential(spec).eval_potential(r)


class TestEvalPotential:
    def test_ho_at_r2(self):
        assert V(IsotropicHO(omega=1.0), 2.0) == pytest.approx(2.0)

    def test_hydrogen_at_r1(self):
        assert V(HydrogenLike(Z=1, e_charge=1.0), 1.0) == pytest.approx(-1.0)

    def test_parabolic_at_r1(self):
        assert V(Parabolic(a=1.0, b=2.0, c=3.0), 1.0) == pytest.approx(6.0)

    def test_well_outside_is_infinite(self):
        spec = InfiniteSphericalWell(L=1.0)
        assert V(spec, 0.5) == 0.0
        assert V(spec, 1.0) == INFINITE
        assert V(spec, 2.0) == INFINITE
        assert V(spec, 1.5) > 1e300  # above all finite energies

    def test_free_particle_zero(self):
        assert V(FreeParticle(), 7.3) == 0.0

    def test_rejects_nonpositive_r(self):
        with pytest.raises(DomainError):
            V(IsotropicHO(omega=1.0), 0.0)
        with pytest.raises(DomainError):
            V(IsotropicHO(omega=1.0), -1.0)


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
                v = U.eval_potential(float(r))
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
        r_min, u_min = EffectivePotential(IsotropicHO(omega=1.0), l=0).minimum
        assert r_min == 0.0
        assert u_min == 0.0

    def test_ho_l1_closed_form(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        r_min, u_min = U.minimum
        assert r_min == pytest.approx(2.0**0.25, rel=1e-12)
        assert u_min == pytest.approx(math.sqrt(2.0), rel=1e-12)
        # independent check by golden-section search
        r_gs, u_gs = _golden_section_min(lambda r: eval_effective(U, r), 0.1, 5.0)
        assert r_min == pytest.approx(r_gs, rel=1e-5)
        assert u_min == pytest.approx(u_gs, rel=1e-11)

    def test_hydrogen_l1_closed_form(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1)
        r_min, u_min = U.minimum
        assert r_min == pytest.approx(2.0, rel=1e-12)
        assert u_min == pytest.approx(-0.25, rel=1e-12)
        r_gs, u_gs = _golden_section_min(lambda r: eval_effective(U, r), 0.1, 20.0)
        assert r_min == pytest.approx(r_gs, rel=1e-5)
        assert u_min == pytest.approx(u_gs, rel=1e-11)

    def test_parabolic_l1_stationary(self):
        U = EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=1)
        r_min, u_min = U.minimum
        h = 1e-6 * r_min
        grad = (eval_effective(U, r_min + h) - eval_effective(U, r_min - h)) / (2 * h)
        assert abs(grad) < 1e-5
        assert u_min == pytest.approx(eval_effective(U, r_min))

    def test_parabolic_minimum_is_relative_at_tiny_scales(self):
        # r_min ~ 6e-34: an absolute 1e-12 stop would leave U' of one sign
        a, b = 1e-300, 1e100
        U = EffectivePotential(Parabolic(a=a, b=b, c=1.0), l=1)
        r_min, _ = U.minimum

        def dU(r):
            return 2.0 * a * r + b - 2.0 * U.centrifugal_coeff / r**3

        assert dU(r_min * (1.0 - 1e-12)) < 0.0 < dU(r_min * (1.0 + 1e-12))

    @pytest.mark.parametrize(
        "spec, l, match",
        [
            (InfiniteSphericalWell(L=1e-200), 0, "overflows.*L=1e-200"),
            (InfiniteSphericalWell(L=1e-160), 1, "overflows.*L=1e-160"),
            (InfiniteSphericalWell(L=1e300), 1, "underflows.*L=1e\\+300"),
            # Z e^2 underflows to 0 or overflows: hbar^2 / (m Z e^2) is inf or 0
            (HydrogenLike(Z=1, e_charge=1e-200), 0, "length scale overflows.*e=1e-200"),
            (HydrogenLike(Z=2, e_charge=1e300), 1, "length scale underflows.*e=1e\\+300"),
        ],
    )
    def test_rejects_non_normal_energy_scale(self, spec, l, match):
        # hbar^2 / (m L^2) and m (Z e^2)^2 / hbar^2 are 0, subnormal or infinite
        with pytest.raises(DomainError, match=match):
            EffectivePotential(spec, l=l)

    def test_monotone_cases_raise(self):
        assert EffectivePotential(FreeParticle(), l=0).minimum is None
        assert EffectivePotential(InfiniteSphericalWell(L=1.0), l=0).minimum is None
        assert EffectivePotential(HydrogenLike(), l=0).minimum is None

    def test_unimodal_shape_for_l1(self):
        for spec in (IsotropicHO(omega=1.0), HOSpinOrbit(omega=1.0, j=1.5, c0=0.015), Parabolic(a=1.0, b=1.0, c=1.0)):
            U = EffectivePotential(spec, l=1)
            r_min, _ = U.minimum
            left = [eval_effective(U, r) for r in np.linspace(0.05 * r_min, 0.95 * r_min, 500)]
            right = [eval_effective(U, r) for r in np.linspace(1.05 * r_min, 5.0 * r_min, 500)]
            assert all(a > b for a, b in zip(left, left[1:]))
            assert all(a < b for a, b in zip(right, right[1:]))


def shift(omega, j, l, units=NATURAL, c0=None):
    return EffectivePotential(HOSpinOrbit(omega=omega, j=j, c0=c0), l=l, units=units).spin_orbit_shift


class TestSpinOrbitConstant:
    def test_c0_mode_d52(self):
        # bracket = 5/2*7/2 - 2*3 - 1/2*3/2 = 8.75 - 6 - 0.75 = 2
        assert shift(1.0, 2.5, 2, c0=0.015) == pytest.approx(0.015, rel=1e-14)

    def test_c0_mode_negative_bracket(self):
        # l=3, j=5/2: bracket = 8.75 - 12 - 0.75 = -4
        assert shift(1.0, 2.5, 3, c0=0.015) == pytest.approx(-0.030, rel=1e-14)

    def test_vanishing_bracket(self):
        # c0 = 0 gives 0 for any coupling
        assert shift(1.0, 1.5, 1, c0=0.0) == 0.0

    def test_bracket_antisymmetry(self):
        # l=2: j=5/2 has bracket +2, j=3/2 has 3.75 - 6 - 0.75 = -3
        up = shift(1.0, 2.5, 2, c0=0.3)
        down = shift(1.0, 1.5, 2, c0=0.3)
        assert down == pytest.approx(-1.5 * up, rel=1e-13)

    def test_relativistic_mode(self):
        c = shift(1.0, 2.5, 2, EV_NM)
        expected = EV_NM.hbar**2 * 1.0 / (2.0 * EV_NM.mass * EV_NM.light_speed**2) * 2.0
        assert c == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("omega, kind", [(1e200, "overflows"), (1e-160, "underflows")])
    def test_relativistic_prefactor_must_be_normal(self, omega, kind):
        # checked like the other energy scales: it must be a normal float
        with pytest.raises(DomainError, match=f"prefactor.*{kind}"):
            shift(omega, 1.5, 1)

    def test_invalid_triple_rejected(self):
        with pytest.raises(DomainError):
            shift(1.0, 4.5, 1, c0=0.0)
        with pytest.raises(DomainError):
            validate_jls(0.5, 2, 0.5)

    def test_valid_triples_accepted(self):
        validate_jls(2.5, 2, 0.5)
        validate_jls(1.5, 2, 0.5)
        validate_jls(0.5, 0, 0.5)


class TestConstruction:
    @pytest.mark.parametrize("Z", [math.inf, -math.inf, math.nan, 0, 1.5])
    def test_hydrogen_rejects_a_charge_number_that_is_no_positive_integer(self, Z):
        with pytest.raises(DomainError, match="Z must be a positive integer"):
            HydrogenLike(Z=Z)

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


#: 10^k and 1.37 10^k for k from -320 to 307: subnormal r, r * r underflowing, U overflowing
RADII = [m * 10.0**k for k in range(-320, 308) for m in (1.0, 1.37)]


class TestUnderflowingRadius:
    """Below r of about 1.5e-162, r * r underflows to 0."""

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: type(spec).__name__)
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_scalar_and_array_agree(self, spec, l):
        if isinstance(spec, HOSpinOrbit):
            spec = HOSpinOrbit(omega=spec.omega, j=l + 0.5, c0=spec.c0)
        for units in (NATURAL, EV_NM):
            U = EffectivePotential(spec, l=l, units=units)
            scalar = np.array([eval_effective(U, x) for x in RADII])
            array = eval_effective_array(U, np.array(RADII))  # a RuntimeWarning fails the test
            assert array.tobytes() == scalar.tobytes()
            # the centrifugal term is +inf for l >= 1 and absent for l = 0
            expected = U.eval_potential(1e-200) if l == 0 else INFINITE
            assert eval_effective(U, 1e-200) == expected


class TestNonFiniteRadius:
    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_eval_potential_rejects_it(self, r):
        for spec in CATALOG:
            with pytest.raises(DomainError, match="finite"):
                EffectivePotential(spec, l=1).eval_potential(r)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_eval_effective_rejects_it(self, r):
        for spec in CATALOG:
            with pytest.raises(DomainError, match="finite"):
                eval_effective(EffectivePotential(spec, l=1), r)

    @pytest.mark.parametrize("r", [[math.inf], [1.0, math.inf], [math.nan, 1.0], [[1.0], [-math.inf]]])
    def test_eval_effective_array_rejects_it(self, r):
        for spec in CATALOG:
            with pytest.raises(DomainError, match="finite"):
                eval_effective_array(EffectivePotential(spec, l=1), np.array(r))


def same_bits(x, y) -> bool:
    return repr(x) == repr(y)


@pytest.mark.parametrize("l", [0, 1, 2])
@pytest.mark.parametrize("omega", [0.5, 1.7])
def test_spin_orbit_without_coupling_is_the_oscillator(l, omega):
    """HOSpinOrbit with c0 = 0 has the oscillator's coefficients: every result matches bit for bit."""
    ho = EffectivePotential(IsotropicHO(omega), l)
    r = np.geomspace(1e-3, 1e3, 97)
    for j in {l + 0.5, abs(l - 0.5)}:
        so = EffectivePotential(HOSpinOrbit(omega, j=j, c0=0.0), l)
        assert eval_effective_array(so, r).tobytes() == eval_effective_array(ho, r).tobytes()
        assert all(same_bits(eval_effective(so, x), eval_effective(ho, x)) for x in r)
        for branch in (Ground(), Symmetric(2), Antisymmetric(1), General(3)):
            level_ho = self_consistent_energy(ho, branch)
            level_so = self_consistent_energy(so, branch)
            assert same_bits(level_so.value, level_ho.value)
            assert same_bits(level_so.d_at_solution, level_ho.d_at_solution)
            E = level_ho.value
            tp_ho, tp_so = turning_points(ho, E), turning_points(so, E)
            assert same_bits((tp_so.r1, tp_so.r2), (tp_ho.r1, tp_ho.r2))
            for method in ("closed_form", "numeric"):
                assert same_bits(area_S(so, tp_so, method), area_S(ho, tp_ho, method))
                q_so = phase_Q(so, tp_so.r2, tp_so.r0, method)
                assert same_bits(q_so, phase_Q(ho, tp_ho.r2, tp_ho.r0, method))


# ---------------------------------------------------------------- one validation point

VALUES = [1e-320, 1e-300, 1e-200, 1e-160, 0.5, 1.0, 2.0, 1e200, 1e300, math.nan, math.inf, -1.0, 0.0]
FAMILIES = {
    HydrogenLike: ("Z", "e_charge"),
    InfiniteSphericalWell: ("L",),
    IsotropicHO: ("omega",),
    HOSpinOrbit: ("omega", "j", "s", "c0"),
    Parabolic: ("a", "b", "c"),
    FreeParticle: (),
}
# energies and bracket edges, in units of the energy scale of U
MULTIPLES = [-1e300, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 1e300]


@st.composite
def cases(draw):
    family = draw(st.sampled_from(list(FAMILIES)))
    l = draw(st.integers(0, 4))
    params = {key: draw(st.sampled_from(VALUES)) for key in FAMILIES[family]}
    if family is HydrogenLike:
        params["Z"] = draw(st.sampled_from([0, 1, 2, 3]))
    if family is HOSpinOrbit:
        # mostly a coupling that validate_jls accepts, so that the scales get checked
        params["s"] = s = draw(st.just(0.5) | st.sampled_from(VALUES))
        params["j"] = draw(st.sampled_from([l + s, abs(l - s)]) | st.sampled_from(VALUES))
        params["c0"] = draw(st.none() | st.sampled_from(VALUES))
    units = draw(st.sampled_from([NATURAL, EV_NM]))
    energies = [draw(st.sampled_from(MULTIPLES)) for _ in range(3)]
    return family, params, l, units, *energies


def is_normal(x):
    return sys.float_info.min <= abs(x) < INFINITE


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=cases())
@example(case=(Parabolic, {"a": 1e-320, "b": 1.0, "c": 1.0}, 1, NATURAL, 2.0, 0.5, 2.0))
@example(case=(HydrogenLike, {"Z": 1, "e_charge": 1e-200}, 1, NATURAL, -0.5, -1.0, 0.0))
def test_scales_are_checked_once_where_U_is_built(case):
    family, params, l, units, e, lo, hi = case
    try:
        U = EffectivePotential(family(**params), l=l, units=units)
    except DomainError:
        return
    assert is_normal(U.length_scale) and is_normal(U.energy_scale)
    assert U.spin_orbit_shift == 0.0 or is_normal(U.spin_orbit_shift)
    scale = U.energy_scale
    for solve in (
        lambda: turning_points(U, e * scale),
        lambda: self_consistent_energy(U, General(1), signed=isinstance(U.spec, HydrogenLike)),
        lambda: numerov_bound_state(U, 0, (lo * scale, hi * scale)),
    ):
        try:
            solve()
        except RadialSolveError:
            pass


def spec_grid():
    """(family, parameters, l values) of every catalog spec with its
    parameters from VALUES; a spin-orbit j is l +- 1/2, so that the scales
    of the spec get checked."""
    for Z, e in itertools.product([1, 3], VALUES):
        yield HydrogenLike, {"Z": Z, "e_charge": e}, range(5)
    for x in VALUES:
        yield InfiniteSphericalWell, {"L": x}, range(5)
        yield IsotropicHO, {"omega": x}, range(5)
    for omega, c0, l in itertools.product(VALUES, [None, *VALUES], range(5)):
        for j in {l + 0.5, abs(l - 0.5)}:
            yield HOSpinOrbit, {"omega": omega, "j": j, "c0": c0}, [l]
    for a, b, c in itertools.product(VALUES, repeat=3):
        yield Parabolic, {"a": a, "b": b, "c": c}, range(5)
    yield FreeParticle, {}, range(5)


def test_every_spec_is_rejected_or_has_normal_scales():
    built = 0
    for family, params, ls in spec_grid():
        for l, units in itertools.product(ls, [NATURAL, EV_NM]):
            try:
                U = EffectivePotential(family(**params), l=l, units=units)
            except DomainError:
                continue
            built += 1
            assert is_normal(U.length_scale) and is_normal(U.energy_scale), U
            assert U.spin_orbit_shift == 0.0 or is_normal(U.spin_orbit_shift), U
    assert built > 1000


# ---------------------------------------------------------------- the minimum of U

# log-uniform over six decades
MODERATE = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)


@st.composite
def catalog_potentials(draw, family):
    """A U of the catalog ``family``, either unit preset and l 0-3, with moderate parameters."""
    l = draw(st.integers(0, 3))
    if family is HydrogenLike:
        spec = HydrogenLike(Z=draw(st.integers(1, 3)), e_charge=draw(st.floats(0.1, 10.0)))
    elif family is InfiniteSphericalWell:
        spec = InfiniteSphericalWell(L=draw(MODERATE))
    elif family is IsotropicHO:
        spec = IsotropicHO(omega=draw(MODERATE))
    elif family is HOSpinOrbit:
        j = draw(st.sampled_from(sorted({l + 0.5, abs(l - 0.5)})))
        spec = HOSpinOrbit(omega=draw(MODERATE), j=j, c0=draw(st.none() | MODERATE))
    elif family is Parabolic:
        spec = Parabolic(a=draw(MODERATE), b=draw(MODERATE), c=draw(MODERATE))
    else:
        spec = FreeParticle()
    return EffectivePotential(spec, l=l, units=draw(st.sampled_from([NATURAL, EV_NM])))


@pytest.mark.parametrize("family", list(FAMILIES))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_minimum_and_turning_points_agree(family, data):
    U = data.draw(catalog_potentials(family))
    f = data.draw(st.floats(1e-3, 0.99))
    if U.minimum is None:
        monotone = isinstance(U.spec, FreeParticle) or (
            U.l == 0 and isinstance(U.spec, (InfiniteSphericalWell, HydrogenLike))
        )
        assert monotone, U
        return
    r_min, u_min = U.minimum
    if r_min > 0:
        assert eval_effective(U, r_min * (1 - 1e-6)) >= u_min
        assert eval_effective(U, r_min * (1 + 1e-6)) >= u_min
    else:
        assert eval_effective(U, 1e-6 * U.length_scale) >= u_min
    # a bound Coulomb level stays below 0
    t = f * (-u_min if U.coulomb > 0 else 10.0 * U.energy_scale)
    E = u_min + t
    tp = turning_points(U, E)
    assert tp.r1 <= r_min <= tp.r2
    # E lies between U one part in 1e12 inside and outside each root
    for r in (tp.r1, tp.r2):
        if r > 0:
            lo, hi = sorted((eval_effective(U, r * (1 - 1e-12)), eval_effective(U, r * (1 + 1e-12))))
            assert lo <= E <= hi, (r, lo, E, hi)


class TestUnknownSpec:
    @pytest.mark.parametrize("spec", ["hello", SimpleNamespace(a=1.0, b=1.0, c=1.0)])
    def test_is_rejected_where_U_is_built(self, spec):
        # not a catalog class: no family fills the coefficients, so U must not pass for free
        with pytest.raises(DomainError, match=f"unknown potential spec {re.escape(repr(spec))}"):
            EffectivePotential(spec, l=1)


def _rounding_of_u(U, r: float) -> float:
    """8 ulps of the largest term of U at r: the rounding one evaluation of U can carry."""
    terms = (U.quadratic * r * r, U.linear * r, abs(U.offset), U.coulomb / r, U.centrifugal_coeff / (r * r))
    return 8.0 * sys.float_info.epsilon * max(terms)


@pytest.mark.parametrize("family", list(FAMILIES))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_least_u_lies_at_or_below_a_fine_scan(family, data):
    # half the spans hold r_min (the wall, for the well with l >= 1); the
    # others reach from 1e-3 to about 1e3 length scales, past any wall
    U = data.draw(catalog_potentials(family))
    if U.minimum is not None and U.minimum[0] > 0 and data.draw(st.booleans()):
        lo = U.minimum[0] * data.draw(st.floats(0.05, 1.0))
        hi = U.minimum[0] * data.draw(st.floats(1.0, 20.0))
    else:
        lo = U.length_scale * 10.0 ** data.draw(st.floats(-3.0, 1.5))
        hi = lo * data.draw(st.floats(1.0, 30.0))
    r, u = U.least(lo, hi)
    assert lo <= r <= hi
    if U.minimum is not None and r == U.minimum[0]:
        # the closed forms of u_min round differently from U itself
        assert u == U.minimum[1]
        if r < U.wall:
            assert abs(u - eval_effective(U, r)) <= _rounding_of_u(U, r), (U, lo, hi)
    else:
        assert u == eval_effective(U, r)
    # the reference: 10,001 even points of the span, both ends included
    xs = np.linspace(lo, hi, 10_001)
    scan = eval_effective_array(U, xs)
    i = int(np.argmin(scan))
    assert u <= scan[i] + _rounding_of_u(U, float(xs[i])), (U, lo, hi, r, u, float(xs[i]), float(scan[i]))


def test_hydrogen_minimum_where_k_squared_overflows():
    # k = 1e160: k * k overflows, while u_min = -k^2 / (4 coeff) = -2.5e299 does not
    U = EffectivePotential(HydrogenLike(Z=1, e_charge=1e80), l=1, units=UnitSystem(hbar=1e10, mass=1.0))
    assert U.minimum == pytest.approx((2e-140, -2.5e299), rel=1e-15)
    assert U.least(1e-140, 4e-140) == U.minimum


# a float power of a caller value, a product or an integer past the float range:
# each raised OverflowError or ZeroDivisionError, or returned -inf
PAST_THE_FLOAT_RANGE = {
    "hbar^2 overflows": lambda: EffectivePotential(IsotropicHO(1.0), 1, UnitSystem(hbar=1e200)),
    "c^2 underflows": lambda: EffectivePotential(HOSpinOrbit(1.0, 2.5), 2, UnitSystem(light_speed=1e-200)),
    "c^2 overflows": lambda: EffectivePotential(HOSpinOrbit(1.0, 2.5), 2, UnitSystem(light_speed=1e200)),
    "e^4 overflows": lambda: bohr_energy(1, 1, e_charge=1e100),
    "Z^2 overflows": lambda: bohr_energy(10**200, 1),
    "n^2 past the float range": lambda: bohr_energy(1, 10**200),
    "x * x underflows": lambda: spherical_bessel(3, 1e-200),
    "theta^2 overflows": lambda: branch_g(General(10**300)),
    "l past the float range": lambda: ho_so_oracle_energy(0, 10**400, 0.5, 0.5, 0.01, 1.0),
}


@pytest.mark.parametrize("call", PAST_THE_FLOAT_RANGE.values(), ids=PAST_THE_FLOAT_RANGE)
def test_a_value_past_the_float_range_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()
