"""Tests for the energy formulas and the self-consistent solver."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radialsolve.spectrum as spectrum
from radialsolve.errors import ConvergenceError, DomainError
from radialsolve.potentials import (
    EV_NM,
    E_CHARGE_EV_NM,
    NATURAL,
    EffectivePotential,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
    UnitSystem,
)
from radialsolve.spectrum import (
    Antisymmetric,
    General,
    Ground,
    Symmetric,
    branch_g,
    branch_theta,
    closed_form_energy,
    self_consistent_energy,
)
from radialsolve.report import reproduce_table
from radialsolve.turning_points import turning_points
from radialsolve.wavefunctions import delta_model_wavefunction


class TestGroundEnergyFromD:
    """The ground law E = g / d^2 = 2 hbar^2 / (m d^2), as branch_g and the solver apply it."""

    def test_unit_inputs(self):
        assert branch_g(Ground(), NATURAL) / 1.0**2 == pytest.approx(2.0)

    def test_signed(self):
        # the signed (bound Coulomb) solve ends at E = -g / d^2
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=0)
        level = self_consistent_energy(U, Ground(), signed=True)
        d = level.d_at_solution
        assert level.value == pytest.approx(-branch_g(Ground(), NATURAL) / d**2, rel=1e-9)
        assert -branch_g(Ground(), NATURAL) / 2.0**2 == pytest.approx(-0.5)

    def test_quarter_scaling(self):
        # a well twice as wide (d = L) has a quarter of the ground energy
        u = UnitSystem(hbar=3.0, mass=0.7)
        E1, E2 = (
            self_consistent_energy(EffectivePotential(InfiniteSphericalWell(L=L), l=0, units=u), Ground()).value
            for L in (1.0, 2.0)
        )
        assert E2 == pytest.approx(0.25 * E1)
        assert E1 == pytest.approx(branch_g(Ground(), u))

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            InfiniteSphericalWell(L=0.0)


def _delta_energy(S: float, r0: float, side: float, units: UnitSystem = NATURAL) -> float:
    """E of the bound state of S delta(r - r0), read off D = delta_model_wavefunction.

    k = m|S|/hbar^2, and away from r0 -(hbar^2 / 2m) D'' = E D, with D'' by a
    central difference one decay length 1/k to the ``side`` (+1 or -1) of r0.
    """
    k = units.mass * abs(S) / units.hbar**2
    r, h = r0 + side / k, 1e-4 / k
    D = [delta_model_wavefunction(k, r0, x) for x in (r - h, r, r + h)]
    return -0.5 * units.hbar2_over_m * (D[0] - 2.0 * D[1] + D[2]) / (h * h) / D[1]


class TestDeltaModel:
    """k = m|S|/hbar^2 and E = -m S^2 / (2 hbar^2) of the delta-model state D."""

    def test_unit_strength(self):
        assert delta_model_wavefunction(1.0, 3.0, 3.0) == 1.0  # |A| = sqrt(k) = 1
        assert _delta_energy(1.0, 3.0, +1.0) == pytest.approx(-0.5, rel=1e-6)

    def test_strength_two(self):
        assert _delta_energy(2.0, 3.0, +1.0) == pytest.approx(-2.0, rel=1e-6)

    def test_zero_strength_rejected(self):
        # S = 0 gives k = 0, which supports no bound state
        with pytest.raises(DomainError):
            delta_model_wavefunction(NATURAL.mass * abs(0.0) / NATURAL.hbar**2, 3.0, 3.0)

    def test_sign_of_s_irrelevant_for_energy(self):
        assert _delta_energy(-1.5, 3.0, +1.0) == _delta_energy(1.5, 3.0, +1.0)
        # D is even about r0, so either side gives the same E
        assert _delta_energy(1.5, 3.0, -1.0) == pytest.approx(_delta_energy(1.5, 3.0, +1.0), rel=1e-9)

    def test_hydrogen_consistency(self):
        # at the bound fixed point E0 = -2 hbar^2/(m d^2), the product S = E0 d
        # fed back through the delta model reproduces E0
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=0)
        level = self_consistent_energy(U, Ground(), signed=True)
        S = level.value * level.d_at_solution
        assert _delta_energy(S, 10.0, +1.0) == pytest.approx(level.value, rel=1e-6)


class TestExcitedEnergyFromD:
    """Branch energies g(branch) / d^2, g from branch_g."""

    def test_general_2n_equals_antisymmetric_n(self):
        for d in (0.5, 1.0, 3.0):
            for n in range(1, 11):
                assert branch_g(General(2 * n), NATURAL) / (d * d) == pytest.approx(
                    branch_g(Antisymmetric(n), NATURAL) / (d * d), rel=1e-15
                )

    def test_general_odd_equals_symmetric(self):
        for d in (0.5, 1.0, 3.0):
            for n in range(1, 11):
                assert branch_g(General(2 * n - 1), NATURAL) / (d * d) == pytest.approx(
                    branch_g(Symmetric(n), NATURAL) / (d * d), rel=1e-15
                )

    def test_general_1_value(self):
        # in a well d = L, so the solver's level is g / L^2
        U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=0)
        assert self_consistent_energy(U, General(1)).value == pytest.approx(math.pi**2 / 2)

    def test_symmetric_1_value(self):
        U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=0)
        assert self_consistent_energy(U, Symmetric(1)).value == pytest.approx(math.pi**2 / 2)

    def test_monotone_in_n(self):
        vals = [branch_g(General(n), NATURAL) for n in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_branch_validation(self):
        with pytest.raises(DomainError):
            General(0)
        with pytest.raises(DomainError):
            Symmetric(-1)


class TestSelfConsistent:
    def test_well_l1_ground(self):
        U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=1)
        level = self_consistent_energy(U, Ground())
        assert level.value == pytest.approx((1.0 + math.sqrt(2.0)) ** 2, rel=1e-9)

    def test_ho_l0_ground(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        level = self_consistent_energy(U, Ground())
        assert level.value == pytest.approx(1.0, rel=1e-9)

    def test_ho_l0_general_1(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        level = self_consistent_energy(U, General(1))
        assert level.value == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_converged_invariant(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=2)
        level = self_consistent_energy(U, Symmetric(2))
        g = branch_g(Symmetric(2), NATURAL)
        residual = abs(level.value - g / level.d_at_solution**2)
        assert residual <= 1e-10 * max(1.0, abs(level.value))

    @pytest.mark.parametrize(
        "spec, l", [(IsotropicHO(omega=1.0), 1), (Parabolic(a=0.001, b=0.001, c=1000.0), 0)]
    )
    def test_planted_level_off_by_1e_9_is_refused(self, monkeypatch, spec, l):
        # the tolerance of E itself accounts for a residual of a few ulps of
        # E, never for an E that is 1e-9 off
        solve = spectrum.brentq

        def off_by_1e_9(f, a, b, **tol):
            E, iterations = solve(f, a, b, **tol)
            return E * (1.0 + 1e-9), iterations

        monkeypatch.setattr(spectrum, "brentq", off_by_1e_9)
        with pytest.raises(ConvergenceError, match="not converged"):
            self_consistent_energy(EffectivePotential(spec, l=l), General(1))

    def test_levels_next_to_a_large_floor(self):
        # with c = 1000 and a, b small, h = E - g / d^2 moves by about 3e-6
        # per ulp of E near the level, so no float meets the 1e-10 residual
        branches = [Ground(), Symmetric(1), Antisymmetric(1), General(1), General(2)]
        for a, b, c in itertools.product([1e-3, 1e3], repeat=3):
            for l, branch in itertools.product(range(4), branches):
                U = EffectivePotential(Parabolic(a=a, b=b, c=c), l=l)
                assert self_consistent_energy(U, branch).value > c

    def test_matches_well_closed_form(self):
        for l in range(5):
            for n in range(1, 4):
                U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=l)
                level = self_consistent_energy(U, General(n))
                plus = closed_form_energy(U, General(n))
                assert level.value == pytest.approx(plus, rel=1e-8)

    def test_matches_ho_closed_form(self):
        for l in range(5):
            for n in range(1, 4):
                U = EffectivePotential(IsotropicHO(omega=1.0), l=l)
                level = self_consistent_energy(U, General(n))
                closed = closed_form_energy(U, General(n))
                assert level.value == pytest.approx(closed, rel=1e-8)

    def test_matches_ho_so_closed_form(self):
        c0 = 0.015
        for l in range(5):
            for j in (l - 0.5, l + 0.5):
                if j < 0.5:
                    continue
                for n in range(1, 4):
                    U = EffectivePotential(HOSpinOrbit(omega=1.0, j=j, s=0.5, c0=c0), l=l)
                    level = self_consistent_energy(U, General(n))
                    closed = closed_form_energy(U, General(n))
                    assert level.value == pytest.approx(closed, rel=1e-8)


def hydrogen_ground(Z, l, units=NATURAL, e_charge=1.0):
    U = EffectivePotential(HydrogenLike(Z=Z, e_charge=e_charge), l=l, units=units)
    return closed_form_energy(U, Ground())


class TestHydrogen:
    def test_physical_ground_state(self):
        E = hydrogen_ground(1, 0, EV_NM, e_charge=E_CHARGE_EV_NM)
        assert E == pytest.approx(-13.6, abs=0.1)

    def test_z_squared_scaling(self):
        e1 = hydrogen_ground(1, 0)
        e2 = hydrogen_ground(2, 0)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-14)

    def test_l1_natural_units(self):
        assert hydrogen_ground(1, 1) == pytest.approx(-1.0 / 6.0, rel=1e-14)
        # cross-check against the signed self-consistent solver
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1)
        level = self_consistent_energy(U, Ground(), signed=True)
        assert level.value == pytest.approx(-1.0 / 6.0, rel=1e-8)

    def test_signed_solver_matches_closed_form_physical(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=E_CHARGE_EV_NM), l=0, units=EV_NM)
        level = self_consistent_energy(U, Ground(), signed=True)
        closed = closed_form_energy(U, Ground())
        assert abs(level.value - closed) <= 1e-6 * abs(closed)

    def test_closed_form_is_finite_where_k_squared_overflows(self):
        # k = 1e160: k * k overflows, the level -k^2 / (g + 4 coeff) does not
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1e80), l=1, units=UnitSystem(hbar=1e10, mass=1.0))
        closed = closed_form_energy(U, Ground())
        solved = self_consistent_energy(U, Ground(), signed=True).value
        assert math.isfinite(closed)
        assert abs(closed - solved) <= 1e-12 * abs(solved)


def well_level(l, n, L=1.0):
    return closed_form_energy(EffectivePotential(InfiniteSphericalWell(L=L), l=l), General(n))


def ho_level(spec, l, n=1):
    return closed_form_energy(EffectivePotential(spec, l=l), General(n))


class TestWellEnergies:
    # reduced unit hbar^2 / 2 m L^2 = 0.5 in natural units with L = 1
    UNIT = 0.5

    def test_table_rows(self):
        # the minus branch is table 1's second root, computed in the report
        minus = {r.state_label: r.method_secondary for r in reproduce_table("part2_table1")}
        assert well_level(0, 1) / self.UNIT == pytest.approx(9.870, abs=0.001)
        assert minus["1s"] == pytest.approx(9.870, abs=0.001)
        assert well_level(1, 1) / self.UNIT == pytest.approx(20.755, abs=0.001)
        assert minus["1p"] == pytest.approx(2.984, abs=0.001)
        assert well_level(2, 2) / self.UNIT == pytest.approx(76.260, abs=0.001)
        assert minus["2d"] == pytest.approx(14.697, abs=0.001)

    def test_equivalent_form(self):
        # [(sqrt(a) + sqrt(g))/L]^2 equals (hbar^2/2mL^2)[sqrt(l(l+1)) + pi n]^2
        for l in range(4):
            for n in range(1, 4):
                direct = self.UNIT * (math.sqrt(l * (l + 1)) + math.pi * n) ** 2
                assert well_level(l, n) == pytest.approx(direct, rel=1e-12)

    def test_minus_branch_below_plus(self):
        for row in reproduce_table("part2_table1"):
            assert row.method_secondary <= row.method_primary


class TestHOEnergies:
    def test_table_rows(self):
        assert ho_level(IsotropicHO(1.0), 0, 1) == pytest.approx(1.571, abs=0.001)
        assert ho_level(IsotropicHO(1.0), 1, 1) == pytest.approx(2.430, abs=0.001)
        assert ho_level(IsotropicHO(1.0), 2, 2) == pytest.approx(4.597, abs=0.001)


class TestHOSpinOrbit:
    def test_table_rows(self):
        hw = 1.0
        c0 = 0.015 * hw
        e_d52 = ho_level(HOSpinOrbit(1.0, 2.5, 0.5, c0), 2)
        e_f72 = ho_level(HOSpinOrbit(1.0, 3.5, 0.5, c0), 3)
        assert e_d52 == pytest.approx(3.204, abs=0.001)
        assert e_f72 == pytest.approx(4.051, abs=0.001)

    def test_zero_coupling_reduces_to_ho(self):
        for l in range(5):
            for j in (l - 0.5, l + 0.5):
                if j < 0.5:
                    continue
                a = ho_level(HOSpinOrbit(1.0, j, 0.5, 0.0), l)
                b = ho_level(IsotropicHO(1.0), l)
                assert a == pytest.approx(b, rel=1e-14)

    def test_invalid_coupling_rejected(self):
        with pytest.raises(DomainError):
            EffectivePotential(HOSpinOrbit(1.0, 4.5, 0.5, 0.015), l=2)


def parabolic_level(a, b, c, l, branch):
    return self_consistent_energy(EffectivePotential(Parabolic(a=a, b=b, c=c), l=l), branch)


class TestParabolic:
    def test_small_b_c_limit_matches_ho(self):
        # V = a r^2 + b r + c tends to the oscillator with a = m omega^2 / 2
        omega = math.sqrt(2.0)  # a = 1
        for l in (0, 1):
            level = parabolic_level(1.0, 1e-10, 1e-10, l, General(1))
            closed = ho_level(IsotropicHO(omega), l)
            assert level.value == pytest.approx(closed, rel=1e-6)

    def test_ground_self_consistency(self):
        level = parabolic_level(1.0, 1.0, 1.0, 0, Ground())
        assert abs(level.value - 2.0 / level.d_at_solution**2) <= 1e-10 * max(1.0, level.value)

    def test_branch_ordering(self):
        ground = parabolic_level(1.0, 1.0, 1.0, 1, Ground())
        general = parabolic_level(1.0, 1.0, 1.0, 1, General(1))
        assert general.value > ground.value


class TestTableBindings:
    @pytest.mark.parametrize("n", [1, 2])
    def test_table2_preset(self, n):
        assert branch_theta(General(n)) ** 2 == pytest.approx(n**2 * math.pi**2)


def _branch(kind, n):
    return (Ground(), Symmetric(n), Antisymmetric(n), General(n))[kind]


def scaled_spec(family, k, l, j_up=True):
    """A catalog spec whose energy scale hbar^2 / (m length^2) is about 10^k, natural units."""
    s = 10.0**k
    if family == "ho":
        return IsotropicHO(omega=s)
    if family == "hoso":
        j = l + 0.5 if j_up or l == 0 else l - 0.5
        return HOSpinOrbit(omega=s, j=j, c0=0.015 * s)  # c0 scales with hbar omega
    if family == "well":
        return InfiniteSphericalWell(L=10.0 ** (-k / 2))
    return HydrogenLike(Z=1, e_charge=10.0 ** (k / 4))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    family=st.sampled_from(["ho", "hoso", "well", "hydrogen"]),
    k=st.integers(-150, 150),
    l=st.integers(0, 3),
    kind=st.integers(0, 3),
    n=st.integers(1, 3),
    j_up=st.booleans(),
)
def test_levels_are_scale_covariant(family, k, l, kind, n, j_up):
    # the solve's floors are in the problem's own energy unit, so a level is
    # found to the same relative precision at every scale
    branch = _branch(kind, n)
    reduced = []
    for scale in (0, k):
        U = EffectivePotential(scaled_spec(family, scale, l, j_up), l=l)
        level = self_consistent_energy(U, branch, signed=family == "hydrogen").value
        closed = closed_form_energy(U, branch)
        assert abs(level - closed) <= 1e-12 * abs(closed)
        tp = turning_points(U, level)
        reduced.append((tp.r1 / U.length_scale, tp.r2 / U.length_scale))
    (r1_unit, r2_unit), (r1, r2) = reduced
    assert abs(r1 - r1_unit) <= 1e-12 * r2_unit
    assert abs(r2 - r2_unit) <= 1e-12 * r2_unit


def _old_closed_forms(spec, l, branch, units):
    """The per-family formulas that ``closed_form_energy`` replaced."""
    theta2 = branch_theta(branch) ** 2
    if isinstance(spec, InfiniteSphericalWell):
        a = units.hbar**2 * l * (l + 1) / (2.0 * units.mass)
        return ((math.sqrt(a) + math.sqrt(branch_g(branch, units))) / spec.L) ** 2
    if isinstance(spec, IsotropicHO):
        ll1 = l * (l + 1)
        return 0.5 * units.hbar * spec.omega * (math.sqrt(ll1) + math.sqrt(ll1 + theta2))
    if isinstance(spec, HOSpinOrbit):
        hw = units.hbar * spec.omega
        cj = (spec.c0 / (2.0 * hw)) * (spec.j * (spec.j + 1) - l * (l + 1) - spec.s * (spec.s + 1))
        base = math.sqrt(l * (l + 1)) - cj
        return 0.5 * hw * (base + math.sqrt(base * base + theta2))
    rydberg = units.mass * spec.e_charge**4 / (2.0 * units.hbar**2)
    return -rydberg * spec.Z * spec.Z / (1.0 + l * (l + 1))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(
    family=st.sampled_from(["ho", "hoso", "well", "hydrogen"]),
    units=st.sampled_from([NATURAL, EV_NM]),
    log_p=st.floats(-3.0, 3.0),
    l=st.integers(0, 5),
    kind=st.integers(0, 3),
    n=st.integers(1, 4),
    coupling=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
    j_up=st.booleans(),
    Z=st.integers(1, 3),
)
def test_closed_form_energy_matches_the_per_family_formulas(family, units, log_p, l, kind, n, coupling, j_up, Z):
    p = 10.0**log_p
    branch = _branch(kind, n)
    if family == "ho":
        spec = IsotropicHO(omega=p)
    elif family == "hoso":
        j = l + 0.5 if j_up or l == 0 else l - 0.5
        spec = HOSpinOrbit(omega=p, j=j, c0=coupling * units.hbar * p)
    elif family == "well":
        spec = InfiniteSphericalWell(L=p)
    else:
        # the old hydrogen formula is the ground branch only
        spec, branch = HydrogenLike(Z=Z, e_charge=p), Ground()
    new = closed_form_energy(EffectivePotential(spec, l=l, units=units), branch)
    old = _old_closed_forms(spec, l, branch, units)
    assert abs(new - old) <= 8 * math.ulp(old)
