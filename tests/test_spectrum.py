"""Tests for the energy formulas and the self-consistent solver."""

import itertools
import math

import pytest

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
    delta_model_energy,
    excited_energy_from_d,
    ground_energy_from_d,
    ho_energies,
    ho_spin_orbit_energies,
    hydrogen_ground_energy,
    self_consistent_energy,
    well_energies,
)


class TestGroundEnergyFromD:
    def test_unit_inputs(self):
        assert ground_energy_from_d(1.0, NATURAL) == pytest.approx(2.0)

    def test_signed(self):
        assert ground_energy_from_d(2.0, NATURAL, signed=True) == pytest.approx(-0.5)

    def test_quarter_scaling(self):
        u = UnitSystem(hbar=3.0, mass=0.7)
        assert ground_energy_from_d(2.0, u) == pytest.approx(0.25 * ground_energy_from_d(1.0, u))

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            ground_energy_from_d(0.0, NATURAL)


class TestDeltaModel:
    def test_unit_strength(self):
        k, E, A = delta_model_energy(1.0, NATURAL)
        assert k == pytest.approx(1.0)
        assert E == pytest.approx(-0.5)
        assert A == pytest.approx(1.0)

    def test_strength_two(self):
        _, E, _ = delta_model_energy(2.0, NATURAL)
        assert E == pytest.approx(-2.0)

    def test_zero_strength_rejected(self):
        with pytest.raises(DomainError):
            delta_model_energy(0.0, NATURAL)

    def test_sign_of_s_irrelevant_for_energy(self):
        assert delta_model_energy(-1.5, NATURAL)[1] == delta_model_energy(1.5, NATURAL)[1]

    def test_hydrogen_consistency(self):
        # at the bound fixed point E0 = -2 hbar^2/(m d^2), the product S = E0 d
        # fed back through the delta model reproduces E0
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=0)
        level = self_consistent_energy(U, Ground(), signed=True)
        S = level.value * level.d_at_solution
        _, E, _ = delta_model_energy(S, NATURAL)
        assert E == pytest.approx(level.value, rel=1e-9)


class TestExcitedEnergyFromD:
    def test_general_2n_equals_antisymmetric_n(self):
        for d in (0.5, 1.0, 3.0):
            for n in range(1, 11):
                assert excited_energy_from_d(d, General(2 * n), NATURAL) == pytest.approx(
                    excited_energy_from_d(d, Antisymmetric(n), NATURAL), rel=1e-15
                )

    def test_general_odd_equals_symmetric(self):
        for d in (0.5, 1.0, 3.0):
            for n in range(1, 11):
                assert excited_energy_from_d(d, General(2 * n - 1), NATURAL) == pytest.approx(
                    excited_energy_from_d(d, Symmetric(n), NATURAL), rel=1e-15
                )

    def test_general_1_value(self):
        assert excited_energy_from_d(1.0, General(1), NATURAL) == pytest.approx(math.pi**2 / 2)

    def test_symmetric_1_value(self):
        assert excited_energy_from_d(1.0, Symmetric(1), NATURAL) == pytest.approx(math.pi**2 / 2)

    def test_monotone_in_n(self):
        vals = [excited_energy_from_d(1.0, General(n), NATURAL) for n in range(1, 8)]
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
                plus, _ = well_energies(1.0, l, branch_g(General(n), NATURAL), NATURAL)
                assert level.value == pytest.approx(plus, rel=1e-8)

    def test_matches_ho_closed_form(self):
        for l in range(5):
            for n in range(1, 4):
                U = EffectivePotential(IsotropicHO(omega=1.0), l=l)
                level = self_consistent_energy(U, General(n))
                closed = ho_energies(1.0, l, branch_theta(General(n)) ** 2, NATURAL)
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
                    closed = ho_spin_orbit_energies(
                        1.0, l, j, 0.5, c0, branch_theta(General(n)) ** 2 / 4.0, NATURAL
                    )
                    assert level.value == pytest.approx(closed, rel=1e-8)


class TestHydrogen:
    def test_physical_ground_state(self):
        E = hydrogen_ground_energy(1, 0, EV_NM, e_charge=E_CHARGE_EV_NM)
        assert E == pytest.approx(-13.6, abs=0.1)

    def test_z_squared_scaling(self):
        e1 = hydrogen_ground_energy(1, 0, NATURAL)
        e2 = hydrogen_ground_energy(2, 0, NATURAL)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-14)

    def test_l1_natural_units(self):
        assert hydrogen_ground_energy(1, 1, NATURAL) == pytest.approx(-1.0 / 6.0, rel=1e-14)
        # cross-check against the signed self-consistent solver
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1)
        level = self_consistent_energy(U, Ground(), signed=True)
        assert level.value == pytest.approx(-1.0 / 6.0, rel=1e-8)

    def test_signed_solver_matches_closed_form_physical(self):
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=E_CHARGE_EV_NM), l=0, units=EV_NM)
        level = self_consistent_energy(U, Ground(), signed=True)
        closed = hydrogen_ground_energy(1, 0, EV_NM, e_charge=E_CHARGE_EV_NM)
        assert abs(level.value - closed) <= 1e-6 * abs(closed)


class TestWellEnergies:
    # reduced unit hbar^2 / 2 m L^2 = 0.5 in natural units with L = 1
    UNIT = 0.5

    def test_table_rows(self):
        unit_g = branch_g(General(1), NATURAL)
        plus, minus = well_energies(1.0, 0, unit_g, NATURAL)
        assert plus / self.UNIT == pytest.approx(9.870, abs=0.001)
        assert minus / self.UNIT == pytest.approx(9.870, abs=0.001)
        plus, minus = well_energies(1.0, 1, unit_g, NATURAL)
        assert plus / self.UNIT == pytest.approx(20.755, abs=0.001)
        assert minus / self.UNIT == pytest.approx(2.984, abs=0.001)
        plus, minus = well_energies(1.0, 2, branch_g(General(2), NATURAL), NATURAL)
        assert plus / self.UNIT == pytest.approx(76.260, abs=0.001)
        assert minus / self.UNIT == pytest.approx(14.697, abs=0.001)

    def test_equivalent_form(self):
        # [(sqrt(a) + sqrt(g))/L]^2 equals (hbar^2/2mL^2)[sqrt(l(l+1)) + pi n]^2
        for l in range(4):
            for n in range(1, 4):
                plus, _ = well_energies(1.0, l, branch_g(General(n), NATURAL), NATURAL)
                direct = self.UNIT * (math.sqrt(l * (l + 1)) + math.pi * n) ** 2
                assert plus == pytest.approx(direct, rel=1e-12)

    def test_minus_branch_below_plus(self):
        for l in range(4):
            plus, minus = well_energies(1.0, l, branch_g(General(1), NATURAL), NATURAL)
            assert minus <= plus


class TestHOEnergies:
    def test_table_rows(self):
        g1, g2 = branch_theta(General(1)) ** 2, branch_theta(General(2)) ** 2
        assert ho_energies(1.0, 0, g1, NATURAL) == pytest.approx(1.571, abs=0.001)
        assert ho_energies(1.0, 1, g1, NATURAL) == pytest.approx(2.430, abs=0.001)
        assert ho_energies(1.0, 2, g2, NATURAL) == pytest.approx(4.597, abs=0.001)

    def test_positive_g_required(self):
        with pytest.raises(DomainError):
            ho_energies(1.0, 0, 0.0, NATURAL)


class TestHOSpinOrbit:
    def test_table_rows(self):
        hw = 1.0
        c0 = 0.015 * hw
        g = branch_theta(General(1)) ** 2 / 4.0
        e_d52 = ho_spin_orbit_energies(1.0, 2, 2.5, 0.5, c0, g, NATURAL)
        e_f72 = ho_spin_orbit_energies(1.0, 3, 3.5, 0.5, c0, g, NATURAL)
        assert e_d52 == pytest.approx(3.204, abs=0.001)
        assert e_f72 == pytest.approx(4.051, abs=0.001)

    def test_zero_coupling_reduces_to_ho(self):
        for l in range(5):
            for j in (l - 0.5, l + 0.5):
                if j < 0.5:
                    continue
                g = branch_theta(General(1)) ** 2
                a = ho_spin_orbit_energies(1.0, l, j, 0.5, 0.0, g / 4.0, NATURAL)
                b = ho_energies(1.0, l, g, NATURAL)
                assert a == pytest.approx(b, rel=1e-14)

    def test_invalid_coupling_rejected(self):
        with pytest.raises(DomainError):
            ho_spin_orbit_energies(1.0, 2, 4.5, 0.5, 0.015, 1.0, NATURAL)


def parabolic_level(a, b, c, l, branch):
    return self_consistent_energy(EffectivePotential(Parabolic(a=a, b=b, c=c), l=l), branch)


class TestParabolic:
    def test_small_b_c_limit_matches_ho(self):
        # V = a r^2 + b r + c tends to the oscillator with a = m omega^2 / 2
        omega = math.sqrt(2.0)  # a = 1
        for l in (0, 1):
            level = parabolic_level(1.0, 1e-10, 1e-10, l, General(1))
            closed = ho_energies(omega, l, branch_theta(General(1)) ** 2, NATURAL)
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
