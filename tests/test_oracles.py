"""Tests for the independent reference solvers (Bessel, ladders, Numerov)."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from radialsolve import oracles
from radialsolve.errors import ConvergenceError, DomainError
from radialsolve.oracles import (
    bessel_zero,
    bohr_energy,
    ho_oracle_energy,
    ho_so_oracle_energy,
    numerov_bound_state,
    spherical_bessel,
    well_oracle_energy,
)
from radialsolve.potentials import (
    E_CHARGE_EV_NM,
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
    eval_effective,
    eval_effective_array,
)


class TestSphericalBessel:
    def test_j0_is_sinc(self):
        for x in (0.5, 1.0, 3.0, 10.0):
            assert spherical_bessel(0, x) == pytest.approx(math.sin(x) / x, rel=1e-14)

    def test_j0_zero_at_pi(self):
        assert abs(spherical_bessel(0, math.pi)) < 1e-15

    def test_j1_zero_near_literature_value(self):
        assert abs(spherical_bessel(1, 4.49341)) < 1e-5

    def test_j2_closed_form(self):
        x = 3.0
        expected = (3.0 / x**3 - 1.0 / x) * math.sin(x) - 3.0 / x**2 * math.cos(x)
        assert spherical_bessel(2, x) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            spherical_bessel(-1, 1.0)
        with pytest.raises(DomainError):
            spherical_bessel(0, 0.0)


class TestBesselZeros:
    # (l, n) -> literature value of the n-th positive zero of j_l
    LITERATURE = {
        (0, 1): math.pi,
        (0, 2): 2.0 * math.pi,
        (1, 1): 4.49341,
        (1, 2): 7.72525,
        (2, 1): 5.76346,
        (2, 2): 9.09501,
    }

    @pytest.mark.parametrize("key", sorted(LITERATURE))
    def test_literature_values(self, key):
        l, n = key
        assert bessel_zero(l, n) == pytest.approx(self.LITERATURE[key], abs=1e-4)

    def test_roots_are_actual_zeros(self):
        for l in range(7):
            for n in (1, 2, 3):
                beta = bessel_zero(l, n)
                assert abs(spherical_bessel(l, beta)) < 1e-10

    def test_interlacing(self):
        # beta_{n,l} < beta_{n,l+1} < beta_{n+1,l}
        for l in range(6):
            for n in (1, 2, 3):
                assert bessel_zero(l, n) < bessel_zero(l + 1, n) < bessel_zero(l, n + 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            bessel_zero(7, 1)
        with pytest.raises(DomainError):
            bessel_zero(0, 0)


class TestAnalyticLadders:
    def test_well_energy_is_beta_squared(self):
        res = well_oracle_energy(1.0, 0, 1)
        assert res.value == pytest.approx(0.5 * math.pi**2, rel=1e-10)
        assert res.source == "bessel_well"
        res = well_oracle_energy(2.0, 1, 1)
        assert res.value == pytest.approx(4.49341**2 / 8.0, abs=1e-4)

    @pytest.mark.parametrize("L, kind", [(1e-300, "overflows"), (1e300, "underflows")])
    def test_well_energy_scale_must_be_normal(self, L, kind):
        # L * L underflows to 0 for L = 1e-300
        with pytest.raises(DomainError, match=f"energy scale.*{kind}"):
            well_oracle_energy(L, 1, 1)

    def test_ho_indexing(self):
        assert ho_oracle_energy(0, 0, 1.0).value == pytest.approx(1.5)
        assert ho_oracle_energy(1, 2, 1.0).value == pytest.approx(5.5)
        assert ho_oracle_energy(1, 0, 1.0).value == pytest.approx(3.5)
        with pytest.raises(DomainError):
            ho_oracle_energy(-1, 0, 1.0)

    def test_ho_so_reduces_to_ho_at_zero_coupling(self):
        plain = ho_oracle_energy(1, 2, 1.0).value
        assert ho_so_oracle_energy(1, 2, 2.5, 0.5, 0.0, 1.0).value == pytest.approx(plain)

    def test_ho_so_shift_sign(self):
        # j = l + 1/2 is shifted down by c0 l / 2, j = l - 1/2 up by c0 (l+1) / 2
        base = ho_oracle_energy(0, 3, 1.0).value
        up = ho_so_oracle_energy(0, 3, 3.5, 0.5, 0.015, 1.0).value
        down = ho_so_oracle_energy(0, 3, 2.5, 0.5, 0.015, 1.0).value
        assert up == pytest.approx(base - 0.015 * 3 / 2, rel=1e-12)
        assert down == pytest.approx(base + 0.015 * 4 / 2, rel=1e-12)

    def test_ho_so_rejects_invalid_triple(self):
        with pytest.raises(DomainError):
            ho_so_oracle_energy(0, 1, 3.5, 0.5, 0.015, 1.0)

    def test_bohr_levels(self):
        assert bohr_energy(1, 1).value == pytest.approx(-0.5, rel=1e-12)
        ev = bohr_energy(1, 1, units=EV_NM, e_charge=E_CHARGE_EV_NM)
        assert ev.value == pytest.approx(-13.6057, abs=1e-3)
        ev2 = bohr_energy(1, 2, units=EV_NM, e_charge=E_CHARGE_EV_NM)
        assert ev2.value == pytest.approx(-3.4014, abs=1e-3)
        assert bohr_energy(3, 1).value == pytest.approx(9.0 * bohr_energy(1, 1).value)
        with pytest.raises(DomainError):
            bohr_energy(1, 0)


class TestNumerov:
    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("nodes", [0, 1, 2])
    def test_ho_spectrum(self, l, nodes):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=l)
        exact = 2 * nodes + l + 1.5
        res = numerov_bound_state(U, nodes, (exact - 0.9, exact + 0.9))
        assert res.value == pytest.approx(exact, rel=1e-4)
        assert res.source == "numerov"

    @pytest.mark.parametrize("l,n", [(0, 1), (0, 2), (1, 1), (1, 2)])
    def test_well_spectrum(self, l, n):
        U = EffectivePotential(InfiniteSphericalWell(L=1.0), l=l)
        exact = well_oracle_energy(1.0, l, n).value
        res = numerov_bound_state(U, n - 1, (exact - 2.0, exact + 2.0))
        assert res.value == pytest.approx(exact, rel=1e-3)

    def test_rejects_bad_bracket(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        with pytest.raises(DomainError):
            numerov_bound_state(U, 0, (3.0, 2.0))
        # bracket entirely below the ground state has no zero-node eigenvalue
        with pytest.raises(DomainError):
            numerov_bound_state(U, 0, (0.1, 0.5))

    @pytest.mark.parametrize("nodes", [-1, -7])
    def test_rejects_a_negative_node_target_before_building_a_grid(self, nodes, sweep_log):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        with pytest.raises(DomainError, match=f"node_target must be >= 0, got {nodes}"):
            numerov_bound_state(U, nodes, (1.0, 2.0))
        assert sweep_log.sweeps == [] and sweep_log.radii is None

    def test_bracket_holding_two_levels_returns_target(self):
        # 1.5, 3.5 and 5.5 all lie in (1, 6): node bisection must isolate 3.5
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        res = numerov_bound_state(U, 1, (1.0, 6.0))
        assert res.value == pytest.approx(3.5, rel=1e-4)

    @pytest.mark.parametrize(
        "spec, l, nodes",
        [(IsotropicHO(omega=1.0), 3, 0), (IsotropicHO(omega=1.0), 3, 1), (IsotropicHO(omega=1.0), 15, 1)]
        + [(InfiniteSphericalWell(L=L), 3, 1) for L in (1e-3, 1.0, 2000.0)],
    )
    def test_ho_l3(self, spec, l, nodes, sweep_log):
        # the start rule keeps w = 1 + h^2 f / 12 >= 1/2 against the
        # centrifugal term, so u = w y has the sign of y on the whole grid and
        # negative ratios count the nodes of y; the half grid starts where
        # this holds at step 2h and, like the full grid, ends on the wall
        U = EffectivePotential(spec, l=l)
        if isinstance(spec, IsotropicHO):
            exact = ho_oracle_energy(nodes, l, spec.omega).value
            bracket = (exact - 0.9, exact + 0.9)
        else:
            exact = well_oracle_energy(spec.L, l, nodes + 1).value
            bracket = (0.8 * exact, 1.2 * exact)
        res = numerov_bound_state(U, nodes, bracket)
        assert res.value == pytest.approx(exact, rel=1e-8)
        assert len(sweep_log.sweeps) == res.sweeps
        assert {s.points for s in sweep_log.sweeps} != {len(sweep_log.radii)}
        assert min(s.lowest_w for s in sweep_log.sweeps) >= 0.5

    def test_full_grid_starts_at_its_own_step(self, sweep_log):
        # a start at h' sqrt(l (l + 1) / 6), with h' a little below the grid's
        # own step h, leaves 1 + x/12 = 0.4996 at the first point here
        U = EffectivePotential(IsotropicHO(omega=0.8242), l=1)
        res = numerov_bound_state(U, 0, (0.9901114600000003, 3.2615242400000004))
        assert res.value == pytest.approx(2.5 * 0.8242, rel=1e-8)
        full = [s for s in sweep_log.sweeps if s.points == len(sweep_log.radii)]
        assert full and min(s.lowest_w for s in full) >= 0.5

    @pytest.mark.parametrize("l", range(16))
    @pytest.mark.parametrize("nodes", [0, 2])
    def test_ho_every_l(self, l, nodes):
        # for l >= 6, U(scale) lies inside the centrifugal barrier, so r_max
        # must step past the minimum; for l >= 7, r_min must keep w > 0
        U = EffectivePotential(IsotropicHO(omega=1.0), l=l)
        exact = 2 * nodes + l + 1.5
        res = numerov_bound_state(U, nodes, (exact - 0.9, exact + 0.9))
        assert res.value == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("l", [1, 15])
    @pytest.mark.parametrize("omega", [1e-6, 1.0, 1e4, 1e150])
    def test_ho_precision_independent_of_units(self, omega, l):
        # at omega = 1e150 and l = 15, r_min^(l+1) underflows: the start values are scaled to y_1 = 1
        U = EffectivePotential(IsotropicHO(omega=omega), l=l)
        exact = ho_oracle_energy(1, l, omega).value
        res = numerov_bound_state(U, 1, (exact - 0.9 * omega, exact + 0.9 * omega))
        assert res.value == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("L", [1e-3, 1.0, 2000.0, 1e100])
    def test_well_precision_independent_of_units(self, L):
        U = EffectivePotential(InfiniteSphericalWell(L=L), l=1)
        exact = well_oracle_energy(L, 1, 2).value
        res = numerov_bound_state(U, 1, (0.8 * exact, 1.2 * exact))
        assert res.value == pytest.approx(exact, rel=1e-8)

    def test_halving_the_step_moves_levels_by_at_most_1e_10(self, monkeypatch):
        # the criterion-5 set: the step's own error lies below the stop rule
        cases = [
            (IsotropicHO(omega=1.0), l, nodes, 2 * nodes + l + 1.5, 0.9)
            for l in range(3)
            for nodes in range(3)
        ] + [
            (InfiniteSphericalWell(L=1.0), l, n - 1, well_oracle_energy(1.0, l, n).value, 2.0)
            for l, n in ((0, 1), (0, 2), (1, 1), (1, 2))
        ]

        def levels():
            return [
                numerov_bound_state(EffectivePotential(spec, l=l), nodes, (e - pad, e + pad)).value
                for spec, l, nodes, e, pad in cases
            ]

        coarse = levels()
        monkeypatch.setattr(oracles, "_PHASE_PER_STEP", oracles._PHASE_PER_STEP / 2)
        for a, b in zip(coarse, levels()):
            assert abs(a - b) <= 1e-10 * abs(a)

    @pytest.mark.parametrize(
        "spec, l",
        [(IsotropicHO(omega=1.0), l) for l in range(4)]
        + [(InfiniteSphericalWell(L=L), l) for L in (1e-3, 1.0, 2000.0) for l in range(3)],
    )
    def test_matched_node_count_equals_outward_sign_changes(self, spec, l):
        # negative ratios on both sides of the match point, plus 1 where D < 0,
        # against the sign changes of u_0 .. u_N from the plain outward
        # recurrence, at 40 energies over 1-120 energy units; a step of
        # 0.05 rad keeps the grid small, and w > 0 on it is all the rule needs
        U = EffectivePotential(spec, l=l)
        unit = U.energy_scale
        r_max = 16.0 * U.length_scale if U.wall == INFINITE else U.wall
        n = max(int(r_max * U.units.m1 * math.sqrt(120.0 * unit) / 0.05) + 1, oracles._MIN_POINTS)
        r_min = max(1e-6 * U.length_scale, r_max / n * math.sqrt(l * (l + 1) / 6.0))
        r = np.linspace(r_min, r_max, n)
        k = 2.0 * U.units.mass / U.units.hbar**2 * float(r[1] - r[0]) ** 2
        ku = k * eval_effective_array(U, r[:-1])
        y0 = (r[0] / r[1]) ** (l + 1)
        for E in np.linspace(1.0, 120.0, 40) * unit:
            x = k * E - ku
            w = 1.0 + x / 12.0
            assert w.min() > 0.0
            u = [y0 * w[0], w[1]]
            for xi, wi in zip(x[1:].tolist(), w[1:].tolist()):
                u.append((2.0 - xi / wi) * u[-1] - u[-2])
            u = np.array(u)
            assert np.all(np.isfinite(u)) and np.all(u != 0.0)
            changes = int(np.count_nonzero((u[1:] < 0.0) != (u[:-1] < 0.0)))
            assert oracles._matched_sweep(x, y0)[0] == changes, E

    def test_overflowing_sweep_keeps_sign(self):
        # the lower edge -1e4 is raised to min U on the grid; below (0, 700)
        # the plain recurrence would grow by about e^985 before r_max and
        # overflow, while the ratios of the renormalized sweep stay finite and
        # their signs keep the node count
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        res = numerov_bound_state(U, 0, (-1e4, 2.0))
        assert res.value == pytest.approx(1.5, rel=1e-4)
        assert numerov_bound_state(U, 0, (0.0, 700.0)).value == pytest.approx(1.5, rel=1e-8)

    def test_a_zero_ratio_resweeps_one_ulp_higher(self, monkeypatch):
        # a node exactly on a grid point makes a ratio 0, and the next step
        # divides by it; the sweep is redone at the next float above E and
        # counted once
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        plain = numerov_bound_state(U, 1, (3.6, 5.4))
        sweep, calls = oracles._matched_sweep, []

        def zero_once(x, y0):
            calls.append(x)
            if len(calls) == 2:
                raise ZeroDivisionError("float division by zero")
            return sweep(x, y0)

        monkeypatch.setattr(oracles, "_matched_sweep", zero_once)
        res = numerov_bound_state(U, 1, (3.6, 5.4))
        assert res.sweeps == plain.sweeps and len(calls) == plain.sweeps + 1
        assert np.all(calls[2] >= calls[1]) and np.any(calls[2] > calls[1])
        assert res.value == pytest.approx(plain.value, rel=1e-12)

    def test_a_step_leaving_w_nonpositive_is_refused(self, monkeypatch):
        # at 4 rad per step, 1 + h^2 f / 12 <= 0 far out at the lower edge:
        # u = w y would flip sign there without a node of y
        monkeypatch.setattr(oracles, "_PHASE_PER_STEP", 4.0)
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        with pytest.raises(DomainError, match=r"1 \+ h\^2 f / 12 <= 0"):
            numerov_bound_state(U, 0, (0.0, 1e5))

    @pytest.mark.parametrize("L", [1e-3, 1.0, 2000.0, 1e100])
    def test_well_levels_agree_with_bessel_to_1e_10(self, L):
        # the grid ends on the wall, where u_N = 0 is imposed, so no
        # shortened radius floors the error at 2e-9
        for l in range(3):
            for n in (1, 2):
                exact = well_oracle_energy(L, l, n).value
                U = EffectivePotential(InfiniteSphericalWell(L=L), l=l)
                res = numerov_bound_state(U, n - 1, (0.8 * exact, 1.2 * exact))
                assert abs(res.value - exact) <= 1e-10 * exact, (l, n)

    def test_lower_edge_far_below_the_potential(self):
        # at E = -1e7, h^2 |f| / 12 > 1 on the whole grid, so a node count
        # taken there is meaningless; no level lies below min U anyway
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        for lo in (-1e7, -1e6):
            assert numerov_bound_state(U, 0, (lo, 2.0)).value == pytest.approx(1.5, rel=1e-6)

    def test_bracket_below_the_potential_minimum(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=2)  # min U = sqrt(6)
        with pytest.raises(DomainError, match="below the potential minimum"):
            numerov_bound_state(U, 0, (-5.0, 2.0))

    def test_sweeps_recorded(self):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        res = numerov_bound_state(U, 1, (3.6, 5.4))
        # node-count bisection alone took 34 sweeps to reach the tolerance and
        # Illinois on u(r_max) / max|u| took 15; Newton on D takes 4
        assert 2 < res.sweeps <= 6
        assert numerov_bound_state(U, 1, (3.6, 5.4)).sweeps == res.sweeps
        assert ho_oracle_energy(1, 1, 1.0).sweeps is None
        assert well_oracle_energy(1.0, 1, 1).sweeps is None

    @pytest.mark.parametrize(
        "omega, bracket",
        [(0.7, (3.99, 5.57)), (0.6992375089666436, (3.9873492039043006, 5.57408064314256))],
    )
    def test_newton_near_a_pole_of_D_bisects(self, omega, bracket):
        # the first bisection lands where the outward u_m is almost 0, next to
        # a pole of D; Newton's steps from there only double away from it (12
        # and 16 sweeps in all), so a step above half the move before it bisects
        U = EffectivePotential(IsotropicHO(omega=omega), l=3)
        res = numerov_bound_state(U, 1, bracket)
        assert res.value == pytest.approx(6.5 * omega, rel=1e-10)
        assert res.sweeps <= 10

    def test_sweep_budget_raises(self, monkeypatch):
        monkeypatch.setattr(oracles, "_MAX_SWEEPS", 3)
        U = EffectivePotential(IsotropicHO(omega=1.0), l=1)
        with pytest.raises(ConvergenceError):
            numerov_bound_state(U, 1, (3.6, 5.4))

    @pytest.mark.parametrize("bracket", [(math.nan, 2.0), (1.0, math.inf), (-math.inf, 2.0)])
    def test_rejects_non_finite_bracket(self, bracket):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        with pytest.raises(DomainError):
            numerov_bound_state(U, 0, bracket)

    def test_grid_cap_refused_before_allocation(self, monkeypatch):
        linspace = np.linspace

        def sample_only(start, stop, num, **kwargs):
            # the 512-point sample that finds min U may be built, the grid not
            assert num <= oracles._MIN_POINTS, "grid allocated"
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", sample_only)
        U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
        # k_top = sqrt(2e9) sets a step of 2.2e-7 out to r_max = 5e4: about 2e11 points
        with pytest.raises(DomainError, match="cap"):
            numerov_bound_state(U, 0, (1.0, 1e9))

    @pytest.mark.parametrize(
        "spec,bracket",
        [(HydrogenLike(Z=1), (-0.6, -0.4)), (FreeParticle(), (1.0, 2.0))],
    )
    def test_unconfined_potential_raises(self, spec, bracket):
        # U never climbs above the bracket, so the r_max search must give up
        U = EffectivePotential(spec, l=0)
        with pytest.raises(DomainError, match="confine"):
            numerov_bound_state(U, 0, bracket)


@settings(
    derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    family=st.sampled_from(["ho", "well"]),
    size=st.floats(0.5, 2.0),
    l=st.integers(0, 3),
    nodes=st.integers(0, 2),
    below=st.floats(0.0, 1.0),
    above=st.floats(0.0, 1.0),
)
def test_numerov_levels_match_the_closed_forms(family, size, l, nodes, below, above, sweep_log):
    # omega or L from [0.5, 2], and each half-width of the bracket drawn as the
    # benchmark's oracle workload draws it: omega * [0.3, 1.5] for the
    # oscillator, [0.5, 3] / L^2 for the well. Over 12,000 such draws a level
    # took at most 11 sweeps of both grids (12 with every sweep on the full
    # grid; Illinois on u(r_max) / max|u| took up to 21). The search on the
    # half grid lands E in the full grid's Newton basin, so the full grid is
    # swept at most twice, and its last step meets the stop rule
    sweep_log.clear()
    if family == "ho":
        U = EffectivePotential(IsotropicHO(omega=size), l=l)
        exact, rel = ho_oracle_energy(nodes, l, size).value, 1e-8
        lo, hi = exact - size * (0.3 + 1.2 * below), exact + size * (0.3 + 1.2 * above)
    else:
        U = EffectivePotential(InfiniteSphericalWell(L=size), l=l)
        exact, rel = well_oracle_energy(size, l, nodes + 1).value, 1e-10
        lo, hi = exact - (0.5 + 2.5 * below) / size**2, exact + (0.5 + 2.5 * above) / size**2
    res = numerov_bound_state(U, nodes, (lo, hi))
    assert abs(res.value - exact) <= rel * exact
    assert res.sweeps <= 12
    assert min(s.lowest_w for s in sweep_log.sweeps) >= 0.5
    full = len(sweep_log.radii)
    assert sum(s.points == full for s in sweep_log.sweeps) <= 2
    last = sweep_log.sweeps[-1]
    assert last.points == full
    h = float(sweep_log.radii[1] - sweep_log.radii[0])
    step = last.D / (2.0 * U.units.mass / U.units.hbar**2 * h * h * last.S)
    assert abs(step) <= 1e-10 * max(U.energy_scale, abs(res.value - step))


@pytest.mark.parametrize(
    "spec",
    [
        HydrogenLike(Z=2, e_charge=1.3),
        InfiniteSphericalWell(L=2.0),
        IsotropicHO(omega=0.7),
        HOSpinOrbit(omega=1.0, j=2.5, c0=0.015),
        HOSpinOrbit(omega=1.0, j=1.5),
        Parabolic(a=1.0, b=0.5, c=0.25),
        FreeParticle(),
    ],
)
@pytest.mark.parametrize("units", [NATURAL, EV_NM])
def test_array_potential_matches_scalar_bit_for_bit(spec, units):
    # the Numerov grid is evaluated through the array path; past r = 2 the
    # well's wall must read INFINITE on both paths
    U = EffectivePotential(spec, l=2, units=units)
    r = np.concatenate([np.linspace(1e-6, 3.0, 1001), [2.0, 7.5]])
    scalar = np.array([eval_effective(U, float(x)) for x in r])
    array = eval_effective_array(U, r)
    assert array.tobytes() == scalar.tobytes()
    if isinstance(spec, InfiniteSphericalWell):
        assert array[-1] == INFINITE


def test_array_potential_rejects_nonpositive_r():
    U = EffectivePotential(IsotropicHO(omega=1.0), l=0)
    for bad in ([0.0, 1.0], [1.0, -2.0], [math.nan]):
        with pytest.raises(DomainError):
            eval_effective_array(U, np.array(bad))


def _package_imports(tree: ast.Module) -> set[str]:
    """Modules of the radialsolve package that ``tree`` imports, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.split(".")[0] == "radialsolve"}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "radialsolve":
                continue
            module = module.removeprefix("radialsolve").lstrip(".")
            # ``from . import x`` and ``from radialsolve import x`` import the module x
            found |= {module} if module else {a.name for a in node.names}
    return found


def test_oracle_module_is_independent():
    # the reference solvers import only the potential catalog (and the error
    # types), and never read the minimum that the machinery's Brent solve finds
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    assert _package_imports(tree) <= {"errors", "potentials"}
    reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "minimum"]
    names = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == "minimum"]
    assert reads == names == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .spectrum import x", {"spectrum"}),
        ("from . import roots", {"roots"}),
        ("from radialsolve import quadrature", {"quadrature"}),
        ("import radialsolve.turning_points", {"radialsolve.turning_points"}),
        ("from radialsolve.potentials import x\nimport numpy\nfrom math import inf", {"potentials"}),
    ],
)
def test_package_imports_sees_every_spelling(source, expected):
    assert _package_imports(ast.parse(source)) == expected
