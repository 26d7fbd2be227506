"""Tests for adaptive quadrature and the area / phase integrals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialsolve.errors import ComplexPhaseError, DomainError, IntegrationError
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
    UnitSystem,
    eval_effective,
)
from radialsolve.quadrature import (
    _adaptive_panels,
    _check_nonnegative,
    _closed_phase,
    _phase_integrand,
    adaptive_integral,
    adaptive_integral_many,
    area_S,
    make_phase,
    phase_Q,
)
from radialsolve.spectrum import Symmetric, closed_form_energy
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

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda xs: [math.sqrt(x) for x in xs], 0.0, 1.0),
            (lambda xs: [math.sin(10 * x) for x in xs], 0.0, 1.0),
            (_phase_integrand(EffectivePotential(Parabolic(a=1.0, b=1.0, c=1.0), l=1)), 0.4, 2.6),
        ],
        ids=["sqrt", "sin", "parabolic phase"],
    )
    def test_one_integrand_call_per_final_panel(self, f, lo, hi):
        # the first panel takes one call of 15 nodes, each split one call of 30
        sizes = []
        adaptive_integral_many(lambda xs: sizes.append(len(xs)) or f(xs), lo, hi)
        panels = _adaptive_panels(f, lo, hi, 1e-10)[2]
        assert len(panels) > 1
        assert sizes == [15] + [30] * (len(panels) - 1)


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

    def test_overflowing_closed_form_falls_back_to_numeric(self):
        # r2 = 1e150: r2**3 overflows, while S itself is about 4/3 1e150
        U = EffectivePotential(Parabolic(a=1e-300, b=1e-300, c=1.0))
        tp = turning_points(U, 2.0)
        auto = area_S(U, tp)
        assert auto.method == "numeric"
        assert auto == area_S(U, tp, method="numeric")
        assert auto.value == pytest.approx(1.3333333333333332e150, rel=1e-12)
        with pytest.raises(DomainError, match="closed-form area overflows"):
            area_S(U, tp, method="closed_form")

    def test_zero_coefficient_takes_no_power(self):
        # r2 is about 7e150, so a polynomial term would overflow were it evaluated
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1e-75), l=1)
        tp = turning_points(U, 0.9 * U.minimum[1])
        assert tp.r2 > 1e150
        res = area_S(U, tp)
        assert res.method == "closed_form"
        assert math.isfinite(res.value)


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
        # U = -1/r rises with r: least, -2, at the lower end 0.5
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=0)
        with pytest.raises(ComplexPhaseError, match=r"U\(0\.5\) = -2 < 0") as exc_info:
            phase_Q(U, 2.0, 0.5, method="numeric")
        assert (exc_info.value.radius, exc_info.value.value) == (0.5, -2.0)

    @pytest.mark.parametrize("r, r_ref", [(4.0, 0.5), (0.5, 4.0)])
    def test_complex_phase_at_the_minimum(self, r, r_ref):
        # U = 1/r^2 - 1/r is least at r = 2 coeff / k = 2, where U = -k^2 / (4 coeff) = -1/4
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=1)
        with pytest.raises(ComplexPhaseError) as exc_info:
            phase_Q(U, r, r_ref, method="numeric")
        assert (exc_info.value.radius, exc_info.value.value) == (2.0, -0.25)

    @pytest.mark.parametrize("r_ref, r", [(0.3, 2.7), (1e-9, 1.1), (0.9, 5.0), (3.0, 0.2)])
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_complex_phase_matches_the_closed_form_least_u(self, l, r_ref, r):
        # U = coeff / r^2 - 1/r: least at r = 2 coeff (U = -1 / (4 coeff)) for
        # l >= 1 where that lies in the span, else at the end where U is lower
        U = EffectivePotential(HydrogenLike(Z=1, e_charge=1.0), l=l)
        lo, hi = min(r, r_ref), max(r, r_ref)
        coeff = 0.5 * l * (l + 1)
        if l and lo <= 2.0 * coeff <= hi:
            least = (2.0 * coeff, -1.0 / (4.0 * coeff))
        else:
            least = min((lo, eval_effective(U, lo)), (hi, eval_effective(U, hi)), key=lambda p: p[1])
        expected = least if least[1] < 0.0 else None
        try:
            phase_Q(U, r, r_ref, method="numeric")
            got = None
        except ComplexPhaseError as exc:
            got = (exc.radius, exc.value)
        assert got == expected

    def test_complex_phase_between_samples(self):
        # U dips to -2.4e-6 only on a 2e-3 wide interval around r_min = 1.565,
        # narrower than the step of a 257-point grid on [1, 2]
        spec = HOSpinOrbit(omega=1.0, j=2.5, c0=2.0 * math.sqrt(1.5) * (1.0 + 1e-6))
        U = EffectivePotential(spec, l=2)
        r_min, u_min = U.minimum
        assert -2.5e-6 < u_min < 0.0
        with pytest.raises(ComplexPhaseError) as exc_info:
            phase_Q(U, 2.0, 1.0)
        assert (exc_info.value.radius, exc_info.value.value) == (r_min, u_min)

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
        assert (exc_info.value.radius, exc_info.value.value) == (2.0, -0.25)

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


# ------------------------------------------- closed-form Q against the per-point formula


def _pointwise_F(U, r: float) -> float:
    """Oscillator antiderivative of sqrt(a r^2 + b / r^2 - C), evaluated from scratch
    at each r; raises ValueError where it does not exist."""
    a, b, C = U.quadratic, U.centrifugal_coeff, -U.offset
    if b == 0.0:
        phi = a * r * r - C
        if phi < 0:
            raise ValueError
        sq = math.sqrt(phi)
        total = 0.5 * r * sq
        if C != 0.0:
            arg = math.sqrt(a) * r + sq
            if arg <= 0:
                raise ValueError
            total -= C / (2.0 * math.sqrt(a)) * math.log(arg)
        return total
    uu = r * r
    P = (a * uu - C) * uu + b
    if P <= 0:
        raise ValueError
    total = math.sqrt(P)
    if C != 0.0:
        arg = 2.0 * math.sqrt(a * P) + 2.0 * a * uu - C
        if arg <= 0:
            raise ValueError
        total -= C / (2.0 * math.sqrt(a)) * math.log(arg)
    arg = (2.0 * math.sqrt(b * P) + 2.0 * b - C * uu) / uu
    if arg <= 0:
        raise ValueError
    total -= math.sqrt(b) * math.log(arg)
    return 0.5 * total


def _pointwise_closed(U, r: float, r_ref: float) -> float | None:
    """m1 (F(r) - F(r_ref)), both ends from scratch; None where either end raises."""
    b, m1 = U.centrifugal_coeff, U.units.m1
    if not U.quadratic:
        return 0.0 if b == 0.0 else m1 * math.sqrt(b) * math.log(r / r_ref)
    try:
        return m1 * (_pointwise_F(U, r) - _pointwise_F(U, r_ref))
    except ValueError:
        return None


def _outcome(f) -> str:
    """repr of f()'s value (tells -0.0 from 0.0), or the type and message of its error."""
    try:
        return repr(f())
    except (ComplexPhaseError, IntegrationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _expected_many(U, rs, lo):
    out = []
    for r in rs:
        closed = _pointwise_closed(U, r, lo)
        out.append(phase_Q(U, r, lo, method="numeric").value if closed is None else closed)
    return out


def _expected_phase_Q(U, r, lo):
    closed = _pointwise_closed(U, r, lo)
    if closed is None:
        return phase_Q(U, r, lo, method="numeric").value
    _check_nonnegative(U, lo, r)
    return closed


def _touching_hoso(omega: float, l: int, units) -> HOSpinOrbit:
    """HOSO with j = l + 1/2 and c0 where C^2 = 4ab: U touches 0 at its minimum, and
    rounding leaves the antiderivative undefined at some radii."""
    U = EffectivePotential(HOSpinOrbit(omega=omega, j=l + 0.5, c0=1.0), l=l, units=units)
    c0 = math.sqrt(4.0 * U.quadratic * U.centrifugal_coeff) / -U.offset  # C is linear in c0
    return HOSpinOrbit(omega=omega, j=l + 0.5, c0=c0)


@st.composite
def closed_potentials(draw) -> EffectivePotential:
    """Oscillators and wells from 1e-3 to 1e3, l 0-5, and the touching HOSO, in both presets."""
    units = draw(st.sampled_from([NATURAL, EV_NM]))
    family = draw(st.sampled_from(["ho", "well", "touching"]))
    size = 10.0 ** draw(st.floats(-3.0, 3.0))
    l = draw(st.integers(1 if family == "touching" else 0, 5))
    if family == "ho":
        spec = IsotropicHO(omega=size)
    elif family == "well":
        spec = InfiniteSphericalWell(L=size)
    else:
        spec = _touching_hoso(size, l, units)
    return EffectivePotential(spec, l=l, units=units)


def _touching(units, omega: float, l: int) -> EffectivePotential:
    return EffectivePotential(_touching_hoso(omega, l, units), l=l, units=units)


#: touching HOSOs whose rounded u_min falls below 0 (phase_Q raises
#: ComplexPhaseError across r_min) and above it, in both presets
TOUCHING_BELOW = (_touching(NATURAL, 0.1276660399120457, 3), _touching(EV_NM, 4.908710220335503, 3))
TOUCHING_ABOVE = (_touching(NATURAL, 0.001995262314968879, 3), _touching(EV_NM, 0.001174897554939529, 3))


def test_touching_examples_round_to_both_sides_of_zero():
    assert [U.minimum[1] < 0.0 for U in TOUCHING_BELOW + TOUCHING_ABOVE] == [True, True, False, False]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    U=closed_potentials(),
    lo_scale=st.floats(0.05, 3.0),
    span=st.floats(1.0, 4.0),
    fractions=st.lists(st.floats(0.1, 8.0), min_size=1, max_size=8),
)
# each span holds r_min
@example(U=TOUCHING_BELOW[0], lo_scale=1.5, span=2.0, fractions=[1.9, 4.0])
@example(U=TOUCHING_BELOW[1], lo_scale=1.5, span=2.0, fractions=[1.9, 4.0])
@example(U=TOUCHING_ABOVE[0], lo_scale=0.5, span=2.0, fractions=[5.6, 8.0])
@example(U=TOUCHING_ABOVE[1], lo_scale=0.5, span=2.0, fractions=[5.6, 8.0])
def test_closed_phase_matches_the_pointwise_formula(U, lo_scale, span, fractions):
    lo = lo_scale * U.length_scale
    rs = [lo, *(lo * f for f in fractions)]  # inside and outside [lo, lo * span]
    if _pointwise_closed(U, lo, lo) is None:
        # no antiderivative at the anchor: make_phase builds the numeric table
        assert _closed_phase(U, lo) is None
        return
    assert _outcome(lambda: make_phase(U, lo, lo * span).many(rs)) == _outcome(lambda: _expected_many(U, rs, lo))
    for r in rs:
        assert _outcome(lambda: phase_Q(U, r, lo).value) == _outcome(lambda: _expected_phase_Q(U, r, lo))


def test_closed_phase_falls_back_where_the_antiderivative_raises():
    U = EffectivePotential(_touching_hoso(1.0, 2, NATURAL), l=2)
    lo, hi = 0.2, 3.0
    rs = [0.1 * i for i in range(1, 40)]
    raising = [r for r in rs if _pointwise_closed(U, r, lo) is None]
    assert raising and _pointwise_closed(U, lo, lo) is not None
    assert repr(make_phase(U, lo, hi).many(rs)) == repr(_expected_many(U, rs, lo))
    assert [phase_Q(U, r, lo).value for r in raising] == [phase_Q(U, r, lo, method="numeric").value for r in raising]


@pytest.mark.parametrize("l", [1, 3])
def test_closed_phase_steps_aside_where_r_squared_underflows(l):
    # below r ~ 1.5e-162, u = r * r is 0.0 and the centrifugal logarithm
    # divided by it; the closed form now raises ValueError there, and both
    # entry points fall back to the numeric integral, which fails at 1e-170 too
    U = EffectivePotential(IsotropicHO(omega=1.0), l=l)
    assert _closed_phase(U, 1e-170) is None
    with pytest.raises(ValueError):
        _closed_phase(U, 1.0)([1e-170])
    with pytest.raises(IntegrationError):
        phase_Q(U, 1e-170, 1.0)
    with pytest.raises(IntegrationError):
        make_phase(U, 1e-170, 1.0)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_closed_phase_holds_at_any_length_scale(l):
    # P is about b at the support, so b P, about b^2, leaves the normal floats
    # beyond length scales of about 1e+-77: below them sqrt(b P) lost its
    # digits, above them it overflowed to inf
    off = []
    for k in range(-150, 151):
        U = EffectivePotential(IsotropicHO(omega=1.0), l=l, units=UnitSystem(mass=10.0 ** (-2 * k)))
        tp = turning_points(U, closed_form_energy(U, Symmetric(1)))
        for r in (tp.r0, tp.r2):
            closed = phase_Q(U, r, tp.r1)
            numeric = phase_Q(U, r, tp.r1, method="numeric")
            if closed.method != "closed_form" or not abs(closed.value - numeric.value) <= 1e-9 * abs(numeric.value):
                off.append((k, r, closed, numeric.value))
    assert off == []
