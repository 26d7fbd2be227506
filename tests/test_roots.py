"""Tests for the bracketed root finder and the solves routed through it."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialsolve.errors import ConvergenceError, DomainError
from radialsolve.potentials import (
    EffectivePotential,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
    eval_effective,
)
from radialsolve import roots
from radialsolve.roots import brentq
from radialsolve.spectrum import (
    Antisymmetric,
    General,
    Ground,
    Symmetric,
    closed_form_energy,
    self_consistent_energy,
)
from radialsolve.turning_points import turning_points


class TestBrentq:
    def test_exact_zero_at_either_end(self):
        assert brentq(lambda x: x - 1.0, 1.0, 3.0) == (1.0, 0)
        assert brentq(lambda x: x - 3.0, 1.0, 3.0) == (3.0, 0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_increasing_and_decreasing(self, sign):
        x, iterations = brentq(lambda x: sign * (x * x - 2.0), 0.0, 2.0, xtol=1e-14)
        assert abs(x - math.sqrt(2.0)) <= 1e-14
        assert 0 < iterations <= 12

    def test_reversed_bracket(self):
        x, _ = brentq(lambda x: math.cos(x) - x, 1.0, 0.0, rtol=1e-15)
        assert abs(math.cos(x) - x) <= 1e-15

    def test_relative_tolerance(self):
        x, _ = brentq(lambda x: x - 3e8, 0.0, 1e9, rtol=1e-13)
        assert abs(x - 3e8) <= 1e-13 * 3e8

    def test_relative_tolerance_below_the_least_normal(self):
        # no fixed floor binds above rtol |x| where the root is 6e-310
        x, _ = brentq(lambda x: math.log(x / 6e-310), 1e-320, 1e-300, rtol=1e-13)
        assert abs(x - 6e-310) <= 1e-13 * 6e-310

    def test_infinite_end_value(self):
        # a hard wall: f is +inf at the outer end of the bracket
        x, _ = brentq(lambda x: math.inf if x >= 1.0 else x - 0.3, 0.1, 1.0, rtol=1e-13)
        assert x == pytest.approx(0.3, rel=1e-13)

    @pytest.mark.parametrize(
        "f, a, b",
        [(lambda x: x * x - 2.0, 0.0, 2.0), (lambda x: math.cos(x) - x, 1.0, 0.0), (lambda x: x - 1.0, 1.0, 3.0)],
    )
    def test_known_end_values_are_not_evaluated_again(self, f, a, b):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        plain = brentq(counted, a, b, rtol=1e-15)
        evaluated = len(calls)
        calls.clear()
        assert brentq(counted, a, b, rtol=1e-15, fa=f(a), fb=f(b)) == plain
        assert len(calls) == evaluated - 2 and a not in calls and b not in calls

    @pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: math.nan])
    def test_non_bracketing_interval(self, f):
        with pytest.raises(DomainError, match="does not bracket"):
            brentq(f, -1.0, 2.0)

    def test_exhausted_budget(self):
        # a step at 0 leaves interpolation nothing to use: closing [-1e300, 1e300]
        # down to the least subnormal takes about 2,000 bisections
        with pytest.raises(ConvergenceError) as info:
            brentq(lambda x: 1.0 if x > 0 else -1.0, -1e300, 1e300)
        assert info.value.iterations == roots._MAX_ITER
        assert -1e300 < info.value.last_iterate < 1e300


# ------------------------------------------- the lean Brent against the textbook one


def _textbook_brentq(f, a, b, xtol=0.0, rtol=0.0, fa=None, fb=None):
    """``brentq`` as Brent wrote it, with abs, max and min: the reference of the lean loop."""
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    if fa == 0.0:
        return a, 0
    if fb == 0.0:
        return b, 0
    if math.isnan(fa) or math.isnan(fb) or (fa > 0) == (fb > 0):
        raise DomainError(f"[{a!r}, {b!r}] does not bracket a root: f = {fa!r}, {fb!r}")
    c, fc = a, fa
    step = prev_step = b - a
    for iteration in range(roots._MAX_ITER + 1):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(0.5 * max(xtol, rtol * abs(b), 4.0 * roots._EPS * abs(b)), roots._TINY)
        half = 0.5 * (c - b)
        if abs(half) <= tol:
            return b, iteration
        if iteration == roots._MAX_ITER:
            break
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(prev_step * q)):
                prev_step, step = step, p / q
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = f(b)
        if fb == 0.0:
            return b, iteration + 1
    raise ConvergenceError(
        f"Brent's method did not converge in {roots._MAX_ITER} iterations",
        last_iterate=b,
        iterations=roots._MAX_ITER,
    )


def _test_function(kind: str, root: float, sign: float, width: float):
    """One of the shapes the property draws: monotone, flat at the root, oscillating,
    with three roots, a step, or a hard wall (+inf past the root)."""
    if kind == "linear":
        return lambda x: sign * (x - root)
    if kind == "cubic":
        return lambda x: sign * (x - root) * (x - root) * (x - root)
    if kind == "sine":
        return lambda x: sign * math.sin((x - root) / width)
    if kind == "three_roots":
        return lambda x: sign * (x - root) * (x - root - width) * (x - root + 0.5 * width)
    if kind == "step":
        return lambda x: sign if x > root else -sign
    return lambda x: math.inf if x > root + width else sign * (x - root)


def _brent_outcome(solve, f, a, b, **kwargs):
    """The root's bits and the iteration count, or the error with its fields, and
    every abscissa at which f was evaluated."""
    calls = []

    def logged(x):
        calls.append(x.hex())
        return f(x)

    try:
        x, iterations = solve(logged, a, b, **kwargs)
        result = ("root", x.hex(), iterations)
    except (DomainError, ConvergenceError) as exc:
        last = getattr(exc, "last_iterate", None)
        last = None if last is None else last.hex()
        result = (type(exc).__name__, str(exc), last, getattr(exc, "iterations", None))
    return result, calls


TOLERANCES = st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-15, 1e-12, 1e-6, 0.1])


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(
    kind=st.sampled_from(["linear", "cubic", "sine", "three_roots", "step", "wall"]),
    root=st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1e-310, -3e-320, 1e300])),
    sign=st.sampled_from([1.0, -1.0]),
    width=st.floats(1e-3, 10.0),
    below=st.one_of(st.floats(0.0, 20.0), st.sampled_from([1e-300, 1e300])),
    above=st.one_of(st.floats(0.0, 20.0), st.sampled_from([1e-300, 1e300])),
    reversed_bracket=st.booleans(),
    xtol=TOLERANCES,
    rtol=TOLERANCES,
    hand_ends=st.sampled_from(["none", "fa", "fb", "both"]),
)
def test_lean_brent_is_the_textbook_one(
    kind, root, sign, width, below, above, reversed_bracket, xtol, rtol, hand_ends
):
    # below or above = 0 puts an exact zero at that end; equal signs at both ends
    # (non-monotone shapes) and nan or inf values test the raised errors
    f = _test_function(kind, root, sign, width)
    a, b = root - below, root + above
    if reversed_bracket:
        a, b = b, a
    kwargs = {"xtol": xtol, "rtol": rtol}
    if hand_ends in ("fa", "both"):
        kwargs["fa"] = f(a)
    if hand_ends in ("fb", "both"):
        kwargs["fb"] = f(b)
    assert _brent_outcome(brentq, f, a, b, **kwargs) == _brent_outcome(_textbook_brentq, f, a, b, **kwargs)


@pytest.mark.parametrize(
    "f, a, b, kwargs",
    [
        # closing [-1e300, 1e300] down to the least subnormal by bisection
        (lambda x: 1.0 if x > 0 else -1.0, -1e300, 1e300, {}),
        (lambda x: 1.0 if x > 0 else -1.0, 1e300, -1e300, {"xtol": 5e-324}),
        (lambda x: math.nan, -1.0, 2.0, {}),
        (lambda x: math.nan if x > 0 else -1.0, -1.0, 2.0, {"fb": 1.0}),
        (lambda x: x * x - 2.0, 0.0, 2.0, {"xtol": 1e-320, "rtol": 1e-320}),
        (lambda x: 1.0 / x if x else -1.0, -1.0, 1.0, {}),
    ],
)
def test_lean_brent_is_the_textbook_one_at_the_edges(f, a, b, kwargs):
    assert _brent_outcome(brentq, f, a, b, **kwargs) == _brent_outcome(_textbook_brentq, f, a, b, **kwargs)


def _branch(kind: int, n: int):
    return (Ground(), Symmetric(n), Antisymmetric(n), General(n))[kind]


def _catalog_levels():
    branches = [Ground()] + [C(n) for C in (Symmetric, Antisymmetric, General) for n in range(1, 5)]
    for l in range(5):
        potentials = [
            InfiniteSphericalWell(L=1.3),
            IsotropicHO(omega=0.7),
            HOSpinOrbit(omega=1.0, j=l + 0.5, c0=0.015),
            Parabolic(a=1.0, b=0.6, c=1.7),
            HydrogenLike(Z=1),
        ]
        for spec in potentials:
            for branch in branches:
                yield EffectivePotential(spec, l=l), branch


def test_iteration_cut():
    # bisection to 1e-15 took about 50 steps; Brent needs at most a dozen here
    for U, branch in _catalog_levels():
        level = self_consistent_energy(U, branch, signed=isinstance(U.spec, HydrogenLike))
        assert level.iterations <= 20, (U, branch, level.iterations)


params = st.floats(0.5, 2.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["well", "ho", "hoso"]),
    l=st.integers(0, 4),
    kind=st.integers(0, 3),
    n=st.integers(1, 4),
    p=params,
    c0=params,
    j_up=st.booleans(),
)
def test_self_consistent_matches_closed_form(family, l, kind, n, p, c0, j_up):
    branch = _branch(kind, n)
    if family == "well":
        U = EffectivePotential(InfiniteSphericalWell(L=p), l=l)
    elif family == "ho":
        U = EffectivePotential(IsotropicHO(omega=p), l=l)
    else:
        j = l + 0.5 if j_up or l == 0 else l - 0.5
        U = EffectivePotential(HOSpinOrbit(omega=p, j=j, c0=c0), l=l)
    closed = closed_form_energy(U, branch)
    level = self_consistent_energy(U, branch)
    assert abs(level.value - closed) <= 1e-8 * abs(closed)
    assert level.iterations <= 20


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    l=st.integers(0, 4), kind=st.integers(0, 3), n=st.integers(1, 4), a=params, b=params, c=params
)
def test_parabolic_turning_points_lie_on_the_level(l, kind, n, a, b, c):
    U = EffectivePotential(Parabolic(a=a, b=b, c=c), l=l)
    E = self_consistent_energy(U, _branch(kind, n)).value
    tp = turning_points(U, E)
    tol = 1e-10 * max(1.0, abs(E))
    assert abs(eval_effective(U, tp.r2) - E) <= tol
    r_min, _ = U.minimum
    if l == 0:
        assert tp.r1 == 0.0
    else:
        assert abs(eval_effective(U, tp.r1) - E) <= tol
        assert tp.r1 < r_min < tp.r2
