"""Area integral S and phase function Q(r).

S = integral of U(r) over [r1, r2]; Q(r) = m1 * integral of sqrt(U) from a
reference radius. Both come in a closed-form flavor and a numeric flavor
backed by a globally adaptive 15-point Gauss-Kronrod rule. The closed forms
read the coefficients of U = a r^2 + b r + c - k / r + coeff / r^2: S has
one antiderivative, term by term, for every family; Q has one where
b = k = 0 (oscillator, free particle, well interior), built once per
reference radius by ``_closed_phase``. Closed forms are normalized so that
Q(r_ref) = 0; only Q differences are meaningful.

The integrand of the adaptive loop takes a list of nodes in one call: the
15 of the first panel, then the 30 of both halves of each split, so that
an array integrand costs one numpy call per final panel.

``phase_Q`` integrates from r_ref on every call. ``make_phase`` is the fast
path for a state: a closed form evaluates a list of radii in one
plain-Python loop; for a family without one it integrates the state's span
once and keeps the final Gauss-Kronrod panels with prefix sums (the QK15 panel
layout of QUADPACK, Piessens et al. 1983). A list of radii then costs one
``searchsorted`` over the panel edges, one ``eval_effective_array`` call on
the 15 nodes of every radius and a K15 sum of row adds in the order of
the scalar rule, so each value is bit for bit that rule's.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import ComplexPhaseError, DomainError, IntegrationError
from .potentials import INFINITE, EffectivePotential, Frozen, _set_field, eval_effective, eval_effective_array
from .turning_points import TurningPoints

if TYPE_CHECKING:
    import numpy as np

MAX_PANELS = 1 << 16
_NORMAL_MIN = sys.float_info.min
#: relative tolerance of ``phase_Q``'s numeric integral and of a state's phase table
_PHASE_TOL = 1e-10

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)
# the nodes on [-1, 1] in the order _k15 reads them: -x0, +x0, ..., -x6, +x6, 0
_NODES = tuple(sign * x for x in _XK[:-1] for sign in (-1.0, 1.0)) + (0.0,)

#: an integrand that maps a list of abscissae to the list of its values there
BatchIntegrand = Callable[[list[float]], list[float]]


def _k15(fx: Sequence[float], half: float) -> tuple[float, float]:
    """K15 and |K15 - G7| from the 15 values ``fx`` at the nodes ``mid + half * _NODES``.

    Unrolled: each sum adds, left to right, f(0) and then the node pairs
    from the outermost in, the order every K15 of the package keeps.
    """
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14 = fx
    w0, w1, w2, w3, w4, w5, w6, w7 = _WK
    g0, g1, g2, g3 = _WG
    # the pairs at the Gauss nodes, which both rules read
    p1, p3, p5 = f2 + f3, f6 + f7, f10 + f11
    k15 = w7 * f14 + w0 * (f0 + f1) + w1 * p1 + w2 * (f4 + f5) + w3 * p3
    k15 = k15 + w4 * (f8 + f9) + w5 * p5 + w6 * (f12 + f13)
    g7 = g3 * f14 + g0 * p1 + g1 * p3 + g2 * p5
    k15 = k15 * half
    return k15, abs(k15 - g7 * half)


def _rule_nodes(a: float, b: float) -> tuple[float, list[float]]:
    """The half width of [a, b] and the 15 nodes of its K15 rule, in ``_NODES`` order."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half, [mid + half * x for x in _NODES]


def _gk15(f: BatchIntegrand, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 estimate on [a, b] with |K15 - G7| as the error proxy; one call of f."""
    half, x = _rule_nodes(a, b)
    return _k15(f(x), half)


def adaptive_integral(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Globally adaptive bisection quadrature of a scalar integrand.

    Splits the panel with the largest error estimate until the summed error
    drops below tol * max(1, |integral|). Endpoints are never evaluated, so
    integrable endpoint singularities (1/sqrt(x)-type) are handled by
    subdivision alone. Raises IntegrationError past 2^16 panels.
    """
    return adaptive_integral_many(lambda xs: [f(x) for x in xs], lo, hi, tol)


def adaptive_integral_many(
    f: BatchIntegrand, lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """``adaptive_integral`` for an integrand that takes a panel's 15 nodes at once."""
    if hi == lo:
        return 0.0, 0.0
    if hi < lo:
        value, err = adaptive_integral_many(f, hi, lo, tol)
        return -value, err
    value, err, _ = _adaptive_panels(f, lo, hi, tol)
    return value, err


def _adaptive_panels(
    f: BatchIntegrand, lo: float, hi: float, tol: float
) -> tuple[float, float, list[tuple[float, float]]]:
    """The loop behind ``adaptive_integral_many`` on lo <= hi.

    Both halves of a split panel are evaluated with one call of f on their
    30 nodes, which the integrand, elementwise, maps as it would two calls
    of 15; each half then gets its own K15 rule and finiteness check. Also
    returns the final panels as (left edge, K15 value) pairs, in no
    particular order; together they tile [lo, hi].
    """

    def _check_finite(v: float, e: float, a: float, b: float) -> None:
        if not (math.isfinite(v) and math.isfinite(e)):
            raise IntegrationError(
                f"integrand not finite on [{a!r}, {b!r}]", partial=None, error_estimate=None
            )

    half, x = _rule_nodes(lo, hi)
    val, err = _k15(f(x), half)
    _check_finite(val, err, lo, hi)
    counter = 0
    heap = [(-err, counter, lo, hi, val, err)]
    collapsed: list[tuple[float, float]] = []
    total_val, total_err = val, err
    while total_err > tol * max(1.0, abs(total_val)):
        if len(heap) >= MAX_PANELS:
            raise IntegrationError(
                f"quadrature did not converge within {MAX_PANELS} panels "
                f"(partial={total_val!r}, err={total_err!r})",
                partial=total_val,
                error_estimate=total_err,
            )
        _, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # panel collapsed to machine precision and cannot be refined further
            if e > tol * max(1.0, abs(total_val)):
                raise IntegrationError(
                    f"non-integrable behavior near x = {a!r} "
                    f"(partial={total_val!r}, err={total_err!r})",
                    partial=total_val,
                    error_estimate=total_err,
                )
            total_err -= e
            collapsed.append((a, v))
            continue
        # the nodes of _rule_nodes(a, m) and then of _rule_nodes(m, b)
        half1, half2 = 0.5 * (m - a), 0.5 * (b - m)
        halves = ((0.5 * (a + m), half1), (0.5 * (m + b), half2))
        fx = f([mid + half * x for mid, half in halves for x in _NODES])
        v1, e1 = _k15(fx[:15], half1)
        v2, e2 = _k15(fx[15:], half2)
        # the sum is finite only where all four are
        if not math.isfinite(v1 + e1 + v2 + e2):
            _check_finite(v1, e1, a, m)
            _check_finite(v2, e2, m, b)
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        counter += 1
        heapq.heappush(heap, (-e1, counter, a, m, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, m, b, v2, e2))
    panels = [(a, v) for _, _, a, _, v, _ in heap]
    panels += collapsed
    return total_val, total_err, panels


class PhaseResult(Frozen):
    """Value of S or Q with provenance and an error estimate."""

    __match_args__ = _fields = ("value", "method", "estimated_error")

    def __init__(self, value: float, method: str, estimated_error: float):
        # method: "closed_form" | "numeric"
        _set_field(self, "value", value)
        _set_field(self, "method", method)
        _set_field(self, "estimated_error", estimated_error)


def area_S(U: EffectivePotential, tp: TurningPoints, method: str = "auto") -> PhaseResult:
    """S = integral of U(r) over [r1, r2], the delta-model strength.

    ``auto`` takes the closed form and falls back to the numeric integral
    where a power of the closed form overflows; ``closed_form`` raises a
    DomainError there.
    """
    if method not in ("auto", "closed_form", "numeric"):
        raise DomainError(f"unknown method {method!r}")
    r1, r2 = tp.r1, tp.r2
    if method != "numeric":
        try:
            return PhaseResult(_area_closed_form(U, r1, r2), "closed_form", 0.0)
        except OverflowError:
            if method == "closed_form":
                raise DomainError(f"closed-form area overflows on [{r1!r}, {r2!r}] for {U.spec}") from None
    if r1 == 0.0 and (U.l > 0 or U.coulomb > 0):
        raise IntegrationError("integrand of S is non-integrable at r = 0")
    lo = r1 if r1 > 0 else 0.0
    val, err = adaptive_integral(lambda r: eval_effective(U, r), lo, r2, tol=1e-10)
    return PhaseResult(val, "numeric", err)


def _area_closed_form(U: EffectivePotential, r1: float, r2: float) -> float:
    """S from the antiderivative of a r^2 + b r + c - k / r + coeff / r^2, term by term.

    A term whose coefficient is 0 is skipped, so it can neither overflow nor
    diverge; a power that overflows raises OverflowError.
    """
    s = 0.0
    if U.quadratic:
        s += U.quadratic * (r2**3 - r1**3) / 3.0
    if U.linear:
        s += U.linear * (r2**2 - r1**2) / 2.0
    if U.offset:
        s += U.offset * (r2 - r1)
    if U.coulomb:
        if r1 == 0.0:
            raise IntegrationError("integral of -Ze^2/r diverges logarithmically at r = 0")
        s -= U.coulomb * math.log(r2 / r1)
    b = U.centrifugal_coeff
    if b:
        if r1 == 0.0:
            raise IntegrationError("integrand of S is non-integrable at r = 0")
        s += b * (1.0 / r1 - 1.0 / r2)
    return s


def _check_nonnegative(U: EffectivePotential, lo: float, hi: float) -> None:
    """Raise ComplexPhaseError, naming where U is least, if U < 0 anywhere between lo and hi."""
    r, u = U.least(min(lo, hi), max(lo, hi))
    if u < 0.0:
        raise ComplexPhaseError(r, u)


def _closed_phase(U: EffectivePotential, r_ref: float) -> Callable[[Sequence[float]], list[float]] | None:
    """Q(r) = m1 (F(r) - F(r_ref)) in closed form where V has no linear and no Coulomb term.

    Returns the evaluator of a list of radii, one loop over the list, or
    None for any other family and where F(r_ref) does not exist. Without a
    quadratic term (free particle, well interior) only the centrifugal term
    b / r^2 is left, and Q is a logarithm. Otherwise F is the oscillator
    antiderivative of sqrt(a r^2 + b / r^2 - C), C = -offset: via u = r^2
    the integrand is sqrt(P(u)) / (2u) with P = a u^2 - C u + b, and F is one
    half of the standard decomposition (for b = 0, that is l = 0, j = s and
    C = 0: r sqrt(a r^2) / 2). With C = 0 its C terms are left out: each
    would subtract 0.0 from a non-negative float, which changes no bit.
    Every constant, F(r_ref) included, is computed here once. The evaluator
    raises ValueError where P <= 0, where u = r^2 underflows to 0, or where a
    square root or logarithm leaves its domain, which for 4ab > C^2 only
    rounding brings about, at any radius of its list.
    """
    if U.linear or U.coulomb:
        return None
    b, m1 = U.centrifugal_coeff, U.units.m1
    sqrt, log = math.sqrt, math.log
    if not U.quadratic:
        if b == 0.0:
            return lambda rs: [0.0] * len(rs)
        m1_root_b = m1 * sqrt(b)
        return lambda rs: [m1_root_b * log(r / r_ref) for r in rs]
    a, C = U.quadratic, -U.offset
    root_a, two_a, two_b, root_b = sqrt(a), 2.0 * a, 2.0 * b, sqrt(b)
    c_half = C / (2.0 * root_a)

    # sqrt(x) sqrt(P) in place of sqrt(x P) only where x P is not a normal
    # float (l >= 1 oscillators beyond length scales of about 1e+-77): the
    # same bits elsewhere. Each evaluator returns scale (F(r) - F_ref); scale
    # 1 and F_ref 0 give F itself.
    def q_l0(scale: float, F_ref: float, rs: Sequence[float]) -> list[float]:
        return [scale * (0.5 * r * sqrt(a * r * r) - F_ref) for r in rs]

    def q_centrifugal(scale: float, F_ref: float, rs: Sequence[float]) -> list[float]:
        q = []
        for r in rs:
            uu = r * r
            if uu == 0.0:
                raise ValueError("r * r underflows")
            P = a * uu * uu + b  # at least b > 0
            root_P = sqrt(P)
            bP = b * P
            root_bP = sqrt(bP) if _NORMAL_MIN <= bP < INFINITE else root_b * root_P
            q.append(scale * (0.5 * (root_P - root_b * log((2.0 * root_bP + two_b) / uu)) - F_ref))
        return q

    def q_shifted(scale: float, F_ref: float, rs: Sequence[float]) -> list[float]:
        q = []
        for r in rs:
            uu = r * r
            P = (a * uu - C) * uu + b
            if P <= 0 or uu == 0.0:
                raise ValueError("P(u) <= 0 or r * r underflows")
            root_P = sqrt(P)
            aP, bP = a * P, b * P
            root_aP = sqrt(aP) if _NORMAL_MIN <= aP < INFINITE else root_a * root_P
            root_bP = sqrt(bP) if _NORMAL_MIN <= bP < INFINITE else root_b * root_P
            total = root_P - c_half * log(2.0 * root_aP + two_a * uu - C)
            # b > 0 here: the centrifugal coefficient is never negative
            arg = (2.0 * root_bP + two_b - C * uu) / uu
            q.append(scale * (0.5 * (total - root_b * log(arg)) - F_ref))
        return q

    q = q_l0 if b == 0.0 else q_centrifugal if C == 0.0 else q_shifted
    try:
        F_ref = q(1.0, 0.0, [r_ref])[0]
    except ValueError:
        return None
    return functools.partial(q, m1, F_ref)


def phase_Q(
    U: EffectivePotential,
    r: float,
    r_ref: float,
    method: str = "auto",
) -> PhaseResult:
    """Q(r) = m1 * integral of sqrt(U(x)) dx from r_ref to r, with Q(r_ref) = 0."""
    if method not in ("auto", "closed_form", "numeric"):
        raise DomainError(f"unknown method {method!r}")
    if not r > 0 or not r_ref > 0:
        raise DomainError(f"radii must be positive, got r={r}, r_ref={r_ref}")
    _check_nonnegative(U, r_ref, r)
    if r == r_ref:
        return PhaseResult(0.0, "closed_form", 0.0)
    if method != "numeric":
        closed = _closed_phase(U, r_ref)
        if closed is not None:
            try:
                return PhaseResult(closed([r])[0], "closed_form", 0.0)
            except ValueError:
                pass
        if method == "closed_form":
            raise DomainError(f"no closed-form phase for {type(U.spec).__name__}")
    val, err = adaptive_integral_many(_phase_integrand(U), r_ref, r, tol=_PHASE_TOL)
    return PhaseResult(val, "numeric", err)


def _root_u(U: EffectivePotential, r: np.ndarray) -> np.ndarray:
    """m1 sqrt(U) at each radius of ``r`` (any shape), 0 where U <= 0."""
    import numpy as np

    u = eval_effective_array(U, r)
    # clip tiny negative round-off at turning points
    u = np.where(u > 0.0, u, 0.0)
    np.sqrt(u, out=u)
    u *= U.units.m1
    return u


def _phase_integrand(U: EffectivePotential) -> BatchIntegrand:
    import numpy as np

    return lambda xs: _root_u(U, np.array(xs)).tolist()


class Phase(Frozen):
    """Q(r) of a state: ``phase(r)`` at one radius, ``phase.many(rs)`` at a list of radii."""

    __match_args__ = _fields = ("many",)

    def __init__(self, many: Callable[[Sequence[float]], list[float]]):
        _set_field(self, "many", many)

    def __call__(self, r: float) -> float:
        return self.many([r])[0]


def make_phase(U: EffectivePotential, lo: float, hi: float) -> Phase:
    """Fast evaluator for Q(r) anchored at Q(lo) = 0, built for r in [lo, hi].

    Closed-form families get the evaluator of ``_closed_phase``: the
    antiderivative at lo and every constant are computed here, and a list of
    radii costs one loop in plain Python. Any other family gets a table:
    [lo, hi] is integrated once by the adaptive loop of ``adaptive_integral``,
    and Q(r) is the prefix sum of the panels left of r plus one K15 rule from
    the edge of the panel holding r.
    ``many`` finds the panels of all radii with one ``searchsorted`` and
    evaluates U on all their nodes with one ``eval_effective_array`` call.
    The closed form falls back to ``phase_Q`` where it does not apply, the
    table outside [lo, hi].
    """
    if not (lo > 0 and hi >= lo):
        raise DomainError(f"phase span must satisfy 0 < lo <= hi, got [{lo}, {hi}]")

    def q_reference(r: float) -> float:
        return phase_Q(U, r, lo, method="numeric").value

    closed = _closed_phase(U, lo)
    if closed is not None:

        def many_closed(rs: Sequence[float]) -> list[float]:
            try:
                return closed(rs)
            except ValueError:
                pass
            q = []
            for r in rs:
                try:
                    q += closed([r])
                except ValueError:
                    q.append(q_reference(r))
            return q

        return Phase(many_closed)

    import numpy as np

    _check_nonnegative(U, lo, hi)
    _, _, panels = _adaptive_panels(_phase_integrand(U), lo, hi, _PHASE_TOL)
    panels.sort()
    edges = np.array([a for a, _ in panels])
    prefix = np.cumsum([0.0] + [v for _, v in panels[:-1]])
    nodes = np.array(_NODES)[:, np.newaxis]
    pair_weights = np.array(_WK[:-1])[:, np.newaxis]

    def q_table(r: np.ndarray) -> np.ndarray:
        i = np.searchsorted(edges, r, side="right")
        i -= 1
        a = edges[i]
        half = r - a
        half *= 0.5
        x = half * nodes
        mid = a + r
        mid *= 0.5
        x += mid
        fx = _root_u(U, x)
        pairs = fx[0:14:2] + fx[1:14:2]
        pairs *= pair_weights
        # row adds in _k15's order: f(0), then the pairs from the outermost in;
        # not a numpy sum over the rows, which adds the 8 terms of a lone
        # radius pairwise
        k15 = fx[14] * _WK[-1]
        for row in pairs:
            k15 += row
        k15 *= half
        q = prefix[i]
        np.add(q, k15, out=q, where=r != a)
        return q

    def many(rs: Sequence[float]) -> list[float]:
        r = np.array(rs, dtype=float)
        inside = (lo <= r) & (r <= hi)
        if inside.all():
            return q_table(r).tolist()
        q = np.empty_like(r)
        q[inside] = q_table(r[inside])
        for j in np.flatnonzero(~inside):
            q[j] = q_reference(float(r[j]))
        return q.tolist()

    return Phase(many)
