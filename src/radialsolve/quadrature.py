"""Area integral S and phase function Q(r).

S = integral of U(r) over [r1, r2]; Q(r) = m1 * integral of sqrt(U) from a
reference radius. Both come in a closed-form flavor (re-derived
antiderivatives per potential family) and a numeric flavor backed by a
globally adaptive 15-point Gauss-Kronrod rule. Closed forms are normalized
so that Q(r_ref) = 0; only Q differences are meaningful.

The integrand of the adaptive loop takes the 15 nodes of a panel in one
call, so that an array integrand costs one numpy call per panel.

``phase_Q`` integrates from r_ref on every call. ``make_phase`` is the fast
path for a state: for a family without a closed form it integrates the
state's span once and keeps the final Gauss-Kronrod panels with prefix sums
(the QK15 panel layout of QUADPACK, Piessens et al. 1983). A list of radii
then costs one ``searchsorted`` over the panel edges and one
``eval_effective_array`` call on the 15 nodes of every radius.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import ComplexPhaseError, DomainError, IntegrationError
from .potentials import (
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
from .turning_points import TurningPoints

if TYPE_CHECKING:
    import numpy as np

MAX_PANELS = 1 << 16

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


def _k15(fx, half):
    """K15 and |K15 - G7| from the values ``fx`` at the nodes ``mid + half * _NODES``.

    ``fx[j]`` is a float, or an array holding node j of many rules with
    ``half`` an array alike; the sum runs in the same order either way, so
    both round alike.
    """
    f0 = fx[14]
    k15 = _WK[-1] * f0
    g7 = _WG[-1] * f0
    for i in range(7):
        pair = fx[2 * i] + fx[2 * i + 1]
        k15 = k15 + _WK[i] * pair
        if i % 2 == 1:
            g7 = g7 + _WG[i // 2] * pair
    k15 = k15 * half
    g7 = g7 * half
    return k15, abs(k15 - g7)


def _gk15(f: BatchIntegrand, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 estimate on [a, b] with |K15 - G7| as the error proxy; one call of f."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return _k15(f([mid + half * x for x in _NODES]), half)


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

    Also returns the final panels as (left edge, K15 value) pairs, in no
    particular order; together they tile [lo, hi].
    """

    def _checked(a: float, b: float) -> tuple[float, float]:
        v, e = _gk15(f, a, b)
        if not (math.isfinite(v) and math.isfinite(e)):
            raise IntegrationError(
                f"integrand not finite on [{a!r}, {b!r}]", partial=None, error_estimate=None
            )
        return v, e

    val, err = _checked(lo, hi)
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
        v1, e1 = _checked(a, m)
        v2, e2 = _checked(m, b)
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        counter += 1
        heapq.heappush(heap, (-e1, counter, a, m, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, m, b, v2, e2))
    panels = [(a, v) for _, _, a, _, v, _ in heap]
    panels += collapsed
    return total_val, total_err, panels


@dataclass(frozen=True)
class PhaseResult:
    """Value of S or Q with provenance and an error estimate."""

    value: float
    method: str  # "closed_form" | "numeric"
    lower_limit: float
    estimated_error: float


def area_S(U: EffectivePotential, tp: TurningPoints, method: str = "auto") -> PhaseResult:
    """S = integral of U(r) over [r1, r2], the delta-model strength."""
    if method not in ("auto", "closed_form", "numeric"):
        raise DomainError(f"unknown method {method!r}")
    r1, r2 = tp.r1, tp.r2
    b = U.centrifugal_coeff
    if method != "numeric":
        closed = _area_closed_form(U, r1, r2, b)
        if closed is not None:
            return PhaseResult(closed, "closed_form", r1, 0.0)
        if method == "closed_form":
            raise DomainError(f"no closed-form area for {type(U.spec).__name__}")
    if r1 == 0.0 and _diverges_at_origin(U):
        raise IntegrationError("integrand of S is non-integrable at r = 0")
    lo = r1 if r1 > 0 else 0.0
    val, err = adaptive_integral(lambda r: eval_effective(U, r), lo, r2, tol=1e-10)
    return PhaseResult(val, "numeric", r1, err)


def _diverges_at_origin(U: EffectivePotential) -> bool:
    if U.l > 0:
        return True  # 1/r^2 centrifugal term
    return isinstance(U.spec, HydrogenLike)  # logarithmic divergence of -1/r


def _area_closed_form(U: EffectivePotential, r1: float, r2: float, b: float) -> float | None:
    u = U.units

    def inv_diff():
        if r1 == 0.0:
            raise IntegrationError("integrand of S is non-integrable at r = 0")
        return 1.0 / r1 - 1.0 / r2

    match U.spec:
        case FreeParticle() | InfiniteSphericalWell():
            return 0.0 if b == 0.0 else b * inv_diff()
        case IsotropicHO(omega=w) | HOSpinOrbit(omega=w):
            a = 0.5 * u.mass * w * w
            s = a * (r2**3 - r1**3) / 3.0 - U.spin_orbit_shift * (r2 - r1)
            if b != 0.0:
                s += b * inv_diff()
            return s
        case HydrogenLike(Z=Z, e_charge=e):
            if r1 == 0.0:
                raise IntegrationError(
                    "integral of -Ze^2/r diverges logarithmically at r = 0"
                )
            s = -Z * e * e * math.log(r2 / r1)
            if b != 0.0:
                s += b * inv_diff()
            return s
        case Parabolic(a=a, b=pb, c=c):
            s = a * (r2**3 - r1**3) / 3.0 + pb * (r2**2 - r1**2) / 2.0 + c * (r2 - r1)
            if b != 0.0:
                s += b * inv_diff()
            return s
    return None


def _check_nonnegative(U: EffectivePotential, lo: float, hi: float, samples: int = 257) -> None:
    """Raise ComplexPhaseError if U < 0 at any of ``samples`` even points of [lo, hi]."""
    import numpy as np

    if hi <= lo:
        lo, hi = hi, lo
    step = (hi - lo) / (samples - 1) if samples > 1 else 0.0
    r = lo + np.arange(samples) * step
    negative = np.flatnonzero(eval_effective_array(U, r) < 0.0)
    if negative.size:
        i = int(negative[0])
        prev = float(r[i - 1]) if i > 0 else lo
        raise ComplexPhaseError(prev, min(float(r[i]) + step, hi))


def _ho_antiderivative(a: float, b: float, C: float, r: float) -> float:
    """Antiderivative of sqrt(a r^2 + b / r^2 - C) in the variable r.

    Via u = r^2 the integrand is sqrt(P(u))/(2u) with P = a u^2 - C u + b.
    Returns one half of the standard decomposition; valid where P > 0 and
    both logarithm arguments stay positive (guaranteed for 4ab >= C^2).
    """
    uu = r * r
    P = (a * uu - C) * uu + b
    if P <= 0:
        raise ValueError("P(u) <= 0")
    sqP = math.sqrt(P)
    total = sqP
    if C != 0.0:
        arg = 2.0 * math.sqrt(a * P) + 2.0 * a * uu - C
        if arg <= 0:
            raise ValueError("log argument <= 0")
        total -= C / (2.0 * math.sqrt(a)) * math.log(arg)
    if b > 0.0:
        arg = (2.0 * math.sqrt(b * P) + 2.0 * b - C * uu) / uu
        if arg <= 0:
            raise ValueError("log argument <= 0")
        total -= math.sqrt(b) * math.log(arg)
    return 0.5 * total


def _ho_l0_antiderivative(a: float, C: float, r: float) -> float:
    """Antiderivative of sqrt(a r^2 - C) for the b = 0 (l = 0) case."""
    phi = a * r * r - C
    if phi < 0:
        raise ValueError("a r^2 - C < 0")
    sq = math.sqrt(phi)
    total = 0.5 * r * sq
    if C != 0.0:
        arg = math.sqrt(a) * r + sq
        if arg <= 0:
            raise ValueError("log argument <= 0")
        total -= C / (2.0 * math.sqrt(a)) * math.log(arg)
    return total


def _phase_closed_form(U: EffectivePotential, r: float, r_ref: float) -> float | None:
    u = U.units
    b = U.centrifugal_coeff
    m1 = u.m1
    match U.spec:
        case FreeParticle() | InfiniteSphericalWell():
            if b == 0.0:
                return 0.0
            return m1 * math.sqrt(b) * math.log(r / r_ref)
        case IsotropicHO(omega=w) | HOSpinOrbit(omega=w):
            a = 0.5 * u.mass * w * w
            C = U.spin_orbit_shift
            try:
                if b == 0.0:
                    return m1 * (_ho_l0_antiderivative(a, C, r) - _ho_l0_antiderivative(a, C, r_ref))
                return m1 * (_ho_antiderivative(a, b, C, r) - _ho_antiderivative(a, b, C, r_ref))
            except ValueError:
                return None
    return None


def phase_Q(
    U: EffectivePotential,
    r: float,
    r_ref: float,
    method: str = "auto",
    tol: float = 1e-10,
) -> PhaseResult:
    """Q(r) = m1 * integral of sqrt(U(x)) dx from r_ref to r, with Q(r_ref) = 0."""
    if method not in ("auto", "closed_form", "numeric"):
        raise DomainError(f"unknown method {method!r}")
    if not r > 0 or not r_ref > 0:
        raise DomainError(f"radii must be positive, got r={r}, r_ref={r_ref}")
    _check_nonnegative(U, r_ref, r)
    if r == r_ref:
        return PhaseResult(0.0, "closed_form", r_ref, 0.0)
    if method != "numeric":
        closed = _phase_closed_form(U, r, r_ref)
        if closed is not None:
            return PhaseResult(closed, "closed_form", r_ref, 0.0)
        if method == "closed_form":
            raise DomainError(f"no closed-form phase for {type(U.spec).__name__}")
    val, err = adaptive_integral_many(_phase_integrand(U), r_ref, r, tol=tol)
    return PhaseResult(val, "numeric", r_ref, err)


def _root_u(U: EffectivePotential, r: np.ndarray) -> np.ndarray:
    """m1 sqrt(U) at each radius of ``r`` (any shape), 0 where U <= 0."""
    import numpy as np

    u = eval_effective_array(U, r)
    # clip tiny negative round-off at turning points
    return U.units.m1 * np.sqrt(np.where(u > 0.0, u, 0.0))


def _phase_integrand(U: EffectivePotential) -> BatchIntegrand:
    import numpy as np

    return lambda xs: _root_u(U, np.array(xs)).tolist()


@dataclass(frozen=True)
class Phase:
    """Q(r) of a state: ``phase(r)`` at one radius, ``phase.many(rs)`` at a list of radii."""

    many: Callable[[Sequence[float]], list[float]]

    def __call__(self, r: float) -> float:
        return self.many([r])[0]


def make_phase(U: EffectivePotential, lo: float, hi: float, tol: float = 1e-10) -> Phase:
    """Fast evaluator for Q(r) anchored at Q(lo) = 0, built for r in [lo, hi].

    Closed-form families evaluate their antiderivative at each r, in plain
    Python. Any other family gets a table: [lo, hi] is integrated once by the
    adaptive loop of ``adaptive_integral``, and Q(r) is the prefix sum of the
    panels left of r plus one K15 rule from the edge of the panel holding r.
    ``many`` finds the panels of all radii with one ``searchsorted`` and
    evaluates U on all their nodes with one ``eval_effective_array`` call.
    The closed form falls back to ``phase_Q`` where it does not apply, the
    table outside [lo, hi].
    """
    if not (lo > 0 and hi >= lo):
        raise DomainError(f"phase span must satisfy 0 < lo <= hi, got [{lo}, {hi}]")

    def q_reference(r: float) -> float:
        return phase_Q(U, r, lo, method="numeric", tol=tol).value

    if _phase_closed_form(U, lo, lo) is not None:

        def q_closed(r: float) -> float:
            val = _phase_closed_form(U, r, lo)
            return q_reference(r) if val is None else val

        return Phase(lambda rs: [q_closed(r) for r in rs])

    import numpy as np

    _check_nonnegative(U, lo, hi)
    _, _, panels = _adaptive_panels(_phase_integrand(U), lo, hi, tol)
    panels.sort()
    edges = np.array([a for a, _ in panels])
    prefix = np.cumsum([0.0] + [v for _, v in panels[:-1]])
    nodes = np.array(_NODES)[:, np.newaxis]

    def q_table(r: np.ndarray) -> np.ndarray:
        i = np.searchsorted(edges, r, side="right") - 1
        a = edges[i]
        half = 0.5 * (r - a)
        k15, _ = _k15(_root_u(U, 0.5 * (a + r) + half * nodes), half)
        return np.where(r == a, prefix[i], prefix[i] + k15)

    def many(rs: Sequence[float]) -> list[float]:
        r = np.array(rs, dtype=float)
        inside = (lo <= r) & (r <= hi)
        q = np.empty_like(r)
        q[inside] = q_table(r[inside])
        for j in np.flatnonzero(~inside):
            q[j] = q_reference(float(r[j]))
        return q.tolist()

    return Phase(many)
