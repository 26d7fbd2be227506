"""Classical turning points: roots of E = U(r).

Closed forms cover the hydrogen-like, hard-well and oscillator families and
the parabolic well reduces to the positive roots of a quartic; the free
particle has no outer turning point. A generic sampling + Brent solver,
``solve_turning_points``, works for any single well and serves as the
cross-check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AmbiguousRootsError,
    BelowBarrierError,
    DomainError,
    NoClassicalRegionError,
    NoMinimumError,
)
from .potentials import (
    INFINITE,
    EffectivePotential,
    FreeParticle,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
    effective_minimum,
    eval_effective,
    oscillator_strength,
)
from .roots import brentq

_REL_TOL = 1e-13


@dataclass(frozen=True)
class TurningPoints:
    """Inner/outer turning points with midpoint r0 and width d."""

    r1: float
    r2: float
    energy: float
    method: str  # "closed_form" | "numeric"

    def __post_init__(self):
        if not self.r2 > self.r1:
            raise NoClassicalRegionError(
                f"degenerate turning points r1={self.r1}, r2={self.r2}"
            )
        if self.r1 < 0:
            raise DomainError(f"r1 must be >= 0, got {self.r1}")

    @property
    def r0(self) -> float:
        return 0.5 * (self.r1 + self.r2)

    @property
    def d(self) -> float:
        return self.r2 - self.r1


def _inner_edge_is_origin(U: EffectivePotential, E: float) -> bool:
    """True when the classically allowed region extends down to r = 0."""
    if U.l > 0:
        return False
    # l = 0: U(0+) is V(0+); allowed iff E exceeds it
    match U.spec:
        case HydrogenLike():
            return True  # V -> -inf
        case InfiniteSphericalWell() | FreeParticle():
            return E > 0
        case IsotropicHO():
            return E > 0
        case HOSpinOrbit():
            return E > -U.spin_orbit_shift
        case Parabolic(c=c):
            return E > c
    return False


def solve_turning_points(U: EffectivePotential, E: float) -> TurningPoints:
    """Generic numeric solution of E = U(r) around the potential-well minimum.

    Samples geometrically toward the centrifugal singularity, solves each
    flank with Brent's method to |dr| <= 1e-13 r, then verifies that no
    further roots intrude on the bracketed interval (AmbiguousRootsError
    otherwise).
    """
    scale = U.length_scale
    wall = U.spec.L if isinstance(U.spec, InfiniteSphericalWell) else None

    def g(r):
        u = eval_effective(U, r)
        return INFINITE if u == INFINITE else u - E

    if _inner_edge_is_origin(U, E):
        r1 = 0.0
        r_lo_allowed = scale * 1e-9
        if g(r_lo_allowed) >= 0:
            raise NoClassicalRegionError(f"E={E} not above the potential near r=0")
    else:
        r1 = None

    # locate a point inside the allowed region
    try:
        r_min, u_min = effective_minimum(U)
    except NoMinimumError:
        r_min, u_min = None, None
    if r_min is not None and r_min > 0 and math.isfinite(u_min):
        if E <= u_min:
            raise NoClassicalRegionError(f"E={E} at or below the minimum U={u_min}")
        r_in = r_min
        if wall is not None and r_in >= wall:
            # minimum sits on the hard wall; step just inside it
            r_in = wall * (1.0 - 1e-12)
        if g(r_in) >= 0:
            raise NoClassicalRegionError(f"E={E} not above the potential at r={r_in}")
    elif r1 == 0.0:
        r_in = scale * 1e-9
    else:
        raise NoClassicalRegionError(f"no classically allowed region found for E={E}")

    if r1 is None:
        # march the inner flank down geometrically until U > E
        lo = r_in
        factor = 0.5
        while g(lo) < 0:
            lo *= factor
            if lo < scale * 1e-18:
                raise NoClassicalRegionError("inner turning point not found above r=0")
        r1 = brentq(g, lo, r_in, rtol=_REL_TOL)[0]

    # outer flank: hard wall caps r2, otherwise double outward until U > E
    if wall is not None:
        if g(wall * (1.0 - 1e-12)) < 0:
            r2 = wall
        else:
            r2 = brentq(g, r_in, wall, rtol=_REL_TOL)[0]
    else:
        hi = max(r_in, scale)
        grew = 0
        while g(hi) < 0:
            hi *= 2.0
            grew += 1
            if grew > 200:
                raise NoClassicalRegionError("no outer turning point (U stays below E)")
        r2 = brentq(g, r_in if grew == 0 else hi / 2.0, hi, rtol=_REL_TOL)[0]

    tp = TurningPoints(r1=r1, r2=r2, energy=E, method="numeric")
    _check_single_well(U, tp)
    return tp


def _check_single_well(U: EffectivePotential, tp: TurningPoints, samples: int = 512) -> None:
    import numpy as np

    lo = tp.r1 if tp.r1 > 0 else tp.r2 * 1e-9
    rs = np.linspace(lo, tp.r2, samples + 2)[1:-1]
    vals = np.array([eval_effective(U, float(r)) - tp.energy for r in rs])
    sign_changes = np.flatnonzero(np.diff(np.sign(vals)) != 0)
    if sign_changes.size:
        roots = [float(rs[i]) for i in sign_changes]
        raise AmbiguousRootsError([tp.r1, *roots, tp.r2])


def closed_form_turning_points(U: EffectivePotential, E: float) -> TurningPoints:
    """Algebraic turning points for the families that admit them."""
    u = U.units
    b = U.centrifugal_coeff
    match U.spec:
        case HydrogenLike(Z=Z, e_charge=e):
            if E >= 0:
                raise DomainError("hydrogen-like closed form requires a bound energy E < 0")
            a = Z * e * e
            absE = -E
            disc = a * a - 4.0 * b * absE
            if disc < 0:
                raise BelowBarrierError(f"E={E} below the centrifugal barrier (disc={disc})")
            root = math.sqrt(disc)
            r1 = (a - root) / (2.0 * absE)
            r2 = (a + root) / (2.0 * absE)
            if U.l == 0:
                r1 = 0.0
            return TurningPoints(r1=r1, r2=r2, energy=E, method="closed_form")
        case InfiniteSphericalWell(L=L):
            if E <= 0:
                raise NoClassicalRegionError("well requires E > 0")
            r1 = 0.0 if U.l == 0 else math.sqrt(b / E)
            if r1 >= L:
                raise NoClassicalRegionError(f"E={E} below the centrifugal floor at the wall")
            return TurningPoints(r1=r1, r2=L, energy=E, method="closed_form")
        case IsotropicHO(omega=w) | HOSpinOrbit(omega=w):
            shift = U.spin_orbit_shift
            a = oscillator_strength(w, u)
            Es = E + shift
            if U.l > 0 and Es <= 2.0 * math.sqrt(a * b):
                raise NoClassicalRegionError(f"E={E} at or below the potential minimum")
            disc = Es * Es - 4.0 * a * b
            if disc < 0:
                raise BelowBarrierError(f"E={E} below the centrifugal barrier (disc={disc})")
            delta = math.sqrt(disc)
            if Es - delta < 0:
                raise NoClassicalRegionError(f"E={E} not above the potential minimum")
            r1 = math.sqrt((Es - delta) / (2.0 * a))
            r2 = math.sqrt((Es + delta) / (2.0 * a))
            if U.l == 0:
                r1 = 0.0
            return TurningPoints(r1=r1, r2=r2, energy=E, method="closed_form")
    raise DomainError(f"no closed-form turning points for {type(U.spec).__name__}")


def quartic_positive_roots(a4: float, a3: float, a2: float, a0: float) -> list[float]:
    """Real positive roots of a4 r^4 + a3 r^3 + a2 r^2 + a0, sorted ascending.

    Companion-matrix eigenvalues seed a Newton polish; each returned root has
    |residual| <= 1e-9 max(1, max|coefficient|).
    """
    import numpy as np

    if not a4 > 0:
        raise DomainError(f"leading coefficient must be positive, got {a4}")
    coeffs = [a4, a3, a2, 0.0, a0]
    # the companion matrix holds the monic coefficients c / a4
    if not all(math.isfinite(c / a4) for c in coeffs):
        raise DomainError(f"quartic coefficients {coeffs} are not finite once divided by a4")

    def p(x):
        return ((a4 * x + a3) * x + a2) * x * x + a0

    def dp(x):
        return ((4.0 * a4 * x + 3.0 * a3) * x + 2.0 * a2) * x

    scale = max(1.0, max(abs(c) for c in coeffs))
    roots = []
    for z in np.roots(coeffs):
        if abs(z.imag) > 1e-7 * max(1.0, abs(z.real)):
            continue
        x = float(z.real)
        if x <= 0:
            continue
        for _ in range(50):
            fx = p(x)
            dfx = dp(x)
            if dfx == 0.0:
                break
            step = fx / dfx
            x -= step
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        if x > 0 and abs(p(x)) <= 1e-9 * scale:
            roots.append(x)
    roots.sort()
    deduped: list[float] = []
    for x in roots:
        if not deduped or x - deduped[-1] > 1e-9 * max(1.0, x):
            deduped.append(x)
    return deduped


def parabolic_turning_points(U: EffectivePotential, E: float) -> TurningPoints:
    """Turning points of the parabolic well via its quartic resolvent.

    Among the positive roots, the pair immediately bracketing the minimum of
    U is selected; with l = 0 the inner turning point is r1 = 0.
    """
    if not isinstance(U.spec, Parabolic):
        raise DomainError("parabolic_turning_points requires a Parabolic spec")
    a, pb, c = U.spec.a, U.spec.b, U.spec.c
    delta = U.centrifugal_coeff
    roots = quartic_positive_roots(a, pb, c - E, delta)
    if U.l == 0:
        if E <= c:
            raise NoClassicalRegionError(f"E={E} at or below the l=0 minimum {c}")
        if len(roots) != 1:
            raise AmbiguousRootsError(roots)
        return TurningPoints(r1=0.0, r2=roots[0], energy=E, method="closed_form")
    r_min, u_min = effective_minimum(U)
    if E <= u_min:
        raise NoClassicalRegionError(f"E={E} at or below the minimum U={u_min}")
    below = [x for x in roots if x < r_min]
    above = [x for x in roots if x > r_min]
    if not below or not above:
        raise NoClassicalRegionError(f"quartic roots {roots} do not bracket r_min={r_min}")
    return TurningPoints(r1=below[-1], r2=above[0], energy=E, method="closed_form")


def turning_points(U: EffectivePotential, E: float) -> TurningPoints:
    """Turning points of a catalog potential: closed form or quartic."""
    if not math.isfinite(E):
        raise DomainError(f"energy must be finite, got {E}")
    match U.spec:
        case HydrogenLike() | InfiniteSphericalWell() | IsotropicHO() | HOSpinOrbit():
            return closed_form_turning_points(U, E)
        case Parabolic():
            return parabolic_turning_points(U, E)
        case FreeParticle():
            raise NoClassicalRegionError(
                f"free particle: U never rises above E={E}, so there is no outer turning point"
            )
    raise DomainError(f"unknown potential spec {U.spec!r}")
