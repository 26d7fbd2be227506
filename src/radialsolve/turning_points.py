"""Classical turning points: roots of E = U(r).

``turning_points`` checks E against ``U.minimum`` once, then dispatches on
the coefficients a, b, c, k and the wall of U (see ``potentials``). The
Coulomb, oscillator and hard-well cases are one non-cancelling quadratic,
the parabolic well with l = 0 another closed form. With l >= 1 the parabolic
U is strictly convex, so Brent's method on the two flanks of ``U.minimum``
finds its only two roots. The free particle has no outer turning point.
``solve_turning_points`` runs the same flank solves for every catalog U,
which has at most two roots, and serves as the cross-check of the closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, NoClassicalRegionError
from .potentials import INFINITE, EffectivePotential, eval_effective
from .roots import brentq


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


def solve_turning_points(U: EffectivePotential, E: float) -> TurningPoints:
    """Generic numeric solution of E = U(r): the flank solves of ``_flank_turning_points``."""
    return _flank_turning_points(U, E, lambda r: eval_effective(U, r) - E)


def _flank_turning_points(U: EffectivePotential, E: float, g: Callable[[float], float]) -> TurningPoints:
    """The root of g(r) = U(r) - E on each flank of the well's minimum.

    Marches geometrically from the minimum toward the centrifugal
    singularity and outward until U exceeds E, then solves each flank with
    Brent's method to a few ulps. U is monotone on each side of its minimum,
    so these are its only roots.
    """
    scale, wall = U.length_scale, U.wall
    # g is evaluated once per march point; Brent is handed the values it holds
    if U.l == 0 and (U.coulomb > 0 or E > U.offset):
        # U(0+) = V(0+), -inf under a Coulomb term and c otherwise, lies below
        # E: the allowed region reaches down to r = 0
        r1, r_in = 0.0, scale * 1e-9
        g_in = g(r_in)
        if g_in >= 0:
            raise NoClassicalRegionError(f"E={E} not above the potential near r=0")
    elif U.l == 0 or U.minimum is None:
        raise NoClassicalRegionError(f"no classically allowed region found for E={E}")
    else:
        r_min, u_min = U.minimum
        if E <= u_min:
            raise NoClassicalRegionError(f"E={E} at or below the minimum U={u_min}")
        # a minimum on the hard wall: step just inside it
        r_in = r_min if r_min < wall else wall * (1.0 - 1e-12)
        g_in = g(r_in)
        if g_in >= 0:
            raise NoClassicalRegionError(f"E={E} not above the potential at r={r_in}")
        # halve toward r = 0 until U > E: with l >= 1 the centrifugal term
        # rises without bound, so only r^2 underflowing to 0 ends the march
        lo, g_lo, g_hi = r_in, g_in, None
        while g_lo < 0:
            lo *= 0.5
            if lo * lo == 0.0:
                raise NoClassicalRegionError("inner turning point not found above r=0")
            g_lo, g_hi = g(lo), g_lo
        r1 = brentq(g, lo, 2.0 * lo, fa=g_lo, fb=g_hi)[0]

    # outer flank: hard wall caps r2, otherwise double outward until U > E
    if wall < INFINITE:
        if g(wall * (1.0 - 1e-12)) < 0:
            r2 = wall
        else:
            r2 = brentq(g, r_in, wall, fa=g_in)[0]
    else:
        hi, g_hi, g_lo = r_in, g_in, None
        while g_hi < 0:
            hi *= 2.0
            if hi == INFINITE:
                raise NoClassicalRegionError("no outer turning point (U stays below E)")
            g_lo, g_hi = g_hi, g(hi)
        r2 = brentq(g, 0.5 * hi, hi, fa=g_lo, fb=g_hi)[0]

    return TurningPoints(r1=r1, r2=r2, energy=E, method="numeric")


def _quadratic_roots(A: float, B: float, C: float) -> tuple[float, float]:
    """Roots y1 <= y2 of A y^2 - B y + C = 0 (A, C >= 0, B > 0) as (y1, h), y2 = h / A.

    h = (B + sqrt(disc)) / 2 and y1 = C / h, neither cancelling. The caller
    divides h by A, as sqrt(y2) can be a float where y2 overflows. A
    disc <= 0 (a double root, to rounding) counts as 0; a disc that
    overflows has B^2 factored out. For A = 0 the one root is y1 = C / B,
    and h = B.
    """
    if A == 0.0:
        return C / B, B
    disc, scale = B * B - 4.0 * A * C, 1.0
    if not -INFINITE < disc < INFINITE:
        disc, scale = 1.0 - 4.0 * (A / B) * (C / B), B
    root = scale * math.sqrt(disc) if disc > 0 else 0.0
    h = 0.5 * B + 0.5 * root  # B + root may overflow
    return C / h, h


def turning_points(U: EffectivePotential, E: float) -> TurningPoints:
    """Turning points of a catalog U at E, dispatched on its coefficients.

    E at or below ``U.minimum`` raises NoClassicalRegionError. Otherwise:

    - k > 0: -E y^2 - k y + coeff = 0 in y = r (bound E < 0 only);
    - b > 0: with l = 0, r1 = 0 and r2 = t / (b/2 + sqrt(b^2/4 + a t)),
      t = E - c; with l >= 1, U'' = 2 a + 6 coeff / r^4 > 0, so the flank
      solves find the only two roots;
    - a > 0 or a wall: a y^2 - (E - c) y + coeff = 0 in y = r^2 (``_quadratic_roots``),
      one root for the well (a = 0), whose wall is r2;
    - otherwise (the free particle) U never rises above E.

    With l = 0, coeff = 0 puts r1 at the origin. An r2 beyond the largest
    float raises DomainError.
    """
    if not math.isfinite(E):
        raise DomainError(f"energy must be finite, got {E}")
    if U.minimum is not None and E <= U.minimum[1]:
        raise NoClassicalRegionError(f"E={E} at or below the minimum U={U.minimum[1]}")
    a, b, c, k, coeff = U.quadratic, U.linear, U.offset, U.coulomb, U.centrifugal_coeff
    if k > 0:
        if E >= 0:
            raise DomainError("hydrogen-like closed form requires a bound energy E < 0")
        r1, h = _quadratic_roots(-E, k, coeff)
        r2 = h / -E
    elif b > 0:
        # subtract c once: near the minimum it would swamp U(r) - E in rounding
        t = E - c
        if U.l > 0:
            return _flank_turning_points(U, E, lambda r: a * r * r + b * r + coeff / (r * r) - t)
        # hypot and sqrt(a) sqrt(t) keep b^2 and a t from overflowing
        r1, r2 = 0.0, t / (0.5 * b + math.hypot(0.5 * b, math.sqrt(a) * math.sqrt(t)))
    elif a > 0 or U.wall < INFINITE:
        # the l = 0 well has no minimum, nor has an oscillator whose u_min overflows
        if E <= c:
            raise NoClassicalRegionError(f"E={E} not above V(0+)={c}")
        y1, h = _quadratic_roots(a, E - c, coeff)
        r1 = math.sqrt(y1)
        if a == 0.0:
            r2 = U.wall
        else:
            # r2 = sqrt(h) / sqrt(a) only where r2^2 = h / a overflows: the same bits elsewhere
            y2 = h / a
            r2 = math.sqrt(y2) if y2 < INFINITE else math.sqrt(h) / math.sqrt(a)
    else:
        raise NoClassicalRegionError(
            f"free particle: U never rises above E={E}, so there is no outer turning point"
        )
    if r2 == INFINITE:
        raise DomainError(f"outer turning point overflows at E={E!r}")
    return TurningPoints(r1=r1, r2=r2, energy=E, method="closed_form")
