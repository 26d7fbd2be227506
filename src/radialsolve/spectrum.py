"""Energy formulas built on the turning-point width d = r2 - r1.

The central relations are the bound ground-state formula E = -2 hbar^2/(m d^2)
and its excited-state variants K d = (2n-1) pi (symmetric), K d = 2 n pi
(antisymmetric) and K d = n pi (general): every branch is K d = theta with
E = g / d^2, g = (1/2)(hbar^2/m) theta^2. ``closed_form_energy`` reads the
level of the hydrogen, oscillator and hard-well families from the
coefficients of U, one formula for all of them; Brent's method
(``roots.brentq``) solves the implicit equation E = g / d(E)^2 for every
member of the catalog, and the ``spectrum`` verb checks one against the
other. The solve takes its unit system and its energy scale from the
EffectivePotential, which has checked both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import ConvergenceError, DomainError, NoClassicalRegionError
from .potentials import (
    INFINITE,
    NATURAL,
    EffectivePotential,
    Frozen,
    HydrogenLike,
    UnitSystem,
    _coulomb_level,
    _set_field,
)
from .roots import brentq
from .turning_points import TurningPoints, turning_points


class Ground(Frozen):
    """K d = 2."""


class _Numbered(Frozen):
    __match_args__ = _fields = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"quantum number n must be >= 1, got {n}")
        _set_field(self, "n", n)


class Symmetric(_Numbered):
    """K d = (2n - 1) pi."""


class Antisymmetric(_Numbered):
    """K d = 2 n pi."""


class General(_Numbered):
    """K d = n pi."""


EnergyBranch = Union[Ground, Symmetric, Antisymmetric, General]


@dataclass(frozen=True)
class EnergyLevel:
    """A solved level E with the turning points at E, from the solve itself."""

    value: float
    turning_points: TurningPoints
    iterations: int = 0

    @property
    def d_at_solution(self) -> float:
        return self.turning_points.d


def branch_theta(branch: EnergyBranch) -> float:
    """Branch angle theta of the quantization condition K d = theta."""
    match branch:
        case Ground():
            return 2.0
        case Symmetric(n=n):
            return (2 * n - 1) * math.pi
        case Antisymmetric(n=n):
            return 2 * n * math.pi
        case General(n=n):
            return n * math.pi
    raise DomainError(f"unknown branch {branch!r}")


def branch_g(branch: EnergyBranch, units: UnitSystem = NATURAL) -> float:
    """Aggregate g = (1/2)(hbar^2/m) theta^2 with E = g / d^2 (energy * length^2)."""
    return 0.5 * units.hbar2_over_m * branch_theta(branch) ** 2


def ground_energy_from_d(d: float, units: UnitSystem = NATURAL, signed: bool = False) -> float:
    """Ground-state energy 2 hbar^2 / (m d^2); negative when signed (bound)."""
    magnitude = excited_energy_from_d(d, Ground(), units)
    return -magnitude if signed else magnitude


def excited_energy_from_d(d: float, branch: EnergyBranch, units: UnitSystem = NATURAL) -> float:
    """Branch energy g(branch) / d^2."""
    if not d > 0:
        raise DomainError(f"width d must be positive, got {d}")
    return branch_g(branch, units) / (d * d)


def delta_model_energy(S: float, units: UnitSystem = NATURAL) -> tuple[float, float, float]:
    """Bound state of the surrogate potential S * delta(r - r0).

    Returns (k, E, |A|) with k = m |S| / hbar^2, E = -m S^2 / (2 hbar^2) and
    the normalization |A| = sqrt(k).
    """
    if S == 0.0:
        raise DomainError("S = 0 supports no bound state")
    k = units.mass * abs(S) / units.hbar**2
    E = -units.mass * S * S / (2.0 * units.hbar**2)
    return k, E, math.sqrt(k)


def closed_form_energy(U: EffectivePotential, branch: EnergyBranch) -> Optional[float]:
    """The branch level in closed form, read from the coefficients of U.

    The turning points are the two roots of one quadratic (see
    ``turning_points``), so d^2 follows from their sum and product:

    - k > 0 (hydrogen): d^2 = k^2/E^2 + 4 coeff/E, and the bound level
      E d^2 = -g is E = -k^2 / (g + 4 coeff), for every branch;
    - a > 0 (oscillator and HOSO): d^2 = (E - c)/a - 2 sqrt(coeff/a), and
      E d^2 = g is E^2 - u E - a g = 0 with u = c + 2 sqrt(a) sqrt(coeff),
      whose positive root is taken in a form that never cancels;
    - a wall (the hard well): d = L - sqrt(coeff/E), so sqrt(E) L = sqrt(coeff) + sqrt(g).

    None for the parabolic well (b > 0) and the free particle, which have no closed form.
    """
    g = branch_g(branch, U.units)
    a, c, k, coeff = U.quadratic, U.offset, U.coulomb, U.centrifugal_coeff
    if k > 0:
        return _coulomb_level(k, g, coeff)
    if U.linear > 0:
        return None
    if a > 0:
        # sqrt(a) sqrt(...) and hypot keep a coeff, a g and half^2 from overflowing
        half = 0.5 * c + math.sqrt(a) * math.sqrt(coeff)
        root = math.hypot(half, math.sqrt(a) * math.sqrt(g))
        return half + root if half >= 0 else a * g / (root - half)
    if U.wall < INFINITE:
        return ((math.sqrt(coeff) + math.sqrt(g)) / U.wall) ** 2
    return None


#: with eps = U.energy_scale, Brent stops at |dE| <= _E_TOL max(eps, |E|);
#: a returned level satisfies |E - sign g / d^2| <= _RESIDUAL_TOL max(eps, |E|),
#: or has a residual no larger than half the change of h across E +- _E_TOL max(eps, |E|)
_E_TOL = 1e-15
_RESIDUAL_TOL = 1e-10


def self_consistent_energy(
    U: EffectivePotential, branch: EnergyBranch, *, signed: bool = False
) -> EnergyLevel:
    """Solve E = g / d(E)^2 with Brent's method (``roots.brentq``).

    Writing E = anchor + sign * t, the residual h(E) = E - sign * g / d(E)^2
    is negative for small t > 0 and positive for large t in the catalog
    families. The plain solve (sign +1) starts at the minimum of U (0 when U
    has none) and searches upward. The signed solve (sign -1, bound Coulomb
    states) starts at 0 and searches downward, no further than the minimum
    of U. A geometric search brackets the sign change; Brent's method then
    solves it to |dE| <= 1e-15 max(eps, |E|), eps = ``U.energy_scale``. The
    solve ends in E when |h(E)| <= 1e-10 max(eps, |E|), or when moving E by
    that tolerance moves h by at least |h(E)|: where h is steep, no float
    meets the first bound. The floors are in the problem's own energy unit,
    so a level is found to the same relative precision at any scale. Each E
    costs one turning-point solve, and the level keeps the one at its E.
    """
    g, eps = branch_g(branch, U.units), U.energy_scale
    floor = None if U.minimum is None else U.minimum[1]
    t_cap = None
    if signed:
        if not isinstance(U.spec, HydrogenLike):
            raise DomainError("signed solve is defined for bound Coulomb-like potentials")
        anchor, sign = 0.0, -1.0
        if floor is not None:
            t_cap = -floor * (1.0 - 1e-12)
    else:
        anchor, sign = (0.0 if floor is None else floor), 1.0
    span = t_cap or max(abs(anchor), eps)
    # one turning-point solve per E: Brent evaluates the bracket's ends again,
    # and the level keeps the turning points of its root
    tp_at = functools.cache(functools.partial(turning_points, U))

    def h(E: float) -> float:
        d = tp_at(E).d
        d2 = d * d  # not d**2, which raises OverflowError where d * d is inf
        # g / d^2 grows without bound as d^2 underflows to 0
        return E - sign * (g / d2 if d2 else math.inf)

    t = span
    for _ in range(60):
        try:
            if h(anchor + sign * t) < 0:
                break
        except NoClassicalRegionError:
            pass
        t *= 0.25
    else:
        raise ConvergenceError(f"no bracketing interval found next to E={anchor}")
    t_lo = t_hi = t
    # double until h changes sign; once E overflows no level is left to find
    while True:
        t_lo, t_hi = t_hi, 2.0 * t_hi if t_cap is None else min(2.0 * t_hi, t_cap)
        if math.isinf(anchor + sign * t_hi):
            raise ConvergenceError("no upper bracket found", last_iterate=anchor + sign * t_lo)
        if h(anchor + sign * t_hi) >= 0:
            break
        if t_hi == t_cap:
            raise ConvergenceError("no sign change between 0 and the potential minimum")

    E, iterations = brentq(h, anchor + sign * t_lo, anchor + sign * t_hi, xtol=_E_TOL * eps, rtol=_E_TOL)
    tp = tp_at(E)
    d = tp.d
    residual = abs(E - sign * g / (d * d))
    if not residual <= _RESIDUAL_TOL * max(eps, abs(E)):
        # where h is steep, no float meets that bound: accept E when moving it
        # by its own tolerance moves h by more than the residual
        dE = _E_TOL * max(eps, abs(E))
        if not residual <= abs(h(E + dE) - h(E - dE)) / 2.0:
            raise ConvergenceError(
                f"fixed point not converged: residual {residual}", last_iterate=E, iterations=iterations
            )
    return EnergyLevel(value=E, turning_points=tp, iterations=iterations)
