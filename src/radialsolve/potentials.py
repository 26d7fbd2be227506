"""Central potential catalog and effective-potential evaluation.

The radial problem is governed by the effective potential

    U(r) = V(r) + hbar^2 l(l+1) / (2 m r^2)

All catalog potentials are spherically symmetric; hard walls are represented
by the distinguished value ``INFINITE`` (IEEE +inf), which orders above every
finite energy, so no spurious turning points can appear from a large-but-
finite sentinel.

Every catalog potential is one case of the coefficient form

    V(r) = a r^2 + b r + c - k / r,   V = INFINITE for r >= L (a hard wall)

with a = m omega^2 / 2 and c = -C_lsj for the oscillator (C_lsj = 0 without
spin-orbit), a, b, c for the parabolic well, k = Z e^2 for hydrogen, L for
the infinite well and all zero for the free particle.
``EffectivePotential`` computes the coefficients, the wall, the scales and
the minimum of U once and rejects any scale that is not a normal float, or
a spec outside the catalog; the solvers' formulas read these fields, not
the spec's parameters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from .errors import DomainError
from .roots import brentq

if TYPE_CHECKING:
    import numpy as np

INFINITE = math.inf

# CODATA-style constants for the eV/nm preset (energies in eV, lengths in nm,
# masses as rest energies m*c^2, hbar carried as hbar*c).
HBARC_EV_NM = 197.3269804
ELECTRON_MASS_EV = 510998.95
FINE_STRUCTURE = 1.0 / 137.035999
E_CHARGE_EV_NM = math.sqrt(FINE_STRUCTURE * HBARC_EV_NM)


@dataclass(frozen=True)
class UnitSystem:
    """Unit constants: hbar, particle mass and (for spin-orbit) light speed."""

    hbar: float = 1.0
    mass: float = 1.0
    light_speed: float = 137.035999
    label: str = "natural"

    def __post_init__(self):
        for name in ("hbar", "mass", "light_speed"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"{name} must be finite and positive, got {value}")

    @property
    def m1(self) -> float:
        """sqrt(2 m) / hbar, the wavenumber per sqrt(energy)."""
        return math.sqrt(2.0 * self.mass) / self.hbar

    @property
    def hbar2_over_m(self) -> float:
        return self.hbar**2 / self.mass


NATURAL = UnitSystem()
#: eV/nm preset: c = 1, masses are rest energies, hbar is hbar*c.
EV_NM = UnitSystem(hbar=HBARC_EV_NM, mass=ELECTRON_MASS_EV, light_speed=1.0, label="eV-nm")

UNIT_PRESETS = {"natural": NATURAL, "eV-nm": EV_NM}


@dataclass(frozen=True)
class HydrogenLike:
    """V(r) = -Z e^2 / r."""

    Z: int = 1
    e_charge: float = 1.0

    def __post_init__(self):
        if not (1 <= self.Z < INFINITE and int(self.Z) == self.Z):
            raise DomainError(f"Z must be a positive integer, got {self.Z}")
        if not self.e_charge > 0:
            raise DomainError("e_charge must be positive")


@dataclass(frozen=True)
class InfiniteSphericalWell:
    """V = 0 for 0 < r < L, infinite outside."""

    L: float

    def __post_init__(self):
        if not self.L > 0:
            raise DomainError(f"well radius L must be positive, got {self.L}")


@dataclass(frozen=True)
class IsotropicHO:
    """V(r) = (1/2) m omega^2 r^2."""

    omega: float

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError(f"omega must be positive, got {self.omega}")


@dataclass(frozen=True)
class HOSpinOrbit:
    """Isotropic oscillator shifted by the constant spin-orbit term -C_lsj.

    ``c0`` parameterizes the coupling strength in energy units; ``c0=None``
    selects the relativistic prefactor hbar^2 omega^2 / (2 m c^2) instead.
    """

    omega: float
    j: float
    s: float = 0.5
    c0: float | None = None

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if not (0.5 <= self.j < INFINITE and round(2 * self.j) == 2 * self.j):
            raise DomainError(f"j must be a half-integer >= 1/2, got {self.j}")
        if not (math.isfinite(self.s) and round(2 * self.s) == 2 * self.s):
            raise DomainError(f"s must be a half-integer, got {self.s}")
        if self.c0 is not None and self.c0 < 0:
            raise DomainError("c0 must be non-negative")


@dataclass(frozen=True)
class Parabolic:
    """V(r) = a r^2 + b r + c with positive coefficients."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(0 < x < INFINITE for x in (self.a, self.b, self.c)):
            raise DomainError("parabolic coefficients a, b, c must all be finite and positive")


@dataclass(frozen=True)
class FreeParticle:
    """V = 0 everywhere."""


PotentialSpec = Union[
    HydrogenLike, InfiniteSphericalWell, IsotropicHO, HOSpinOrbit, Parabolic, FreeParticle
]


def _ls_bracket(j: float, l: int, s: float) -> float:
    return j * (j + 1) - l * (l + 1) - s * (s + 1)


def validate_jls(j: float, l: int, s: float) -> None:
    """Check j in {|l-s|, ..., l+s} in integer steps."""
    if l < 0 or int(l) != l:
        raise DomainError(f"l must be a non-negative integer, got {l}")
    allowed = [abs(l - s) + k for k in range(int(l + s - abs(l - s)) + 1)]
    if not any(math.isclose(j, cand) for cand in allowed):
        raise DomainError(f"invalid angular momentum coupling: j={j}, l={l}, s={s}")


@dataclass(frozen=True)
class EffectivePotential:
    """A potential spec combined with an angular momentum quantum number.

    Construction computes, once, the fields every solver reads:

    - ``quadratic``, ``linear``, ``offset``, ``coulomb``: a, b, c, k of the
      coefficient form; ``wall``: L of a hard wall, ``INFINITE`` without one;
    - ``spin_orbit_shift``: C_lsj of a HOSpinOrbit spec, 0 otherwise;
    - ``length_scale``: a characteristic length that seeds numeric searches;
    - ``energy_scale``: hbar^2 / (m length_scale^2);
    - ``minimum``: (r_min, u_min) of U on its domain, None where U is
      monotone or u_min is not finite (see ``_minimum``).

    It raises one DomainError, naming the quantity and the spec, when any of
    the scales, the oscillator strength m omega^2 / 2 or the relativistic
    spin-orbit prefactor is not a normal float (a shift of exactly 0 is
    allowed), or when the spec is not a catalog potential. No consumer
    checks a scale again.
    """

    spec: PotentialSpec
    l: int = 0
    units: UnitSystem = NATURAL
    centrifugal_coeff: float = field(init=False)
    spin_orbit_shift: float = field(init=False)
    length_scale: float = field(init=False)
    energy_scale: float = field(init=False)
    quadratic: float = field(init=False)
    linear: float = field(init=False)
    offset: float = field(init=False)
    coulomb: float = field(init=False)
    wall: float = field(init=False)
    minimum: tuple[float, float] | None = field(init=False)

    def __post_init__(self):
        spec, l, u = self.spec, self.l, self.units
        if l < 0 or int(l) != l:
            raise DomainError(f"l must be a non-negative integer, got {l}")
        shift = 0.0
        if isinstance(spec, HOSpinOrbit):
            validate_jls(spec.j, l, spec.s)
            bracket = _ls_bracket(spec.j, l, spec.s)
            if spec.c0 is None:
                # omega * omega, not omega**2: a float power raises OverflowError instead of giving inf
                prefactor = u.hbar**2 * (spec.omega * spec.omega) / (2.0 * u.mass * u.light_speed**2)
                shift = _normal(prefactor, "spin-orbit prefactor hbar^2 omega^2 / (2 m c^2)", spec) * bracket
            else:
                shift = 0.5 * spec.c0 * bracket
            if shift:
                _normal(abs(shift), "spin-orbit shift C_lsj", spec)
        quadratic = linear = offset = coulomb = 0.0
        wall = INFINITE
        try:
            match spec:
                case InfiniteSphericalWell(L=L):
                    wall = length = L
                case IsotropicHO(omega=w) | HOSpinOrbit(omega=w):
                    quadratic = _normal(0.5 * u.mass * w * w, "oscillator strength m omega^2 / 2", spec)
                    offset = -shift
                    length = math.sqrt(u.hbar / (u.mass * w))
                case HydrogenLike(Z=Z, e_charge=e):
                    coulomb = Z * e * e
                    length = u.hbar**2 / (u.mass * Z * e * e)
                case Parabolic(a=a, b=b, c=c):
                    quadratic, linear, offset = a, b, c
                    length = (u.hbar**2 / (2.0 * u.mass * a)) ** 0.25
                case FreeParticle():
                    length = 1.0
                case _:
                    raise DomainError(f"unknown potential spec {spec!r}")
        except ZeroDivisionError:
            # the denominator underflowed to 0
            length = INFINITE
        _normal(length, "length scale", spec)
        # divided twice: length * length alone underflows to 0 below about 1e-162
        energy = _normal(u.hbar2_over_m / length / length, "energy scale hbar^2 / (m length^2)", spec)
        # frozen: the computed fields go past __setattr__
        vars(self).update(
            centrifugal_coeff=u.hbar**2 * l * (l + 1) / (2.0 * u.mass),
            spin_orbit_shift=shift, length_scale=length, energy_scale=energy,
            quadratic=quadratic, linear=linear, offset=offset, coulomb=coulomb, wall=wall,
        )
        vars(self)["minimum"] = _minimum(self)

    def eval_potential(self, r: float) -> float:
        """V(r) = a r^2 + b r + c - k / r inside the wall, ``INFINITE`` on and past it."""
        if not 0 < r < INFINITE:
            raise DomainError(f"r must be positive and finite, got {r}")
        if r >= self.wall:
            return INFINITE
        return self.quadratic * r * r + self.linear * r + self.offset - self.coulomb / r

    def __call__(self, r: float) -> float:
        return eval_effective(self, r)

    def least(self, lo: float, hi: float) -> tuple[float, float]:
        """(r, U(r)) where U is least on [lo, hi], 0 < lo <= hi, with no sampling.

        U is monotone on each side of ``minimum`` (everywhere without one),
        so this is ``minimum`` where its radius lies in [lo, hi], and the
        lower of U(lo) and U(hi) otherwise. A minimum on a hard wall is
        the limit of U from inside.
        """
        if self.minimum is not None and lo <= self.minimum[0] <= hi:
            return self.minimum
        u_lo, u_hi = eval_effective(self, lo), eval_effective(self, hi)
        return (lo, u_lo) if u_lo <= u_hi else (hi, u_hi)


def _normal(value: float, what: str, cause: object) -> float:
    """``value`` if it is a normal float; DomainError naming ``what`` and ``cause`` otherwise."""
    if not sys.float_info.min <= value < INFINITE:
        kind = "overflows to" if value == INFINITE else "underflows to" if value >= 0 else "is"
        raise DomainError(f"{what} {kind} {value!r} for {cause}")
    return value


def eval_effective(U: EffectivePotential, r: float) -> float:
    """U(r) = V(r) + centrifugal_coeff / r^2 for finite r > 0.

    Below r of about 1.5e-162, r * r underflows to 0: the centrifugal term is
    then +inf, or absent when its coefficient is 0 (l = 0).
    """
    v = U.eval_potential(r)
    if v == INFINITE:
        return INFINITE
    rr = r * r
    if rr == 0.0:
        return v if U.centrifugal_coeff == 0.0 else INFINITE
    return v + U.centrifugal_coeff / rr


def eval_effective_array(U: EffectivePotential, r: np.ndarray) -> np.ndarray:
    """U on an array of radii, equal bit for bit to ``eval_effective`` at each point.

    The expression is the scalar one less its zero terms, which change no
    bit, so numpy rounds every element exactly as the scalar path does, the
    underflow of r * r included. Like the scalar path it overflows to inf
    without a RuntimeWarning. ``r`` may have any shape; every element must
    be finite and positive.
    """
    import numpy as np

    r = np.asarray(r, dtype=float)
    # min and max are nan when any element is nan
    r_min, r_max = (float(r.min()), float(r.max())) if r.size else (1.0, 1.0)
    if not 0 < r_min <= r_max < INFINITE:
        raise DomainError("r must be positive and finite")
    a, b, c, k, coeff = U.quadratic, U.linear, U.offset, U.coulomb, U.centrifugal_coeff
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the scalar a r r + b r + c - k / r in place, without its zero terms:
        # a, b and coeff are never negative, so every partial sum of either form
        # is +0.0 where it is 0, and adding or subtracting a zero term changes
        # no other float
        v = a * r
        v *= r
        if b:
            v += b * r
        if c:
            v += c
        if k:
            v -= k / r
        if U.wall < INFINITE:
            v = np.where(r < U.wall, v, INFINITE)
        if not coeff:
            # v + 0.0 / (r * r) is v, and the scalar path returns v where r * r is 0
            return v
        rr = r * r
        # a wall stays INFINITE: inf plus the finite centrifugal term is inf
        v += coeff / rr
    if r_min * r_min >= sys.float_info.min:
        return v
    # r * r is subnormal or 0 somewhere: coeff / rr may overflow or divide by 0
    return np.where(rr == 0.0, INFINITE, v)


def _coulomb_level(k: float, g: float, coeff: float) -> float:
    """-k^2 / (g + 4 coeff): the Coulomb level with E d^2 = -g, and the least U at g = 0."""
    kk = k * k
    # (k / (g + 4 coeff)) k only where k * k overflows: the same bits elsewhere
    return -kk / (g + 4.0 * coeff) if kk < INFINITE else -(k / (g + 4.0 * coeff)) * k


def _minimum(U: EffectivePotential) -> tuple[float, float] | None:
    """(r_min, u_min) of U from its coefficients, or None without a finite minimum.

    With l = 0, U = V: its minimum is c at r = 0 under a quadratic or linear
    term; a flat well, a free particle and a bare Coulomb term have none.
    With l >= 1 the closed forms are hydrogen's, the oscillator's and the
    wall's (the centrifugal term falls toward it); a linear term needs
    Brent's method on the strictly increasing U', to |dr| <= 1e-12 r.
    """
    a, b, c, k, coeff = U.quadratic, U.linear, U.offset, U.coulomb, U.centrifugal_coeff
    if U.l == 0:
        return (0.0, c) if a or b else None
    if k > 0:
        r_min, u_min = 2.0 * coeff / k, _coulomb_level(k, 0.0, coeff)
    elif b > 0:
        # U'(r) = 2 a r + b - 2 coeff / r^3 is strictly increasing
        def dU(r):
            return 2.0 * a * r + b - 2.0 * coeff / r**3

        # double, then halve, to a bracket [lo, 2 lo] around the root
        lo = U.length_scale
        while dU(lo) < 0:
            lo *= 2.0
        while dU(lo) > 0:
            lo *= 0.5
        r_min, _ = brentq(dU, lo, 2.0 * lo, rtol=1e-12)
        u_min = eval_effective(U, r_min)
    elif a > 0:
        # sqrt(a) sqrt(coeff) only where a * coeff overflows: the same bits elsewhere
        root = math.sqrt(a * coeff) if a * coeff < INFINITE else math.sqrt(a) * math.sqrt(coeff)
        r_min, u_min = (coeff / a) ** 0.25, 2.0 * root + c
    elif U.wall < INFINITE:
        L = U.wall
        r_min, u_min = L, coeff / (L * L)
    else:
        return None
    return (r_min, u_min) if math.isfinite(u_min) else None
