"""Central potential catalog and effective-potential evaluation.

The radial problem is governed by the effective potential

    U(r) = V(r) + hbar^2 l(l+1) / (2 m r^2)

All catalog potentials are spherically symmetric; hard walls are represented
by the distinguished value ``INFINITE`` (IEEE +inf), which orders above every
finite energy, so no spurious turning points can appear from a large-but-
finite sentinel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from .errors import DomainError, NoMinimumError
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
        if self.Z < 1 or int(self.Z) != self.Z:
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


def spin_orbit_constant(
    omega: float,
    j: float,
    l: int,
    s: float,
    units: UnitSystem = NATURAL,
    mode: str = "c0",
    c0: float = 0.0,
) -> float:
    """Constant shift C_lsj of the oscillator with spin-orbit coupling.

    mode "c0":           C = (c0 / 2) * [j(j+1) - l(l+1) - s(s+1)]
    mode "relativistic": C = hbar^2 omega^2 / (2 m c^2) * [j(j+1) - l(l+1) - s(s+1)]
    """
    validate_jls(j, l, s)
    bracket = _ls_bracket(j, l, s)
    if mode == "c0":
        return 0.5 * c0 * bracket
    if mode == "relativistic":
        # omega * omega, not omega**2: a float power raises OverflowError instead of giving inf
        prefactor = units.hbar**2 * (omega * omega) / (2.0 * units.mass * units.light_speed**2)
        _normal(prefactor, "spin-orbit prefactor hbar^2 omega^2 / (2 m c^2)", f"omega={omega!r}")
        return prefactor * bracket
    raise DomainError(f"unknown spin-orbit mode {mode!r}")


def _so_constant_for(spec: HOSpinOrbit, l: int, units: UnitSystem) -> float:
    if spec.c0 is None:
        return spin_orbit_constant(spec.omega, spec.j, l, spec.s, units, mode="relativistic")
    return spin_orbit_constant(spec.omega, spec.j, l, spec.s, units, mode="c0", c0=spec.c0)


def eval_potential(spec: PotentialSpec, r: float, units: UnitSystem = NATURAL, l: int = 0) -> float:
    """Value of the central potential V(r); hard walls return ``INFINITE``."""
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    match spec:
        case HydrogenLike(Z=Z, e_charge=e):
            return -Z * e * e / r
        case InfiniteSphericalWell(L=L):
            return 0.0 if r < L else INFINITE
        case IsotropicHO(omega=w):
            return 0.5 * units.mass * w * w * r * r
        case HOSpinOrbit(omega=w):
            return 0.5 * units.mass * w * w * r * r - _so_constant_for(spec, l, units)
        case Parabolic(a=a, b=b, c=c):
            return a * r * r + b * r + c
        case FreeParticle():
            return 0.0
    raise DomainError(f"unknown potential spec {spec!r}")


@dataclass(frozen=True)
class EffectivePotential:
    """A potential spec combined with an angular momentum quantum number."""

    spec: PotentialSpec
    l: int = 0
    units: UnitSystem = NATURAL
    centrifugal_coeff: float = field(init=False)

    def __post_init__(self):
        if self.l < 0 or int(self.l) != self.l:
            raise DomainError(f"l must be a non-negative integer, got {self.l}")
        if isinstance(self.spec, HOSpinOrbit):
            validate_jls(self.spec.j, self.l, self.spec.s)
        coeff = self.units.hbar**2 * self.l * (self.l + 1) / (2.0 * self.units.mass)
        object.__setattr__(self, "centrifugal_coeff", coeff)

    def eval_potential(self, r: float) -> float:
        return eval_potential(self.spec, r, self.units, self.l)

    def __call__(self, r: float) -> float:
        return eval_effective(self, r)

    @property
    def spin_orbit_shift(self) -> float:
        """C_lsj for HOSpinOrbit specs, 0 otherwise."""
        if isinstance(self.spec, HOSpinOrbit):
            return _so_constant_for(self.spec, self.l, self.units)
        return 0.0

    @property
    def length_scale(self) -> float:
        """A characteristic length used to seed numeric searches."""
        u = self.units
        match self.spec:
            case InfiniteSphericalWell(L=L):
                return L
            case IsotropicHO(omega=w) | HOSpinOrbit(omega=w):
                return math.sqrt(u.hbar / (u.mass * w))
            case HydrogenLike(Z=Z, e_charge=e):
                return u.hbar**2 / (u.mass * Z * e * e)
            case Parabolic(a=a):
                return (u.hbar**2 / (2.0 * u.mass * a)) ** 0.25
            case _:
                return 1.0


def _normal(value: float, what: str, cause: str) -> float:
    """``value`` if it is a normal float; DomainError naming ``what`` and ``cause`` otherwise."""
    if not sys.float_info.min <= value < INFINITE:
        kind = "overflows" if value == INFINITE else "underflows"
        raise DomainError(f"{what} {kind} to {value!r} for {cause}")
    return value


def oscillator_strength(omega: float, units: UnitSystem) -> float:
    """a = m omega^2 / 2 of the oscillator; DomainError unless a is a normal float."""
    a = 0.5 * units.mass * omega * omega
    return _normal(a, "oscillator strength m omega^2 / 2", f"omega={omega!r}")


def well_energy_scale(L: float, units: UnitSystem) -> float:
    """hbar^2 / (m L^2) of the hard well; DomainError unless it is a normal float."""
    # divide twice: L * L alone underflows to 0 for L below about 1e-162
    scale = units.hbar2_over_m / L / L
    return _normal(scale, "well energy scale hbar^2 / (m L^2)", f"L={L!r}")


def coulomb_energy_scale(Z: int, e: float, units: UnitSystem) -> float:
    """m (Z e^2)^2 / hbar^2, twice the Rydberg energy; DomainError unless it is a normal float."""
    a = Z * e * e
    scale = a * a / units.hbar2_over_m
    return _normal(scale, "Coulomb energy scale m (Z e^2)^2 / hbar^2", f"Z={Z!r}, e={e!r}")


def eval_effective(U: EffectivePotential, r: float) -> float:
    """U(r) = V(r) + centrifugal_coeff / r^2.

    Below r of about 1.5e-162, r * r underflows to 0: the centrifugal term is
    then +inf, or absent when its coefficient is 0 (l = 0).
    """
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    v = U.eval_potential(r)
    if v == INFINITE:
        return INFINITE
    rr = r * r
    if rr == 0.0:
        return v if U.centrifugal_coeff == 0.0 else INFINITE
    return v + U.centrifugal_coeff / rr


def eval_effective_array(U: EffectivePotential, r: np.ndarray) -> np.ndarray:
    """U on an array of radii, equal bit for bit to ``eval_effective`` at each point.

    Each formula repeats the scalar one operation for operation, so numpy
    rounds every element exactly as the scalar path does, the underflow of
    r * r included, without a RuntimeWarning there. ``r`` may have any shape.
    """
    import numpy as np

    r = np.asarray(r, dtype=float)
    # min is nan when any element is nan
    r_min = float(r.min()) if r.size else 1.0
    if not r_min > 0:
        raise DomainError("r must be positive")
    units = U.units
    match U.spec:
        case HydrogenLike(Z=Z, e_charge=e):
            v = -Z * e * e / r
        case InfiniteSphericalWell(L=L):
            v = np.where(r < L, 0.0, INFINITE)
        case IsotropicHO(omega=w):
            v = 0.5 * units.mass * w * w * r * r
        case HOSpinOrbit(omega=w):
            v = 0.5 * units.mass * w * w * r * r - _so_constant_for(U.spec, U.l, units)
        case Parabolic(a=a, b=b, c=c):
            v = a * r * r + b * r + c
        case FreeParticle():
            v = np.zeros_like(r)
        case _:
            raise DomainError(f"unknown potential spec {U.spec!r}")
    coeff = U.centrifugal_coeff
    rr = r * r
    if r_min * r_min >= sys.float_info.min:
        # a wall stays INFINITE: inf plus the finite centrifugal term is inf
        return v + coeff / rr
    # r * r is subnormal or 0 somewhere: coeff / rr may overflow or divide by 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = v + coeff / rr
    return np.where(rr == 0.0, v if coeff == 0.0 else INFINITE, u)


def effective_minimum(U: EffectivePotential) -> tuple[float, float]:
    """Location and value of the minimum of U on its domain.

    Closed forms exist for every catalog family; the parabolic well with
    l >= 1 falls back to Brent's method on the (strictly increasing)
    derivative, to |dr| <= 1e-12 r.
    Raises NoMinimumError when U is monotone without a finite minimum.
    """
    u = U.units
    b = U.centrifugal_coeff
    match U.spec:
        case IsotropicHO(omega=w) | HOSpinOrbit(omega=w):
            shift = U.spin_orbit_shift
            a = oscillator_strength(w, u)
            if U.l == 0:
                return 0.0, -shift
            r_min = (b / a) ** 0.25
            return r_min, 2.0 * math.sqrt(a * b) - shift
        case HydrogenLike(Z=Z, e_charge=e):
            coulomb_energy_scale(Z, e, u)
            a = Z * e * e
            if U.l == 0:
                raise NoMinimumError("attractive Coulomb with l = 0 is monotone")
            r_min = 2.0 * b / a
            return r_min, -a * a / (4.0 * b)
        case InfiniteSphericalWell(L=L):
            well_energy_scale(L, u)
            if U.l == 0:
                raise NoMinimumError("flat well interior with l = 0 has no interior minimum")
            # centrifugal term decreases monotonically; the minimum sits at the wall
            return L, b / (L * L)
        case Parabolic(a=a, b=pb, c=c):
            if U.l == 0:
                return 0.0, c
            # U'(r) = 2 a r + b - 2 coeff / r^3 is strictly increasing
            def dU(r):
                return 2.0 * a * r + pb - 2.0 * b / r**3

            # double, then halve, to a bracket [lo, 2 lo] around the root
            lo = U.length_scale
            while dU(lo) < 0:
                lo *= 2.0
            while dU(lo) > 0:
                lo *= 0.5
            r_min, _ = brentq(dU, lo, 2.0 * lo, rtol=1e-12)
            return r_min, eval_effective(U, r_min)
        case FreeParticle():
            if U.l == 0:
                raise NoMinimumError("free particle with l = 0 is flat")
            raise NoMinimumError("pure centrifugal barrier is monotone")
    raise DomainError(f"unknown potential spec {U.spec!r}")
