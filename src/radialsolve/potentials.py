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


#: stores a field of a ``Frozen`` value past its ``__setattr__``, as a frozen
#: dataclass's ``__init__`` does. A write to ``self.__dict__`` would also do,
#: but CPython would then give up the instance's inline attribute values,
#: and every later read of a field would be slower.
_set_field = object.__setattr__


class Frozen:
    """Base of the package's immutable value classes, with no generated code.

    A subclass names its fields in ``_fields``, and its constructor's
    parameters in ``__match_args__`` (the same names, unless ``_fields``
    adds computed ones); its ``__init__`` checks the values and stores each
    with ``_set_field``. ``==`` and ``hash`` go by exact type and field
    values, ``repr`` has the dataclass format, and assignment raises
    AttributeError. ``copy`` and ``pickle`` restore ``__dict__`` directly.
    """

    _fields: tuple[str, ...] = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class UnitSystem(Frozen):
    """Unit constants: hbar, particle mass and (for spin-orbit) light speed."""

    __match_args__ = _fields = ("hbar", "mass", "light_speed", "label")

    def __init__(
        self, hbar: float = 1.0, mass: float = 1.0, light_speed: float = 137.035999, label: str = "natural"
    ):
        for name, value in (("hbar", hbar), ("mass", mass), ("light_speed", light_speed)):
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"{name} must be finite and positive, got {value}")
        _set_field(self, "hbar", hbar)
        _set_field(self, "mass", mass)
        _set_field(self, "light_speed", light_speed)
        _set_field(self, "label", label)

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


class HydrogenLike(Frozen):
    """V(r) = -Z e^2 / r."""

    __match_args__ = _fields = ("Z", "e_charge")

    def __init__(self, Z: int = 1, e_charge: float = 1.0):
        if not (1 <= Z < INFINITE and int(Z) == Z):
            raise DomainError(f"Z must be a positive integer, got {Z}")
        if not e_charge > 0:
            raise DomainError("e_charge must be positive")
        _set_field(self, "Z", Z)
        _set_field(self, "e_charge", e_charge)


class InfiniteSphericalWell(Frozen):
    """V = 0 for 0 < r < L, infinite outside."""

    __match_args__ = _fields = ("L",)

    def __init__(self, L: float):
        if not L > 0:
            raise DomainError(f"well radius L must be positive, got {L}")
        _set_field(self, "L", L)


class IsotropicHO(Frozen):
    """V(r) = (1/2) m omega^2 r^2."""

    __match_args__ = _fields = ("omega",)

    def __init__(self, omega: float):
        if not omega > 0:
            raise DomainError(f"omega must be positive, got {omega}")
        _set_field(self, "omega", omega)


class HOSpinOrbit(Frozen):
    """Isotropic oscillator shifted by the constant spin-orbit term -C_lsj.

    ``c0`` parameterizes the coupling strength in energy units; ``c0=None``
    selects the relativistic prefactor hbar^2 omega^2 / (2 m c^2) instead.
    """

    __match_args__ = _fields = ("omega", "j", "s", "c0")

    def __init__(self, omega: float, j: float, s: float = 0.5, c0: float | None = None):
        if not omega > 0:
            raise DomainError(f"omega must be positive, got {omega}")
        if not (0.5 <= j < INFINITE and round(2 * j) == 2 * j):
            raise DomainError(f"j must be a half-integer >= 1/2, got {j}")
        if not (math.isfinite(s) and round(2 * s) == 2 * s):
            raise DomainError(f"s must be a half-integer, got {s}")
        if c0 is not None and c0 < 0:
            raise DomainError("c0 must be non-negative")
        _set_field(self, "omega", omega)
        _set_field(self, "j", j)
        _set_field(self, "s", s)
        _set_field(self, "c0", c0)


class Parabolic(Frozen):
    """V(r) = a r^2 + b r + c with positive coefficients."""

    __match_args__ = _fields = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        if not all(0 < x < INFINITE for x in (a, b, c)):
            raise DomainError("parabolic coefficients a, b, c must all be finite and positive")
        _set_field(self, "a", a)
        _set_field(self, "b", b)
        _set_field(self, "c", c)


class FreeParticle(Frozen):
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


class EffectivePotential(Frozen):
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

    __match_args__ = ("spec", "l", "units")
    _fields = __match_args__ + (
        "centrifugal_coeff", "spin_orbit_shift", "length_scale", "energy_scale",
        "quadratic", "linear", "offset", "coulomb", "wall", "minimum",
    )

    def __init__(self, spec: PotentialSpec, l: int = 0, units: UnitSystem = NATURAL):
        u = units
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
        _set_field(self, "spec", spec)
        _set_field(self, "l", l)
        _set_field(self, "units", units)
        _set_field(self, "centrifugal_coeff", u.hbar**2 * l * (l + 1) / (2.0 * u.mass))
        _set_field(self, "spin_orbit_shift", shift)
        _set_field(self, "length_scale", length)
        _set_field(self, "energy_scale", energy)
        _set_field(self, "quadratic", quadratic)
        _set_field(self, "linear", linear)
        _set_field(self, "offset", offset)
        _set_field(self, "coulomb", coulomb)
        _set_field(self, "wall", wall)
        # _minimum reads the fields above
        _set_field(self, "minimum", _minimum(self))

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
