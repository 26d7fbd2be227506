"""Independent reference results for validation.

Everything here is computed from textbook relations (spherical Bessel
zeros, analytic oscillator ladders, the Bohr formula) or from a Numerov
shooting integrator. By design this module imports only the potential
catalog: none of the turning-point / phase-integral machinery is involved,
so comparisons against it are genuinely independent. The scales it reads
(``U.length_scale``, ``U.energy_scale``, the well's energy unit) come
checked from ``EffectivePotential``; only the oscillator ladder checks its
own level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import ConvergenceError, DomainError
from .potentials import (
    INFINITE,
    NATURAL,
    EffectivePotential,
    InfiniteSphericalWell,
    UnitSystem,
    _normal,
    eval_effective,
    eval_effective_array,
    validate_jls,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class OracleEnergy:
    source: str  # bessel_well | analytic_ho | perturbed_ho_so | bohr | numerov
    value: float
    n: int
    l: int
    j: Optional[float] = None
    sweeps: Optional[int] = None  # Numerov integrations spent; None for closed forms


def spherical_bessel(l: int, x: float) -> float:
    """j_l(x) by upward recurrence from j0 = sin x / x.

    Stable for the low orders used here (l <= 10) provided x is not far
    below l; zeros of j_l all lie above l, which is the regime we scan.
    """
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    j0 = math.sin(x) / x
    if l == 0:
        return j0
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    if l == 1:
        return j1
    jm, jc = j0, j1
    for order in range(1, l):
        jm, jc = jc, (2 * order + 1) / x * jc - jm
    return jc


def bessel_zero(l: int, n: int) -> float:
    """n-th positive zero of j_l, by sign-change scan plus bisection."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0 <= l <= 6:
        raise DomainError(f"l must be in 0..6, got {l}")
    step = math.pi / 16.0
    x = max(l, 0.5)
    found = 0
    f_prev = spherical_bessel(l, x)
    while found < n:
        x_next = x + step
        f_next = spherical_bessel(l, x_next)
        if f_prev == 0.0:
            found += 1
            if found == n:
                return x
        elif (f_prev > 0) != (f_next > 0):
            found += 1
            if found == n:
                lo, hi, flo = x, x_next, f_prev
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    fm = spherical_bessel(l, mid)
                    if fm == 0.0:
                        return mid
                    if (fm > 0) == (flo > 0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                    if hi - lo <= 1e-14 * mid:
                        break
                return 0.5 * (lo + hi)
        x, f_prev = x_next, f_next
        if x > 200.0:
            raise DomainError(f"zero ({n}, {l}) not found below x = 200")
    raise AssertionError("unreachable")


def well_oracle_energy(L: float, l: int, n: int, units: UnitSystem = NATURAL) -> OracleEnergy:
    """Exact hard-well level (hbar^2 / 2 m L^2) beta_{n l}^2."""
    beta = bessel_zero(l, n)
    value = EffectivePotential(InfiniteSphericalWell(L), l, units).energy_scale / 2.0 * beta * beta
    return OracleEnergy(source="bessel_well", value=value, n=n, l=l)


def ho_oracle_energy(
    n_index: int,
    l: int,
    omega: float,
    units: UnitSystem = NATURAL,
    indexing: str = "from_zero",
) -> OracleEnergy:
    """(2n + l + 3/2) hbar omega, with n counted from 0 or from 1."""
    if not 0 < omega < INFINITE:
        raise DomainError(f"omega must be finite and positive, got {omega}")
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    n = _radial_index(n_index, indexing)
    value = _normal((2 * n + l + 1.5) * units.hbar * omega, "oscillator level", f"omega={omega!r}")
    return OracleEnergy(source="analytic_ho", value=value, n=n_index, l=l)


def _radial_index(n_index: int, indexing: str) -> int:
    if indexing == "from_zero":
        if n_index < 0:
            raise DomainError(f"n must be >= 0 for from_zero, got {n_index}")
        return n_index
    if indexing == "from_one":
        if n_index < 1:
            raise DomainError(f"n must be >= 1 for from_one, got {n_index}")
        return n_index
    raise DomainError(f"unknown indexing {indexing!r}")


def ho_so_oracle_energy(
    n_index: int,
    l: int,
    j: float,
    s: float,
    c0: float,
    omega: float,
    units: UnitSystem = NATURAL,
    indexing: str = "from_zero",
) -> OracleEnergy:
    """First-order perturbed oscillator ladder with the spin-orbit shift."""
    validate_jls(j, l, s)
    base = ho_oracle_energy(n_index, l, omega, units, indexing).value
    hw = units.hbar * omega
    shift = (c0 / (2.0 * hw)) * (j * (j + 1) - l * (l + 1) - s * (s + 1)) * hw
    return OracleEnergy(source="perturbed_ho_so", value=base - shift, n=n_index, l=l, j=j)


def bohr_energy(
    Z: int, n_principal: int, units: UnitSystem = NATURAL, e_charge: float = 1.0
) -> OracleEnergy:
    """Bohr levels -(m e^4 / 2 hbar^2) Z^2 / n^2."""
    if n_principal < 1:
        raise DomainError(f"n_principal must be >= 1, got {n_principal}")
    rydberg = units.mass * e_charge**4 / (2.0 * units.hbar**2)
    value = -rydberg * Z * Z / n_principal**2
    return OracleEnergy(source="bohr", value=value, n=n_principal, l=0)


# Largest grid the Numerov oracle builds: each array over it then takes 8 MB.
MAX_GRID_POINTS = 1_000_000
# Fewest grid points, and the sample that finds min U before the step is set.
_MIN_POINTS = 512
# Phase, in radians, that the fastest local wave advances per Numerov step.
# Numerov's error in a level goes as (k h)^4: a few 1e-11 relative here.
_PHASE_PER_STEP = 0.01
# |u| above which an overflowing sweep is rescaled.
_RESCALE = 1e250
# Stride of the grid points that estimate max |u| over the allowed region.
_AMPLITUDE_STRIDE = 8
# The r_max search gives up this many length scales out.
_MAX_R_SCALES = 1e6
# Sweeps one eigenvalue may take; isolating and converging need about 5-40.
_MAX_SWEEPS = 200


def _numerov_sweep(a: memoryview, u0: float, u1: float) -> tuple[list[float], bool]:
    """Every u_i of the recurrence u_{i+1} = a_i u_i - u_{i-1}, from (u0, u1).

    Iterating a memoryview of the float64 coefficients yields plain floats,
    so the loop runs on Python floats without building a list of them. The
    plain loop runs first. If it overflows, the sweep is redone dividing
    u by 1e250 whenever |u| passes that: every u_i keeps its sign, which is
    all the node count needs, but the u_i no longer share one scale, which
    the returned flag reports.
    """
    us = [u0, u1]
    append = us.append
    for ai in a:
        u0, u1 = u1, ai * u1 - u0
        append(u1)
    if math.isfinite(u1):
        return us, False
    u0, u1 = us[0], us[1]
    us = [u0, u1]
    append = us.append
    for ai in a:
        u0, u1 = u1, ai * u1 - u0
        if not -_RESCALE < u1 < _RESCALE:
            u0 /= _RESCALE
            u1 /= _RESCALE
        append(u1)
    return us, True


def _node_count(us: list[float], w: np.ndarray) -> int:
    """Interior sign changes of y = u / w, zeros skipped.

    The sign of y is taken as sign(u) sign(w), because w = 1 + h^2 f / 12 is
    negative near r_min when the centrifugal term is large. y_1 = r_1^(l+1)
    counts as positive, as in the start of the sweep.
    """
    import numpy as np

    sign = np.sign(np.asarray(us[1:])) * np.sign(w[1:])
    sign[0] = 1.0
    sign = sign[sign != 0.0]
    return int(np.count_nonzero(sign[1:] != sign[:-1]))


def _boundary_residual(us: list[float], rescaled: bool, x: np.ndarray) -> float:
    """u(r_max) over max |u| in the classically allowed region (x > 0).

    Smooth in E near an eigenvalue, where it changes sign together with
    y(r_max). The maximum is taken over every ``_AMPLITUDE_STRIDE``-th point
    between the first and last allowed ones. Where the ratio cannot be formed
    (no allowed point, or a rescaled sweep) it is +-inf, which sends the
    root finder to a bisection step.
    """
    import numpy as np

    u_end = us[-1]
    allowed = np.flatnonzero(x > 0.0)
    if allowed.size and not rescaled:
        inside = us[allowed[0] : allowed[-1] + 1 : _AMPLITUDE_STRIDE]
        amplitude = max(max(inside), -min(inside))
        if amplitude > 0.0:
            return u_end / amplitude
    return math.copysign(math.inf, u_end)


def numerov_bound_state(
    U: EffectivePotential,
    node_target: int,
    bracket: tuple[float, float],
) -> OracleEnergy:
    """Eigenvalue with the requested interior node count, by Numerov shooting.

    Integrates -(hbar^2/2m) F'' + U F = E F outward with F ~ r^{l+1} from
    r_min up to r_max: just inside a hard wall, or, past any centrifugal
    barrier, far into the outer forbidden region. The interior node count is
    a nondecreasing step function of E that jumps exactly where F(r_max)
    changes sign. Bisection on the node count first narrows the bracket
    until it holds only the target jump; Illinois regula falsi on the
    boundary residual, F(r_max) over the largest |F| in the classically
    allowed region, then converges on it. A lower edge below min U on the
    grid is raised to it. ``sweeps`` on the result counts the outward
    integrations spent.

    The step comes from the problem, not from a setting: h = c / k_top, where
    k_top = sqrt(2 m (e_hi - min U)) / hbar is the largest local wavenumber
    at the bracket's upper edge (min U over a 512-point sample) and
    c = ``_PHASE_PER_STEP`` radians. The grid has at least 512 points and
    r_min = max(1e-6 scale, h sqrt(l (l + 1) / 6)), where the centrifugal
    term leaves w = 1 + h^2 f / 12 >= 1/2. Accuracy budget, relative to the
    level: the step's own error is a few 1e-11; both root-finding phases
    stop on hi - lo <= 1e-10 max(eps, |mid|), with eps = hbar^2 / (m scale^2)
    the problem's energy unit; truncating the decay tail or stopping short
    of the wall shifts a level by at most about 1e-8.
    """
    import numpy as np

    units = U.units
    e_lo, e_hi = bracket
    if not (math.isfinite(e_lo) and math.isfinite(e_hi)):
        raise DomainError(f"bracket edges must be finite, got {bracket}")
    if not e_hi > e_lo:
        raise DomainError(f"invalid bracket {bracket}")
    scale, eps = U.length_scale, U.energy_scale
    r_min = 1e-6 * scale
    if U.wall < INFINITE:
        # stop just inside the wall; the F(r_max) = 0 condition shifts levels
        # by only O(1e-9) relative
        r_max = U.wall * (1.0 - 1e-9)
    else:
        # step out of any centrifugal barrier while U falls (once U(r_max) is
        # no lower than U one step in, r_max lies past the minimum), then past
        # the outer turning point until U exceeds E by many level spacings, so
        # that the truncated decay tail cannot shift levels above 1e-8
        margin = e_hi + 12.0 * eps
        r_max, u_in, u = scale, eval_effective(U, scale / 1.25), eval_effective(U, scale)
        while u < margin or u < u_in:
            r_max *= 1.25
            u_in, u = u, eval_effective(U, r_max)
            if r_max > _MAX_R_SCALES * scale:
                raise DomainError(
                    f"U stays below {margin:.6g} out to r = {r_max:.6g}: "
                    "the Numerov oracle needs a potential that confines the bracket"
                )
        if u == INFINITE:
            # the sample and the grid would overflow there too
            raise DomainError(f"U overflows to inf at r = {r_max:.6g}, the end of the Numerov grid")
    below = f"bracket {bracket} lies below the potential minimum on the grid"
    u_min = float(eval_effective_array(U, np.linspace(r_min, r_max, _MIN_POINTS)).min())
    if not e_hi > u_min:
        raise DomainError(below)
    k_top = units.m1 * math.sqrt(e_hi - u_min)
    span = (r_max - r_min) * k_top / _PHASE_PER_STEP
    if not span < MAX_GRID_POINTS:
        raise DomainError(
            f"a step of {_PHASE_PER_STEP} / k_top needs {span:.3g} points, "
            f"above the cap of {MAX_GRID_POINTS}"
        )
    # the grid step only shrinks below this as r_min rises towards r_max
    h_top = (r_max - r_min) / max(span, _MIN_POINTS - 1)
    r_min = max(r_min, h_top * math.sqrt(U.l * (U.l + 1) / 6.0))
    r = np.linspace(r_min, r_max, max(int(span) + 1, _MIN_POINTS))
    h = r[1] - r[0]
    u_vals = eval_effective_array(U, r)
    if np.any(u_vals == INFINITE):
        raise DomainError("grid crosses a hard wall")
    # x_i = h^2 f_i, with f = (2m/hbar^2)(E - U)
    k = 2.0 * units.mass / units.hbar**2 * h * h
    ku = k * u_vals
    # no level lies below min U: from far below it, h^2 |f| / 12 > 1 makes the
    # recurrence oscillate and the node count meaningless
    e_lo = max(e_lo, float(u_vals.min()))
    if not e_hi > e_lo:
        raise DomainError(below)
    # y ~ r^(l+1), scaled to y_1 = 1 so that no power of a tiny r underflows
    y0 = (float(r[0]) / float(r[1])) ** (U.l + 1)
    y1 = 1.0
    sweeps = 0

    def shoot(E: float, count_nodes: bool = True) -> tuple[int | None, float]:
        """(node count, boundary residual) of one outward sweep at energy E."""
        nonlocal sweeps
        if sweeps == _MAX_SWEEPS:
            raise ConvergenceError(
                f"Numerov shooting did not converge in {_MAX_SWEEPS} sweeps",
                last_iterate=E,
                iterations=sweeps,
            )
        sweeps += 1
        x = k * E - ku
        w = 1.0 + x / 12.0
        a = memoryview(2.0 - x[1:-1] / w[1:-1])
        us, rescaled = _numerov_sweep(a, y0 * float(w[0]), y1 * float(w[1]))
        nodes = _node_count(us, w) if count_nodes else None
        return nodes, _boundary_residual(us, rescaled, x)

    def converged(lo: float, hi: float) -> bool:
        return hi - lo <= 1e-10 * max(eps, abs(0.5 * (lo + hi)))

    lo, hi = e_lo, e_hi
    n_lo, g_lo = shoot(lo)
    if n_lo > node_target:
        raise DomainError(f"bracket lower edge already has more than {node_target} nodes")
    n_hi, g_hi = shoot(hi)
    if n_hi <= node_target:
        raise DomainError(f"bracket contains no state with {node_target} nodes")
    # phase 1: bisect on the node count until only the target jump is left
    while not (n_lo == node_target and n_hi == node_target + 1 or converged(lo, hi)):
        mid = 0.5 * (lo + hi)
        n_mid, g_mid = shoot(mid)
        if n_mid <= node_target:
            lo, n_lo, g_lo = mid, n_mid, g_mid
        else:
            hi, n_hi, g_hi = mid, n_mid, g_mid
    # phase 2: Illinois regula falsi on the residual, which now changes sign
    # once in [lo, hi]; an edge kept twice in a row has its residual halved
    side = 0
    while not converged(lo, hi):
        trial = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < trial < hi:  # an infinite residual: bisect
            trial = 0.5 * (lo + hi)
        _, g = shoot(trial, count_nodes=False)
        if g == 0.0:
            return OracleEnergy(source="numerov", value=trial, n=node_target, l=U.l, sweeps=sweeps)
        if (g > 0.0) == (g_lo > 0.0):
            lo, g_lo = trial, g
            if side < 0:
                g_hi *= 0.5
            side = -1
        else:
            hi, g_hi = trial, g
            if side > 0:
                g_lo *= 0.5
            side = 1
    value = 0.5 * (lo + hi)
    return OracleEnergy(source="numerov", value=value, n=node_target, l=U.l, sweeps=sweeps)
