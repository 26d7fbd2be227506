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
from typing import TYPE_CHECKING, Optional

from .errors import ConvergenceError, DomainError
from .potentials import (
    INFINITE,
    NATURAL,
    EffectivePotential,
    Frozen,
    InfiniteSphericalWell,
    UnitSystem,
    _normal,
    _set_field,
    _within_float_range,
    eval_effective,
    eval_effective_array,
    validate_jls,
)

if TYPE_CHECKING:
    import numpy as np


class OracleEnergy(Frozen):
    """One reference level and the oracle that gave it."""

    __match_args__ = _fields = ("source", "value", "n", "l", "sweeps")

    def __init__(self, source: str, value: float, n: int, l: int, sweeps: Optional[int] = None):
        # source: bessel_well | analytic_ho | perturbed_ho_so | bohr | numerov
        # sweeps: Numerov integrations spent; None for closed forms
        _set_field(self, "source", source)
        _set_field(self, "value", value)
        _set_field(self, "n", n)
        _set_field(self, "l", l)
        _set_field(self, "sweeps", sweeps)


def spherical_bessel(l: int, x: float) -> float:
    """j_l(x) by upward recurrence from j0 = sin x / x.

    Upward recurrence loses digits once x falls below l. ``bessel_zero``
    takes l in 0..6 and scans only x >= l, where every zero of j_l lies;
    there the error stays within a few ulps of 1.
    """
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    j0 = math.sin(x) / x
    if l == 0:
        return j0
    if x * x == 0.0:
        raise DomainError(f"x * x underflows to 0.0 for x={x!r}")
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
    while True:
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


def well_oracle_energy(L: float, l: int, n: int, units: UnitSystem = NATURAL) -> OracleEnergy:
    """Exact hard-well level (hbar^2 / 2 m L^2) beta_{n l}^2."""
    beta = bessel_zero(l, n)
    value = EffectivePotential(InfiniteSphericalWell(L), l, units).energy_scale / 2.0 * beta * beta
    return OracleEnergy(source="bessel_well", value=value, n=n, l=l)


def ho_oracle_energy(n: int, l: int, omega: float, units: UnitSystem = NATURAL) -> OracleEnergy:
    """(2n + l + 3/2) hbar omega, n >= 0."""
    if not 0 < omega < INFINITE:
        raise DomainError(f"omega must be finite and positive, got {omega}")
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    _within_float_range(2 * n + l, "the oscillator index 2n + l")
    value = _normal((2 * n + l + 1.5) * units.hbar * omega, "oscillator level", f"omega={omega!r}")
    return OracleEnergy(source="analytic_ho", value=value, n=n, l=l)


def ho_so_oracle_energy(
    n_index: int,
    l: int,
    j: float,
    s: float,
    c0: float,
    omega: float,
    units: UnitSystem = NATURAL,
) -> OracleEnergy:
    """First-order perturbed oscillator ladder with the spin-orbit shift."""
    validate_jls(j, l, s)
    base = ho_oracle_energy(n_index, l, omega, units).value
    hw = units.hbar * omega
    shift = (c0 / (2.0 * hw)) * (j * (j + 1) - l * (l + 1) - s * (s + 1)) * hw
    return OracleEnergy(source="perturbed_ho_so", value=base - shift, n=n_index, l=l)


def bohr_energy(
    Z: int, n_principal: int, units: UnitSystem = NATURAL, e_charge: float = 1.0
) -> OracleEnergy:
    """Bohr levels -(m e^4 / 2 hbar^2) Z^2 / n^2."""
    if n_principal < 1:
        raise DomainError(f"n_principal must be >= 1, got {n_principal}")
    try:
        rydberg = units.mass * e_charge**4 / (2.0 * units.hbar**2)
        value = _normal(rydberg * Z * Z / n_principal**2, "Bohr level", f"Z={Z}, n={n_principal}")
    except (OverflowError, ZeroDivisionError):  # e^4, Z or n^2 past the float range, or hbar^2 = 0
        raise DomainError(f"Bohr level is past the float range for Z={Z}, n={n_principal}") from None
    return OracleEnergy(source="bohr", value=-value, n=n_principal, l=0)


# Largest grid the Numerov oracle builds: each array over it then takes 8 MB.
MAX_GRID_POINTS = 1_000_000
# Fewest grid points, and the sample that finds min U before the step is set.
_MIN_POINTS = 512
# Relative error a level may carry, from the step and from the stop rule each.
_LEVEL_TOL = 1e-10
# Phase, in radians, that the fastest local wave advances per Numerov step:
# Numerov moves a level by (k h)^4 / 240 of itself, so this spends _LEVEL_TOL.
_PHASE_PER_STEP = (240.0 * _LEVEL_TOL) ** 0.25
# The r_max search gives up this many length scales out.
_MAX_R_SCALES = 1e6
# Sweeps one eigenvalue may take, on both grids; isolating and converging take
# at most 12 on the tests' brackets.
_MAX_SWEEPS = 200
# Phase, in radians, that the fastest local wave advances per step of the
# search grid: Numerov's error there, 0.1^4 / 240 ~ 4e-7 of a level, still
# lands E in the full grid's Newton basin. It sets the search's stride, 8.
_SEARCH_PHASE = 0.1
_STRIDE = round(_SEARCH_PHASE / _PHASE_PER_STEP)
# Relative Newton step at which the search hands over to the full grid. It
# only has to land E in the full grid's Newton basin: the search grid's own
# level sits up to about 8e-7 from the full grid's.
_SEARCH_TOL = 1e-5


def _matched_sweep(x: np.ndarray, y0: float) -> tuple[int, float, float]:
    """(levels below E, D, sum_i (u_i / u_m)^2) of one sweep over x_i = h^2 f_i(E).

    Outward R_i from R_0 = u_1 / u_0 with F_0 / F_1 = y0, inward from u_N = 0
    past the last point of ``x``, matched at m (see ``numerov_bound_state``).
    A ratio that is exactly 0 raises ZeroDivisionError.
    """
    # a search sweep is some 100-200 points, so the fixed cost counts: w is
    # made in place, and both loops read one memoryview of a
    w = x / 12.0
    w += 1.0
    w0, w1 = w[:2].tolist()
    a = memoryview(2.0 - x / w)
    last = len(a) - 1
    x_last = float(x[last])
    if x_last > 0.0:
        m = max(0, last - round(0.5 * math.pi / math.sqrt(x_last)))
    else:  # the last allowed point; with none, m = last: a plain outward sweep
        allowed = (x > 0.0).nonzero()[0]
        m = int(allowed[-1]) if len(allowed) else last
    # outward R and S = sum_{j <= i} (u_j / u_i)^2, inward q = 1 / T_i and
    # S_in = sum_{j > i} (u_j / u_i)^2: each step takes one division
    nodes, R, S = 0, w1 / (y0 * w0), 1.0
    for ai in a[1 : m + 1]:
        if R < 0.0:
            nodes += 1
        p = 1.0 / R
        S = S * p * p + 1.0
        R = ai - p
    q, S_in = 0.0, 0.0
    for ai in a[:m:-1]:
        q = 1.0 / (ai - q)
        if q < 0.0:
            nodes += 1
        S_in = (S_in + 1.0) * q * q
    D = R - q
    return nodes + (D < 0.0), D, S + S_in


def numerov_bound_state(
    U: EffectivePotential,
    node_target: int,
    bracket: tuple[float, float],
) -> OracleEnergy:
    """Eigenvalue with the requested interior node count, by matched Numerov shooting.

    Solves -(hbar^2/2m) F'' + U F = E F with F ~ r^{l+1} at r_min and F = 0
    at the last grid point r_N = r_max: the hard wall, which is never
    evaluated, or, past any centrifugal barrier, a point far into the outer
    forbidden region. With x_i = h^2 f_i, f = (2m/hbar^2)(E - U), and
    u_i = (1 + x_i / 12) F_i, Numerov reads u_{i+1} = A_i u_i - u_{i-1},
    A_i = 2 - x_i / (1 + x_i / 12). A sweep runs it in Johnson's renormalized
    form (J. Chem. Phys. 67, 4086 (1977); 69, 4678 (1978)), on ratios that
    cannot overflow: R_i = u_{i+1}/u_i = A_i - 1/R_{i-1} outward from the
    start values, T_i = u_i/u_{i+1} = A_{i+1} - 1/T_{i+1} inward from
    u_N = 0. They meet at the match point m, the last classically allowed
    point, or, where the region is allowed right up to r_N, a quarter wave
    inside it: m = N - 1 - round(pi / 2 / sqrt(x_{N-1})). The solutions
    join smoothly where D = R_m - 1/T_m vanishes.

    Node count: the number of levels below E, the interior nodes of the
    outward solution, is the number of negative ratios on both sides plus
    1 where D < 0 (the inertia of the Numerov matrix, from its pivots taken
    from both ends). This needs 1 + x/12 > 0 on the grid, which is checked
    at the bracket's lower edge. Bisection on the count first narrows the
    bracket until it holds only the target level. Newton steps
    dE = D / (k S), S = sum_i (u_i / u_m)^2, k = 2 m h^2 / hbar^2 (Cooley,
    Math. Comp. 15, 363 (1961)), with S summed in the same two loops, then
    converge on it: each count moves one edge, and a step that leaves the
    bracket, or is more than half the move before it, becomes a bisection.
    So does a sweep whose S exceeds its number of points: at a level u_m
    sits where |u| peaks, so S stays below it, and a larger S puts u_m near
    0, next to a pole of D, where Newton's steps are tiny and only crawl.
    A lower edge below min U on the grid is raised to it.

    The search runs on two grids. The search grid is every 8th point of the
    full grid, back from r_N: a step of 8h advances the fastest wave about
    0.1 rad (``_SEARCH_PHASE``), where Numerov's error is about
    0.1^4 / 240 ~ 4e-7 of a level. The full grid has N points with N - 1 a
    multiple of 8, so that for l = 0 the search grid starts at r_min, where
    its F ~ r start ratio holds (a stride-2 grid that started a step out put
    its level up to 1.2e-6 off, against 1.3e-9 from r_min). For l > 0 it
    starts at its first point where the centrifugal term leaves
    1 + x/12 >= 1/2 at step 8h. Where that start leaves the F ~ r^{l+1}
    start ratio unfit (a point before it classically allowed at e_hi, or
    E - V adding more than 1/4 to x there), the stride halves, down to 2;
    where even stride 2 leaves fewer than two points, the oracle raises
    DomainError. Each grid takes its start values from its own first two
    points. The edge sweeps, the bisection and Newton run on the search
    grid until the Newton step is at most 1e-5 max(eps, |E|)
    (``_SEARCH_TOL``). That can be loose: the search only has to land E in
    the full grid's Newton basin. Over 4,000 draws of the tests'
    oscillators and wells (l <= 3), the search grid's own level sat within
    8.2e-7 of the full grid's (stride 2: 1.3e-9). From E plus that step,
    Newton runs on the full grid, in the caller's bracket cut at E by the
    full grid's count, until its step is at most 1e-10 max(eps, |E|), with
    eps = hbar^2 / (m scale^2) the problem's energy unit, and returns E
    plus that step: the full grid's level, to 1e-10. ``sweeps`` on the
    result counts the sweeps spent on both grids.

    The step comes from an error budget. Numerov lowers a level by
    (k h)^4 / 240 of itself for the local wavenumber k, so h = c / k_top
    with c = (240 * 1e-10)^(1/4) ~ 0.0124 rad (``_PHASE_PER_STEP``) keeps
    that below 1e-10, where k_top = sqrt(2 m (e_hi - min U)) / hbar is the
    largest wavenumber at the bracket's upper edge (min U over a 512-point
    sample). The grid has at least 512 points from 1e-6 scale to r_N. The
    full grid starts at its first point r >= h sqrt(l (l + 1) / 6), where
    the centrifugal term leaves 1 + x/12 >= 1/2, as the search grid does at
    its own step. Truncating the decay tail shifts a level by at most about
    1e-8.
    """
    if node_target < 0:
        raise DomainError(f"node_target must be >= 0, got {node_target}")
    import numpy as np

    units = U.units
    e_lo, e_hi = bracket
    if not (math.isfinite(e_lo) and math.isfinite(e_hi)):
        raise DomainError(f"bracket edges must be finite, got {bracket}")
    if not e_hi > e_lo:
        raise DomainError(f"invalid bracket {bracket}")
    scale, eps = U.length_scale, U.energy_scale
    r_min = 1e-6 * scale
    r_max = U.wall
    if r_max == INFINITE:
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
            f"a step of {_PHASE_PER_STEP:.3g} / k_top needs {span:.3g} points, "
            f"above the cap of {MAX_GRID_POINTS}"
        )
    # N - 1 a multiple of the stride, so that the search grid, every
    # _STRIDE-th point back from r_N, keeps r_min for l = 0
    n = max(int(span) + 1, _MIN_POINTS)
    r = np.linspace(r_min, r_max, n + (1 - n) % _STRIDE)
    h = float(r[1] - r[0])
    # each grid starts at its first point where the centrifugal term leaves
    # 1 + x/12 >= 1/2 at its own step: the full grid at step h, the search
    # grid (below) at step stride * h
    barrier = math.sqrt(U.l * (U.l + 1) / 6.0)
    r = r[int(np.searchsorted(r, h * barrier)):]
    last = len(r) - 1

    def search_start(stride: int) -> int:
        """First point of the search grid at ``stride``: every stride-th point
        back from r_N, from the first where the centrifugal term leaves
        1 + x/12 >= 1/2 at step stride * h."""
        start = int(np.searchsorted(r, stride * h * barrier))
        return start + (last - start) % stride

    if last - search_start(2) < 4:
        raise DomainError(
            f"the centrifugal start r = {2.0 * h * barrier:.6g} of the Numerov search grid "
            f"leaves it fewer than 2 points before r_max = {r_max:.6g}"
        )
    # r_N = r_max carries u_N = 0 and is left out
    u_vals = eval_effective_array(U, r[:-1])
    if np.any(u_vals == INFINITE):
        raise DomainError("U overflows to inf on the Numerov grid")
    # x_i = h^2 f_i, with f = (2m/hbar^2)(E - U)
    k = 2.0 * units.mass / units.hbar**2 * h * h
    ku = k * u_vals
    # no level lies below min U: from far below it, h^2 |f| / 12 > 1 makes the
    # recurrence oscillate and the node count meaningless
    e_lo = max(e_lo, float(u_vals.min()))
    if not e_hi > e_lo:
        raise DomainError(below)
    # the search runs at the coarsest stride, from _STRIDE down to 2, whose
    # grid has two points or more and whose start suits the F ~ r^{l+1} start
    # ratio at every energy searched: no point before it is classically
    # allowed at e_hi, and E - V adds at most 1/4 to x there (its wave
    # advances at most 0.5 rad a search step)
    allowed = int((ku < k * e_hi).argmax())
    stride = _STRIDE
    start = search_start(stride)
    while stride > 2 and not (
        start <= allowed
        and last - start >= 2 * stride
        and stride * stride * k * (e_hi - U.eval_potential(float(r[start]))) <= 0.25
    ):
        stride //= 2
        start = search_start(stride)
    # (k, k U on the grid, F_0 / F_1), with y_1 = 1 so that no power of a tiny r
    # underflows; x on the search grid is stride^2 times x on the full grid
    s2 = stride * stride
    search = (s2 * k, s2 * ku[start:last:stride], (float(r[start]) / float(r[start + stride])) ** (U.l + 1))
    full = (k, ku, (float(r[0]) / float(r[1])) ** (U.l + 1))
    # w = 1 + x / 12 grows with E: positive at e_lo, it is positive in every sweep
    for kg, kug, _ in (full, search):
        if not float((kg * e_lo - kug).min()) > -12.0:
            raise DomainError(f"the Numerov step leaves 1 + h^2 f / 12 <= 0 on the grid at E = {e_lo:.6g}")
    sweeps = 0

    def shoot(E: float, grid: tuple[float, np.ndarray, float]) -> tuple[int, float]:
        """(levels below E, Newton step D / (k S)) at energy E on ``grid``; the
        step is inf where S exceeds the point count, next to a pole of D."""
        nonlocal sweeps
        if sweeps == _MAX_SWEEPS:
            raise ConvergenceError(
                f"Numerov shooting did not converge in {_MAX_SWEEPS} sweeps",
                last_iterate=E,
                iterations=sweeps,
            )
        sweeps += 1
        kg, kug, y0 = grid
        try:
            nodes, D, S = _matched_sweep(kg * E - kug, y0)
        except ZeroDivisionError:
            # a node sits exactly on a grid point: sweep one ulp higher
            sweeps -= 1
            return shoot(math.nextafter(E, INFINITE), grid)
        # at a level u_m sits where |u| peaks (the outer turning point, or the
        # last antinode before a wall), so S stays below the point count there
        return nodes, D / (kg * S) if S <= len(kug) else INFINITE

    def converged(lo: float, hi: float, tol: float) -> bool:
        return hi - lo <= tol * max(eps, abs(0.5 * (lo + hi)))

    def newton(
        E: float, step: float, lo: float, hi: float, grid: tuple[float, np.ndarray, float], tol: float
    ) -> float:
        """Phase 2 on ``grid`` from E and its step: the level to ``tol``.

        A step that leaves the bracket, or is more than half the move before
        it (near a pole of D, where u_m = 0, Newton crawls away from the
        pole), becomes a bisection.
        """
        moved = INFINITE
        while not converged(lo, hi, tol):
            if abs(step) <= tol * max(eps, abs(E)):
                return E + step
            trial = E + step
            if not (lo < trial < hi and abs(step) <= 0.5 * moved):
                trial = 0.5 * (lo + hi)
            moved, E = abs(trial - E), trial
            n, step = shoot(E, grid)
            if n <= node_target:
                lo = E
            else:
                hi = E
        return 0.5 * (lo + hi)

    lo, hi = e_lo, e_hi
    n_lo, step_lo = shoot(lo, search)
    if n_lo > node_target:
        raise DomainError(f"bracket lower edge already has more than {node_target} nodes")
    n_hi, step_hi = shoot(hi, search)
    if n_hi <= node_target:
        raise DomainError(f"bracket contains no state with {node_target} nodes")
    # phase 1: bisect on the node count until only the target level is left
    while not (n_lo == node_target and n_hi == node_target + 1 or converged(lo, hi, _SEARCH_TOL)):
        mid = 0.5 * (lo + hi)
        n_mid, step_mid = shoot(mid, search)
        if n_mid <= node_target:
            lo, n_lo, step_lo = mid, n_mid, step_mid
        else:
            hi, n_hi, step_hi = mid, n_mid, step_mid
    # phase 2: Newton from the edge with the shorter step, on the search grid
    # and then on the full grid. The two grids' levels differ by up to about
    # 8e-7, which can put the full grid's outside the search grid's bracket:
    # the full grid keeps the caller's, cut at E by its own count.
    E, step = (lo, step_lo) if abs(step_lo) <= abs(step_hi) else (hi, step_hi)
    E = newton(E, step, lo, hi, search, _SEARCH_TOL)
    n, step = shoot(E, full)
    lo, hi = (E, e_hi) if n <= node_target else (e_lo, E)
    value = newton(E, step, lo, hi, full, _LEVEL_TOL)
    return OracleEnergy(source="numerov", value=value, n=node_target, l=U.l, sweeps=sweeps)
