"""Independent reference values for the benchmark's correctness gate.

Everything here is written out from the closed forms in natural units
(hbar = m = e = 1) and from a fixed table of spherical Bessel zeros. Nothing
is imported from radialsolve, so a refactor of the library cannot quietly
change the values its results are compared with.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances of the correctness gate (relative unless named *_ABS).
CLOSED_FORM_REL = 1e-8  # self-consistent energy vs algebraic closed form
HYDROGEN_REL = 1e-6  # signed Coulomb solve vs the hydrogen ground-state formula
EXACT_REL = 1e-9  # values printed at full precision from exact formulas
TEXT_REL = 1e-5  # values printed with 6 significant digits
BESSEL_ABS = 1e-4  # Bessel zeros, as acceptance criterion 5
NUMEROV_HO_REL = 1e-4  # Numerov oscillator eigenvalue, as criterion 5
NUMEROV_WELL_REL = 1e-3  # Numerov hard-well eigenvalue, as criterion 5
RESIDUAL_REL = 1e-12  # |F| at a turning point over max|F|, as criterion 6
NORM_SAMPLED_ABS = 1e-4  # Simpson norm from >= 192 CLI samples of a state
NORM_ABS = 1e-8  # Gauss-Legendre norm of a state evaluated in process

# First five positive zeros of j_l for l = 0..6 (Abramowitz & Stegun 10.1;
# recomputed with scipy.special.spherical_jn and brentq to 1e-15).
BESSEL_ZEROS = (
    (3.141592653590, 6.283185307180, 9.424777960769, 12.566370614359, 15.707963267949),
    (4.493409457909, 7.725251836938, 10.904121659429, 14.066193912831, 17.220755271931),
    (5.763459196895, 9.095011330476, 12.322940970567, 15.514603010887, 18.689036355363),
    (6.987932000501, 10.417118547379, 13.698023153249, 16.923621285214, 20.121806174454),
    (8.182561452571, 11.704907154570, 15.039664707617, 18.301255959542, 21.525417733400),
    (9.355812111043, 12.966530172774, 16.354709639350, 19.653152101821, 22.904550647904),
    (10.512835408094, 14.207392458842, 17.647974870166, 20.983463068945, 24.262768042397),
)

# eV/nm preset of the hydrogen table: electron rest energy and 1/alpha.
ELECTRON_MASS_EV = 510998.95
INVERSE_ALPHA = 137.035999
RYDBERG_EV = 0.5 * ELECTRON_MASS_EV / INVERSE_ALPHA**2

SO_C0 = 0.015  # spin-orbit strength of the part2_table3 reference, in hbar omega


def close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * max(1.0, abs(want))


def theta(branch: str, n: int) -> float:
    """K d = theta for the four branches; E = theta^2 / (2 d^2)."""
    if branch == "ground":
        return 2.0
    if branch == "symmetric":
        return (2 * n - 1) * math.pi
    if branch == "antisymmetric":
        return 2 * n * math.pi
    if branch == "general":
        return n * math.pi
    raise ValueError(f"unknown branch {branch!r}")


def branch_g(branch: str, n: int) -> float:
    return 0.5 * theta(branch, n) ** 2


def well_energy(L: float, l: int, branch: str, n: int) -> float:
    """Hard well: sqrt(E) L = sqrt(l(l+1)/2) + sqrt(g)."""
    return ((math.sqrt(0.5 * l * (l + 1)) + math.sqrt(branch_g(branch, n))) / L) ** 2


def ho_energy(omega: float, l: int, branch: str, n: int) -> float:
    ll1 = l * (l + 1)
    return 0.5 * omega * (math.sqrt(ll1) + math.sqrt(ll1 + theta(branch, n) ** 2))


def hoso_energy(omega: float, l: int, j: float, s: float, c0: float, branch: str, n: int) -> float:
    """Oscillator with constant spin-orbit shift, combined closed form."""
    cj = c0 / (2.0 * omega) * (j * (j + 1) - l * (l + 1) - s * (s + 1))
    base = math.sqrt(l * (l + 1)) - cj
    return 0.5 * omega * (base + math.sqrt(base * base + theta(branch, n) ** 2))


def hydrogen_ground(Z: int, l: int) -> float:
    return -0.5 * Z * Z / (1.0 + l * (l + 1))


def closed_form_energy(family: str, l: int, branch: str, n: int, p: dict) -> tuple[float, float]:
    """(energy, relative tolerance) of a branch level with a closed form."""
    if family == "ho":
        return ho_energy(p["omega"], l, branch, n), CLOSED_FORM_REL
    if family == "hoso":
        return hoso_energy(p["omega"], l, p["j"], p.get("s", 0.5), p["c0"], branch, n), CLOSED_FORM_REL
    if family == "well":
        return well_energy(p["L"], l, branch, n), CLOSED_FORM_REL
    if family == "hydrogen":
        return hydrogen_ground(int(p["Z"]), l), HYDROGEN_REL
    raise ValueError(f"no closed form for {family!r}")


def bessel_zero(l: int, n: int) -> float:
    return BESSEL_ZEROS[l][n - 1]


def well_level(L: float, l: int, n: int) -> float:
    return 0.5 * (bessel_zero(l, n) / L) ** 2


def ho_level(omega: float, l: int, nodes: int) -> float:
    return (2 * nodes + l + 1.5) * omega


def parabolic_U(a: float, b: float, c: float, l: int, r: float) -> float:
    return a * r * r + b * r + c + 0.5 * l * (l + 1) / (r * r)


def parabolic_turning_points(a: float, b: float, c: float, l: int, E: float) -> tuple[float, float]:
    """Roots of U(r) = E that bound the allowed region, Newton-polished.

    r^2 (U - E) = a r^4 + b r^3 + (c - E) r^2 + l(l+1)/2 has at most two
    positive roots for positive a, b, c; with l = 0 the inner one is r = 0.
    """
    delta = 0.5 * l * (l + 1)
    coeffs = [a, b, c - E, 0.0, delta]
    roots = []
    for z in np.roots(coeffs):
        if abs(z.imag) > 1e-7 * max(1.0, abs(z.real)) or z.real <= 0:
            continue
        x = float(z.real)
        for _ in range(60):
            p = (((a * x + b) * x + c - E) * x) * x + delta
            dp = ((4 * a * x + 3 * b) * x + 2 * (c - E)) * x
            if dp == 0.0:
                break
            step = p / dp
            x -= step
            if abs(step) <= 1e-16 * x:
                break
        roots.append(x)
    roots.sort()
    if l == 0:
        if len(roots) != 1:
            raise ValueError(f"expected one positive root for l = 0, got {roots}")
        return 0.0, roots[0]
    if len(roots) != 2:
        raise ValueError(f"expected two positive roots, got {roots}")
    return roots[0], roots[1]


def ho_turning_points(omega: float, l: int, E: float) -> tuple[float, float]:
    """Roots of omega^2 r^2 / 2 + l(l+1) / 2r^2 = E."""
    a, b = 0.5 * omega * omega, 0.5 * l * (l + 1)
    root = math.sqrt(E * E - 4.0 * a * b)
    r2 = math.sqrt((E + root) / (2.0 * a))
    r1 = 0.0 if l == 0 else math.sqrt(2.0 * b / (E + root))
    return r1, r2


def hydrogen_turning_points(Z: int, l: int, E: float) -> tuple[float, float]:
    """Roots of -Z / r + l(l+1) / 2r^2 = E for E < 0."""
    b, x = 0.5 * l * (l + 1), -E
    root = math.sqrt(Z * Z - 4.0 * b * x)
    r2 = (Z + root) / (2.0 * x)
    r1 = 0.0 if l == 0 else 2.0 * b / (Z + root)
    return r1, r2


def well_turning_points(L: float, l: int, E: float) -> tuple[float, float]:
    return (0.0 if l == 0 else math.sqrt(0.5 * l * (l + 1) / E)), L


def simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule on a uniform grid of any length >= 3."""
    n = len(y)
    if n % 2 == 1:
        return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
    # odd interval count: Simpson on the first n - 1 points, then the last
    # interval from the parabola through the final three points
    head = simpson(y[:-1], h)
    return head + h / 12.0 * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def gauss_legendre(f, a: float, b: float) -> float:
    """64-point Gauss-Legendre rule: exact to round-off for the smooth,
    few-node F^2 of the sampled states."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return half * sum(w * f(float(half * x + mid)) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def check_state_samples(
    r: np.ndarray,
    R: np.ndarray,
    n: int,
    parity: str,
    inner_is_turning_point: bool,
    norm: float | None = None,
) -> str | None:
    """Unit norm, boundary zeros and interior sign changes of a sampled state.

    ``r`` is the uniform sampling grid ending at the outer turning point and
    ``R`` the radial function on it; F = r R is the reduced wavefunction.
    Without a ``norm`` computed elsewhere, it comes from Simpson's rule on
    the samples, with the looser tolerance that allows.
    """
    F = r * R
    peak = float(np.max(np.abs(F)))
    if not (peak > 0 and math.isfinite(peak)):
        return f"max|F| = {peak}"
    if norm is None:
        norm, tol = simpson(F * F, float(r[1] - r[0])), NORM_SAMPLED_ABS
    else:
        tol = NORM_ABS
    if abs(norm - 1.0) > tol:
        return f"norm {norm!r} != 1"
    edges = [abs(F[-1])] + ([abs(F[0])] if inner_is_turning_point else [])
    if max(edges) > RESIDUAL_REL * peak:
        return f"boundary |F| {max(edges)!r} > {RESIDUAL_REL} * {peak!r}"
    signs = np.sign(F[np.abs(F) > 1e-8 * peak])
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    expected = 2 * n - 2 if parity == "symmetric" else 2 * n - 1
    if changes != expected:
        return f"{changes} interior sign changes, expected {expected}"
    return None
