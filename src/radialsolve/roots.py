"""Bracketed scalar root finding: Brent's method (Brent, 1973).

Every bracketed solve of the machinery goes through ``brentq``. It keeps
the guarantee of bisection (the root stays bracketed and the bracket
shrinks at least geometrically) and takes inverse-quadratic or secant
steps where they are safe, so smooth functions converge in about ten
evaluations instead of about fifty.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import ConvergenceError, DomainError

_EPS = sys.float_info.epsilon
#: the floor of the stopping tolerance, the least subnormal: any larger fixed
#: floor would bind above the caller's xtol and rtol where the root is tiny
_TINY = math.ulp(0.0)
_MAX_ITER = 100  # evaluations after the end points; callers converge in about ten


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 0.0,
    rtol: float = 0.0,
    fa: float | None = None,
    fb: float | None = None,
) -> tuple[float, int]:
    """Root of f on the bracket [a, b] (either order); returns (x, iterations).

    f(a) and f(b) must differ in sign (an exact zero at an end point is
    returned at once) or DomainError is raised. The solve stops once the
    bracket around x is narrower than max(xtol, rtol |x|), floored at a few
    ulps of x and at the least subnormal. ``iterations`` counts the
    evaluations of f after the two end points; ConvergenceError carries the
    last iterate when ``_MAX_ITER`` of them do not reach the tolerance.
    ``fa`` and ``fb``, when given, are taken as f(a) and f(b), which are then
    not evaluated again.
    """
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    if fa == 0.0:
        return a, 0
    if fb == 0.0:
        return b, 0
    if fa != fa or fb != fb or (fa > 0) == (fb > 0):  # x != x: x is nan
        raise DomainError(f"[{a!r}, {b!r}] does not bracket a root: f = {fa!r}, {fb!r}")
    # Comparisons stand in for the abs, max and min calls of the textbook
    # loop (kept in tests/test_roots.py as the reference): |x| is written
    # x if x >= 0 else -x, which differs from abs(x) only in the sign of a
    # zero, and each max or min keeps its first of equal or unordered (nan)
    # arguments, as the builtins do, so every iterate keeps its bits. Rounding
    # is monotone, so max(rtol |b|, 4 eps |b|) is max(rtol, 4 eps) |b|.
    # b is the best iterate, c the other end of the bracket, a the previous b
    rel = rtol if rtol > 4.0 * _EPS else 4.0 * _EPS
    c, fc = a, fa
    step = prev_step = b - a
    for iteration in range(_MAX_ITER + 1):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            step = prev_step = b - a
        if (fc if fc >= 0 else -fc) < (fb if fb >= 0 else -fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # tol = max(0.5 * max(xtol, rtol |b|, 4 eps |b|), _TINY)
        tol = rel * (b if b >= 0 else -b)
        tol = 0.5 * (tol if tol > xtol else xtol)
        if _TINY > tol:
            tol = _TINY
        half = 0.5 * (c - b)
        if -tol <= half <= tol:
            return b, iteration
        if iteration == _MAX_ITER:
            break
        if (prev_step >= tol or prev_step <= -tol) and (fa if fa >= 0 else -fa) > (fb if fb >= 0 else -fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            # accept the step only if it stays well inside the bracket and
            # shrinks faster than bisection would over two steps:
            # 2 p < min(3 half q - |tol q|, |prev_step q|)
            tol_q, prev_q = tol * q, prev_step * q
            bound = 3.0 * half * q - (tol_q if tol_q >= 0 else -tol_q)
            if prev_q < 0:
                prev_q = -prev_q
            if prev_q < bound:
                bound = prev_q
            if 2.0 * p < bound:
                prev_step, step = step, p / q
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if step > tol or step < -tol else math.copysign(tol, half)
        fb = f(b)
        if fb == 0.0:
            return b, iteration + 1
    raise ConvergenceError(
        f"Brent's method did not converge in {_MAX_ITER} iterations",
        last_iterate=b,
        iterations=_MAX_ITER,
    )
