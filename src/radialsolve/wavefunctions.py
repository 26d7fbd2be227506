"""Damped-periodic radial wavefunctions and the piecewise special cases.

Bound well states have the form

    R(r) = (A / r) cos[K (r - r0)] e^{-Q(r)}   (symmetric)
    R(r) = (B / r) sin[K (r - r0)] e^{-Q(r)}   (antisymmetric)

with K d = (2n-1) pi or 2 n pi. Outside [r1, r2] the function is zero by
construction. The free particle keeps its complex carriers and a
log-singular envelope switching branch at r = 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .errors import DomainError, NotNormalizableError
from .potentials import EffectivePotential, Frozen, _set_field
# no code here reads adaptive_integral; bench/test_bench.py checks that its tracer restores this binding
from .quadrature import Phase, adaptive_integral, adaptive_integral_many, make_phase  # noqa: F401
from .spectrum import Antisymmetric, EnergyLevel, Symmetric, branch_theta, self_consistent_energy
from .turning_points import TurningPoints

#: the carrier of each parity, as a function of K (r - r0)
_WAVES = {"symmetric": math.cos, "antisymmetric": math.sin}


def _check_parity(parity: str) -> None:
    if parity not in _WAVES:
        raise DomainError(f"parity must be symmetric or antisymmetric, got {parity}")


@dataclass(frozen=True)
class RadialWaveFunction:
    """A single bound state of a hard-well-like effective potential."""

    potential: EffectivePotential
    tp: TurningPoints
    K: float
    parity: str  # "symmetric" | "antisymmetric"
    phase: Phase
    amplitude: float = 1.0

    def __post_init__(self):
        _check_parity(self.parity)
        if self.amplitude < 0:
            raise DomainError("amplitude must be non-negative")

    def carrier(self, r: float) -> float:
        return _WAVES[self.parity](self.K * (r - self.tp.r0))

    def radial_F(self, r: float) -> float:
        """F(r) = r R(r) on the supported interval, 0 outside."""
        if not r > 0:
            raise DomainError(f"r must be positive, got {r}")
        return self.radial_F_many([r])[0]

    def radial_F_many(self, rs: Sequence[float]) -> list[float]:
        """``radial_F`` at each of ``rs``, with one phase call for the points in the support."""
        r1, r2, r0 = self.tp.r1, self.tp.r2, self.tp.r0
        A, K, wave, exp = self.amplitude, self.K, _WAVES[self.parity], math.exp
        # one support test for the whole list; min and max pass over a nan
        # that is not first, and the sum, nan then, tells
        if rs and r1 <= min(rs) and max(rs) <= r2 and not math.isnan(sum(rs)):
            return [A * wave(K * (r - r0)) * exp(-q) for r, q in zip(rs, self.phase.many(rs))]
        q = iter(self.phase.many([r for r in rs if r1 <= r <= r2]))
        return [A * wave(K * (r - r0)) * exp(-next(q)) if r1 <= r <= r2 else 0.0 for r in rs]


class FreeParticleWave(Frozen):
    """Piecewise free-particle solution with carrier f and envelope e^{-|Q|}."""

    __match_args__ = _fields = ("l", "K", "carrier", "amplitude")

    def __init__(self, l: int, K: float, carrier: str, amplitude: float = 1.0):
        # carrier: "exp_plus" | "exp_minus" | "cos" | "sin"
        if l < 0:
            raise DomainError(f"l must be >= 0, got {l}")
        if not K > 0:
            raise DomainError(f"K must be positive, got {K}")
        if carrier not in ("exp_plus", "exp_minus", "cos", "sin"):
            raise DomainError(f"unknown carrier {carrier!r}")
        _set_field(self, "l", l)
        _set_field(self, "K", K)
        _set_field(self, "carrier", carrier)
        _set_field(self, "amplitude", amplitude)


def build_bound_state(
    U: EffectivePotential, n: int, parity: str
) -> tuple[RadialWaveFunction, EnergyLevel]:
    """Quantized state: solves the branch energy, then sets K d exactly.

    K is pinned to theta / d, theta = (2n-1) pi or 2 n pi, so the boundary
    zeros hold to machine precision; the solved energy keeps K = m1 sqrt(E)
    consistent to the solver tolerance.
    """
    _check_parity(parity)
    branch = Symmetric(n) if parity == "symmetric" else Antisymmetric(n)
    level = self_consistent_energy(U, branch)
    tp = level.turning_points
    K = branch_theta(branch) / tp.d
    wf = RadialWaveFunction(potential=U, tp=tp, K=K, parity=parity, phase=_support_phase(U, tp))
    return wf, level


def detuned_state(U: EffectivePotential, tp: TurningPoints, K: float, parity: str) -> RadialWaveFunction:
    """A deliberately unquantized carrier, for boundary-residual checks."""
    return RadialWaveFunction(potential=U, tp=tp, K=K, parity=parity, phase=_support_phase(U, tp))


def _support_anchor(tp: TurningPoints) -> float:
    """Lower end r_ref of a state's support: r1, or r2 * 1e-12 standing in for r1 = 0."""
    return tp.r1 if tp.r1 > 0 else tp.r2 * 1e-12


def _support_phase(U: EffectivePotential, tp: TurningPoints) -> Phase:
    """Q(r) over the state's support [r_ref, r2], with Q(r_ref) = 0."""
    return make_phase(U, _support_anchor(tp), tp.r2)


def normalize(wf: RadialWaveFunction) -> RadialWaveFunction:
    """Rescale the amplitude so that the L2 norm of F over [r1, r2] is 1."""
    if isinstance(wf, FreeParticleWave):
        raise NotNormalizableError("free-particle amplitude is indefinite")
    base = wf if wf.amplitude == 1.0 else replace(wf, amplitude=1.0)
    # s times the integral of F(s x)^2 over [r_ref / s, r2 / s]: a power of 2 near the
    # length scale rescales exactly and puts the integral near 1, where the loop's
    # stopping floor tol * max(1, |I|) is relative at any scale
    s = 2.0 ** min(round(math.log2(wf.potential.length_scale)), 1023)
    # F ** 2, not F * F: libm's pow(x, 2) is not always the correctly rounded
    # x * x, and the two differ often enough to move the last bit of an amplitude
    norm_sq, _ = adaptive_integral_many(
        lambda xs: [F ** 2 for F in base.radial_F_many(xs if s == 1.0 else [s * x for x in xs])],
        _support_anchor(wf.tp) / s, wf.tp.r2 / s, tol=1e-10,
    )
    norm_sq *= s
    if not norm_sq > 0 or not math.isfinite(norm_sq):
        raise NotNormalizableError(f"norm integral {norm_sq} is not positive and finite")
    return replace(wf, amplitude=1.0 / math.sqrt(norm_sq))


def delta_model_wavefunction(k: float, r0: float, r: float) -> float:
    """D(r) = sqrt(k) e^{-k|r - r0|}, normalized bound state of S delta(r - r0): k = m|S|/hbar^2, E = -m S^2/(2 hbar^2)."""
    if not k > 0:
        raise DomainError(f"k must be positive, got {k}")
    return math.sqrt(k) * math.exp(-k * abs(r - r0))


def free_particle_radial(fp: FreeParticleWave, r: float) -> complex | float:
    """Piecewise R(r) = A f(r)/r * envelope, envelope = e^{+Q}, 1, e^{-Q}.

    Q(r) = sqrt(l(l+1)) ln r is negative below r = 1 and positive above, so
    both pieces damp away from r = 1.
    """
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    q = math.sqrt(fp.l * (fp.l + 1)) * math.log(r)
    if r < 1.0:
        envelope = math.exp(q)
    elif r > 1.0:
        envelope = math.exp(-q)
    else:
        envelope = 1.0
    x = fp.K * r
    f: complex | float
    if fp.carrier == "exp_plus":
        f = complex(math.cos(x), math.sin(x))
    elif fp.carrier == "exp_minus":
        f = complex(math.cos(x), -math.sin(x))
    elif fp.carrier == "cos":
        f = math.cos(x)
    else:
        f = math.sin(x)
    return fp.amplitude * f / r * envelope


def boundary_residuals(wf: RadialWaveFunction) -> tuple[float, float]:
    """|F| at both turning points; ~0 for quantized (n, parity)."""
    # Q(r_ref) = 0 at the support's anchor
    at_r1 = abs(wf.amplitude * wf.carrier(wf.tp.r1))
    at_r2 = abs(wf.amplitude * wf.carrier(wf.tp.r2) * math.exp(-wf.phase(wf.tp.r2)))
    return at_r1, at_r2


class SamplePoint(NamedTuple):
    r: float
    value: float


def sample_wavefunction(wf: RadialWaveFunction, grid: Sequence[float]) -> list[SamplePoint]:
    """Samples of R(r) on a strictly increasing grid, with one phase call for the points in the support."""
    prev = 0.0
    for r in grid:
        if not r > prev:
            raise DomainError("grid must be strictly increasing and positive")
        prev = r
    # tuple.__new__ builds each SamplePoint(r, F / r) without a Python call per point
    R = map(operator.truediv, wf.radial_F_many(grid), grid)
    return list(map(tuple.__new__, itertools.repeat(SamplePoint), zip(grid, R)))
