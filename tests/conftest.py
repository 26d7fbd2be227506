"""Shared fixtures."""

from dataclasses import dataclass, field

import numpy as np
import pytest


@dataclass
class UCount:
    """U evaluations made through the quadrature layer."""

    scalar_calls: int = 0
    array_calls: int = 0
    array_points: int = 0

    @property
    def points(self) -> int:
        return self.scalar_calls + self.array_points


@pytest.fixture
def u_count(monkeypatch) -> UCount:
    """Counts calls of ``eval_effective`` and ``eval_effective_array`` (and its
    elements) made by ``radialsolve.quadrature``."""
    import radialsolve.quadrature as quadrature

    count = UCount()
    scalar, array = quadrature.eval_effective, quadrature.eval_effective_array

    def counted_scalar(U, r):
        count.scalar_calls += 1
        return scalar(U, r)

    def counted_array(U, r):
        count.array_calls += 1
        count.array_points += np.size(r)
        return array(U, r)

    monkeypatch.setattr(quadrature, "eval_effective", counted_scalar)
    monkeypatch.setattr(quadrature, "eval_effective_array", counted_array)
    return count


@dataclass
class Sweep:
    """One ``_matched_sweep`` call: its grid length, lowest 1 + x/12, result
    and start ratio F_0 / F_1."""

    points: int
    lowest_w: float
    nodes: int
    D: float
    S: float
    y0: float


@dataclass
class SweepLog:
    """Sweeps made by ``radialsolve.oracles``, and the radii of its last U
    evaluation: a level's full grid without r_N, whose sweeps have that length."""

    sweeps: list = field(default_factory=list)
    radii: np.ndarray | None = None

    def clear(self) -> None:
        self.sweeps.clear()
        self.radii = None


@pytest.fixture
def sweep_log(monkeypatch) -> SweepLog:
    """Records each ``_matched_sweep`` call and the grid that
    ``eval_effective_array`` was last called on by ``radialsolve.oracles``."""
    import radialsolve.oracles as oracles

    log = SweepLog()
    sweep, array = oracles._matched_sweep, oracles.eval_effective_array

    def logged_sweep(x, y0):
        result = sweep(x, y0)
        log.sweeps.append(Sweep(len(x), 1.0 + float(x.min()) / 12.0, *result, y0))
        return result

    def logged_array(U, r):
        log.radii = r
        return array(U, r)

    monkeypatch.setattr(oracles, "_matched_sweep", logged_sweep)
    monkeypatch.setattr(oracles, "eval_effective_array", logged_array)
    return log
