"""Shared fixtures."""

from dataclasses import dataclass

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
