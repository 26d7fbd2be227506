"""Exception types shared across the package."""


class RadialSolveError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RadialSolveError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoClassicalRegionError(RadialSolveError):
    """E = U(r) has no pair of distinct roots (energy at or below the minimum)."""


class ComplexPhaseError(RadialSolveError):
    """U < 0 on the integration path of the phase integral; carries where U is least."""

    def __init__(self, radius, value):
        self.radius, self.value = radius, value
        super().__init__(f"effective potential U({radius:.6g}) = {value:.6g} < 0; phase would be complex")


class IntegrationError(RadialSolveError):
    """Adaptive quadrature failed to converge; carries the partial estimate."""

    def __init__(self, message, partial=None, error_estimate=None):
        self.partial = partial
        self.error_estimate = error_estimate
        super().__init__(message)


class ConvergenceError(RadialSolveError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message, last_iterate=None, iterations=0):
        self.last_iterate = last_iterate
        self.iterations = iterations
        super().__init__(message)


class NotNormalizableError(RadialSolveError):
    """The wavefunction has no finite L2 norm (free-particle continuum)."""
