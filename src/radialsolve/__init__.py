"""Turning-point / phase-integral workbench for the radial Schrodinger equation."""

__version__ = "0.1.0"

from .potentials import (  # noqa: F401
    EV_NM,
    INFINITE,
    NATURAL,
    EffectivePotential,
    FreeParticle,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
    UnitSystem,
    eval_effective,
    eval_effective_array,
)
from .turning_points import (  # noqa: F401
    TurningPoints,
    solve_turning_points,
    turning_points,
)
from .quadrature import PhaseResult, adaptive_integral, area_S, phase_Q  # noqa: F401
from .spectrum import (  # noqa: F401
    Antisymmetric,
    EnergyLevel,
    General,
    Ground,
    Symmetric,
    closed_form_energy,
    delta_model_energy,
    excited_energy_from_d,
    ground_energy_from_d,
    self_consistent_energy,
)
from .wavefunctions import (  # noqa: F401
    FreeParticleWave,
    RadialWaveFunction,
    boundary_residuals,
    build_bound_state,
    delta_model_wavefunction,
    eval_radial,
    evanescent_eval,
    free_particle_radial,
    normalize,
    sample_wavefunction,
)
from .oracles import (  # noqa: F401
    OracleEnergy,
    bessel_zero,
    bohr_energy,
    ho_oracle_energy,
    ho_so_oracle_energy,
    numerov_bound_state,
    spherical_bessel,
    well_oracle_energy,
)
from .report import ComparisonRow, render, render_samples, reproduce_table  # noqa: F401
