"""Turning-point / phase-integral workbench for the radial Schrodinger equation.

The potential catalog and the turning points load with the package; every
other export loads its module on first use (PEP 562), so a caller pays only
for the modules it reads.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

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

# bound after the submodule of the same name has loaded, so the name is the function
from .turning_points import (  # noqa: F401
    TurningPoints,
    solve_turning_points,
    turning_points,
)

_LAZY = {
    "quadrature": ("PhaseResult", "adaptive_integral", "area_S", "phase_Q"),
    "spectrum": (
        "Antisymmetric",
        "EnergyLevel",
        "General",
        "Ground",
        "Symmetric",
        "closed_form_energy",
        "delta_model_energy",
        "excited_energy_from_d",
        "ground_energy_from_d",
        "self_consistent_energy",
    ),
    "wavefunctions": (
        "FreeParticleWave",
        "RadialWaveFunction",
        "boundary_residuals",
        "build_bound_state",
        "delta_model_wavefunction",
        "eval_radial",
        "evanescent_eval",
        "free_particle_radial",
        "normalize",
        "sample_wavefunction",
    ),
    "oracles": (
        "OracleEnergy",
        "bessel_zero",
        "bohr_energy",
        "ho_oracle_energy",
        "ho_so_oracle_energy",
        "numerov_bound_state",
        "spherical_bessel",
        "well_oracle_energy",
    ),
    "report": ("ComparisonRow", "render", "render_samples", "reproduce_table"),
}
#: export name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "EV_NM",
    "INFINITE",
    "NATURAL",
    "EffectivePotential",
    "FreeParticle",
    "HOSpinOrbit",
    "HydrogenLike",
    "InfiniteSphericalWell",
    "IsotropicHO",
    "Parabolic",
    "UnitSystem",
    "eval_effective",
    "eval_effective_array",
    "TurningPoints",
    "solve_turning_points",
    "turning_points",
    *_MODULE_OF,
]


def __getattr__(name):
    if name in _LAZY:
        # importing a submodule binds it on this package: looked up here only once
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
