"""The public API of the package and the semantics of its value classes.

The package exports load their modules on first use, and the value classes
are plain classes on ``potentials.Frozen``: these tests pin what callers see
of both, the dataclass-style construction, ``repr``, ``==``, ``hash``,
immutability, ``match``, copy and pickle included.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import radialsolve as rs
from radialsolve import (
    EV_NM,
    Antisymmetric,
    ComparisonRow,
    EffectivePotential,
    FreeParticle,
    FreeParticleWave,
    General,
    Ground,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    OracleEnergy,
    Parabolic,
    PhaseResult,
    Symmetric,
    TurningPoints,
    UnitSystem,
)
from radialsolve.errors import DomainError, NoClassicalRegionError
from radialsolve.quadrature import Phase

SRC = str(Path(__file__).resolve().parents[1] / "src")

# ---------------------------------------------------------------- package exports

#: the 52 exported names, by the submodule that defines each
EXPORTS = {
    "potentials": (
        "EV_NM", "INFINITE", "NATURAL", "EffectivePotential", "FreeParticle", "HOSpinOrbit",
        "HydrogenLike", "InfiniteSphericalWell", "IsotropicHO", "Parabolic", "UnitSystem",
        "eval_effective", "eval_effective_array",
    ),
    "turning_points": ("TurningPoints", "solve_turning_points", "turning_points"),
    "quadrature": ("PhaseResult", "adaptive_integral", "area_S", "phase_Q"),
    "spectrum": (
        "Antisymmetric", "EnergyLevel", "General", "Ground", "Symmetric", "closed_form_energy",
        "delta_model_energy", "excited_energy_from_d", "ground_energy_from_d", "self_consistent_energy",
    ),
    "wavefunctions": (
        "FreeParticleWave", "RadialWaveFunction", "boundary_residuals", "build_bound_state",
        "delta_model_wavefunction", "eval_radial", "evanescent_eval", "free_particle_radial",
        "normalize", "sample_wavefunction",
    ),
    "oracles": (
        "OracleEnergy", "bessel_zero", "bohr_energy", "ho_oracle_energy", "ho_so_oracle_energy",
        "numerov_bound_state", "spherical_bessel", "well_oracle_energy",
    ),
    "report": ("ComparisonRow", "render", "render_samples", "reproduce_table"),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_exports():
    # a package without __all__ exports its public names that are not submodules
    public = {name for name in dir(rs) if not name.startswith("_") and not isinstance(getattr(rs, name), type(rs))}
    assert len(NAMES) == 52 and public == set(NAMES)
    assert sorted(getattr(rs, "__all__", NAMES)) == sorted(NAMES)


# a fresh interpreter: reads a lazy export first, the trap of a name that is
# also a submodule, then imports every submodule and checks every export again
_EXPORT_PROBE = """
import importlib, sys
import radialsolve as rs
exports = {exports!r}

def check():
    for module, names in exports.items():
        mod = sys.modules["radialsolve." + module]
        for name in names:
            assert getattr(rs, name) is getattr(mod, name), (module, name)

rs.self_consistent_energy
assert callable(rs.turning_points) and not isinstance(rs.turning_points, type(sys))
for module in exports:
    importlib.import_module("radialsolve." + module)
check()
import radialsolve.cli
check()
print("ok")
"""


def test_every_export_is_its_modules_object_in_a_fresh_interpreter():
    proc = subprocess.run(
        [sys.executable, "-c", _EXPORT_PROBE.format(exports=EXPORTS)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


@pytest.mark.parametrize("module", EXPORTS)
def test_export_is_the_same_object_as_in_its_module(module):
    mod = __import__(f"radialsolve.{module}", fromlist=["_"])
    for name in EXPORTS[module]:
        assert getattr(rs, name) is getattr(mod, name)


def test_turning_points_is_the_function_and_submodules_stay_reachable():
    import radialsolve.turning_points  # noqa: F401

    assert rs.turning_points is sys.modules["radialsolve.turning_points"].turning_points
    for module in ("potentials", "quadrature", "spectrum", "wavefunctions", "oracles", "report"):
        assert getattr(rs, module) is sys.modules[f"radialsolve.{module}"]


def test_star_import_and_dir_hold_every_export():
    namespace = {}
    exec("from radialsolve import *", namespace)
    assert set(NAMES) <= namespace.keys()
    assert namespace["turning_points"] is rs.turning_points
    assert set(NAMES) <= set(dir(rs))


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_export"):
        rs.no_such_export
    assert not hasattr(rs, "no_such_export")


# ---------------------------------------------------------------- value classes


def _many(rs_list):
    return [2.0 * r for r in rs_list]


#: (value, its repr as the dataclass versions printed it)
REPRS = [
    (UnitSystem(), "UnitSystem(hbar=1.0, mass=1.0, light_speed=137.035999, label='natural')"),
    (EV_NM, "UnitSystem(hbar=197.3269804, mass=510998.95, light_speed=1.0, label='eV-nm')"),
    (HydrogenLike(), "HydrogenLike(Z=1, e_charge=1.0)"),
    (HydrogenLike(2, 0.5), "HydrogenLike(Z=2, e_charge=0.5)"),
    (InfiniteSphericalWell(1.0), "InfiniteSphericalWell(L=1.0)"),
    (IsotropicHO(1.0), "IsotropicHO(omega=1.0)"),
    (HOSpinOrbit(1.0, 2.5), "HOSpinOrbit(omega=1.0, j=2.5, s=0.5, c0=None)"),
    (HOSpinOrbit(1.0, 2.5, 0.5, 0.015), "HOSpinOrbit(omega=1.0, j=2.5, s=0.5, c0=0.015)"),
    (Parabolic(1.0, 2.0, 3.0), "Parabolic(a=1.0, b=2.0, c=3.0)"),
    (FreeParticle(), "FreeParticle()"),
    (
        EffectivePotential(IsotropicHO(1.0), l=1),
        "EffectivePotential(spec=IsotropicHO(omega=1.0), l=1, units=UnitSystem(hbar=1.0, mass=1.0, "
        "light_speed=137.035999, label='natural'), centrifugal_coeff=1.0, spin_orbit_shift=0.0, "
        "length_scale=1.0, energy_scale=1.0, quadratic=0.5, linear=0.0, offset=-0.0, coulomb=0.0, "
        "wall=inf, minimum=(1.189207115002721, 1.4142135623730951))",
    ),
    (
        EffectivePotential(InfiniteSphericalWell(2.0)),
        "EffectivePotential(spec=InfiniteSphericalWell(L=2.0), l=0, units=UnitSystem(hbar=1.0, mass=1.0, "
        "light_speed=137.035999, label='natural'), centrifugal_coeff=0.0, spin_orbit_shift=0.0, "
        "length_scale=2.0, energy_scale=0.25, quadratic=0.0, linear=0.0, offset=0.0, coulomb=0.0, "
        "wall=2.0, minimum=None)",
    ),
    (TurningPoints(0.5, 1.5, 3.0, "numeric"), "TurningPoints(r1=0.5, r2=1.5, energy=3.0, method='numeric')"),
    (OracleEnergy("numerov", 1.5, 0, 0, 7), "OracleEnergy(source='numerov', value=1.5, n=0, l=0, sweeps=7)"),
    (OracleEnergy("bohr", -0.5, 1, 0), "OracleEnergy(source='bohr', value=-0.5, n=1, l=0, sweeps=None)"),
    (
        ComparisonRow("1s", None, 1.0),
        "ComparisonRow(state_label='1s', oracle=None, method_primary=1.0, method_secondary=None)",
    ),
    (
        ComparisonRow("1p", 2.0, 2.5, 3.0),
        "ComparisonRow(state_label='1p', oracle=2.0, method_primary=2.5, method_secondary=3.0)",
    ),
    (Ground(), "Ground()"),
    (Symmetric(1), "Symmetric(n=1)"),
    (Antisymmetric(2), "Antisymmetric(n=2)"),
    (General(3), "General(n=3)"),
    (PhaseResult(1.25, "closed_form", 0.0), "PhaseResult(value=1.25, method='closed_form', estimated_error=0.0)"),
    (FreeParticleWave(1, 2.0, "cos"), "FreeParticleWave(l=1, K=2.0, carrier='cos', amplitude=1.0)"),
    (FreeParticleWave(0, 1.5, "sin", 0.5), "FreeParticleWave(l=0, K=1.5, carrier='sin', amplitude=0.5)"),
    (Phase(_many), f"Phase(many={_many!r})"),
]
VALUES = [value for value, _ in REPRS]
IDS = [text.partition("(")[0] for _, text in REPRS]


@pytest.mark.parametrize(("value", "text"), REPRS, ids=IDS)
def test_repr_has_the_dataclass_format(value, text):
    assert repr(value) == text


#: (class, positional arguments, the same call by keyword with every default spelled out)
CONSTRUCTIONS = [
    (UnitSystem, (), dict(hbar=1.0, mass=1.0, light_speed=137.035999, label="natural")),
    (UnitSystem, (2.0, 3.0), dict(mass=3.0, hbar=2.0, light_speed=137.035999, label="natural")),
    (HydrogenLike, (), dict(Z=1, e_charge=1.0)),
    (InfiniteSphericalWell, (1.0,), dict(L=1.0)),
    (IsotropicHO, (1.0,), dict(omega=1.0)),
    (HOSpinOrbit, (1.0, 2.5), dict(omega=1.0, j=2.5, s=0.5, c0=None)),
    (Parabolic, (1.0, 2.0, 3.0), dict(c=3.0, b=2.0, a=1.0)),
    (FreeParticle, (), {}),
    (EffectivePotential, (IsotropicHO(1.0),), dict(spec=IsotropicHO(1.0), l=0, units=rs.NATURAL)),
    (TurningPoints, (0.5, 1.5, 3.0, "numeric"), dict(r1=0.5, r2=1.5, energy=3.0, method="numeric")),
    (OracleEnergy, ("bohr", -0.5, 1, 0), dict(source="bohr", value=-0.5, n=1, l=0, sweeps=None)),
    (ComparisonRow, ("1s", None, 1.0), dict(state_label="1s", oracle=None, method_primary=1.0, method_secondary=None)),
    (Ground, (), {}),
    (Symmetric, (2,), dict(n=2)),
    (Antisymmetric, (2,), dict(n=2)),
    (General, (2,), dict(n=2)),
    (PhaseResult, (1.0, "numeric", 1e-12), dict(value=1.0, method="numeric", estimated_error=1e-12)),
    (Phase, (_many,), dict(many=_many)),
    (FreeParticleWave, (1, 2.0, "cos"), dict(l=1, K=2.0, carrier="cos", amplitude=1.0)),
]


@pytest.mark.parametrize(("cls", "args", "kwargs"), CONSTRUCTIONS, ids=lambda x: getattr(x, "__name__", ""))
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert type(a) is type(b) is cls and a == b and hash(a) == hash(b)
    assert {name: getattr(a, name) for name in kwargs} == kwargs


@pytest.mark.parametrize(
    "call",
    [
        lambda: UnitSystem(1.0, 1.0, 1.0, "x", 1),
        lambda: InfiniteSphericalWell(),
        lambda: IsotropicHO(omega=1.0, L=1.0),
        lambda: HOSpinOrbit(1.0),
        lambda: Parabolic(1.0, 2.0),
        lambda: FreeParticle(1.0),
        lambda: EffectivePotential(IsotropicHO(1.0), 0, rs.NATURAL, 0.0),
        lambda: TurningPoints(0.5, 1.5, 3.0),
        lambda: OracleEnergy("bohr", -0.5, 1),
        lambda: ComparisonRow("1s"),
        lambda: Ground(1),
        lambda: Symmetric(),
        lambda: PhaseResult(1.0, "numeric"),
        lambda: FreeParticleWave(1, 2.0),
    ],
)
def test_a_wrong_signature_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [
        (lambda: UnitSystem(hbar=0.0), DomainError, "hbar must be finite and positive, got 0.0"),
        (lambda: UnitSystem(mass=float("inf")), DomainError, "mass must be finite and positive, got inf"),
        (lambda: UnitSystem(light_speed=-1.0), DomainError, "light_speed must be finite and positive, got -1.0"),
        (lambda: HydrogenLike(Z=0), DomainError, "Z must be a positive integer, got 0"),
        (lambda: HydrogenLike(Z=1.5), DomainError, "Z must be a positive integer, got 1.5"),
        (lambda: HydrogenLike(e_charge=0.0), DomainError, "e_charge must be positive"),
        (lambda: InfiniteSphericalWell(-1.0), DomainError, "well radius L must be positive, got -1.0"),
        (lambda: IsotropicHO(float("nan")), DomainError, "omega must be positive, got nan"),
        (lambda: HOSpinOrbit(0.0, 2.5), DomainError, "omega must be positive, got 0.0"),
        (lambda: HOSpinOrbit(1.0, 0.7), DomainError, "j must be a half-integer >= 1/2, got 0.7"),
        (lambda: HOSpinOrbit(1.0, 2.5, s=0.3), DomainError, "s must be a half-integer, got 0.3"),
        (lambda: HOSpinOrbit(1.0, 2.5, c0=-1.0), DomainError, "c0 must be non-negative"),
        (
            lambda: Parabolic(1.0, 0.0, 1.0),
            DomainError,
            "parabolic coefficients a, b, c must all be finite and positive",
        ),
        (lambda: EffectivePotential(IsotropicHO(1.0), l=-1), DomainError, "l must be a non-negative integer, got -1"),
        (lambda: EffectivePotential("ho"), DomainError, "unknown potential spec 'ho'"),
        (
            lambda: EffectivePotential(IsotropicHO(omega=1e-160)),
            DomainError,
            "oscillator strength m omega^2 / 2 underflows to 5e-321 for IsotropicHO(omega=1e-160)",
        ),
        (
            lambda: EffectivePotential(HOSpinOrbit(1.0, 3.5), l=0),
            DomainError,
            "invalid angular momentum coupling: j=3.5, l=0, s=0.5",
        ),
        (
            lambda: TurningPoints(1.0, 1.0, 2.0, "numeric"),
            NoClassicalRegionError,
            "degenerate turning points r1=1.0, r2=1.0",
        ),
        (lambda: TurningPoints(-1.0, 1.0, 2.0, "numeric"), DomainError, "r1 must be >= 0, got -1.0"),
        (lambda: Symmetric(0), DomainError, "quantum number n must be >= 1, got 0"),
        (lambda: General(-2), DomainError, "quantum number n must be >= 1, got -2"),
        (lambda: FreeParticleWave(-1, 1.0, "cos"), DomainError, "l must be >= 0, got -1"),
        (lambda: FreeParticleWave(0, 0.0, "cos"), DomainError, "K must be positive, got 0.0"),
        (lambda: FreeParticleWave(0, 1.0, "tan"), DomainError, "unknown carrier 'tan'"),
    ],
)
def test_validation_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_equality_and_hash_go_by_exact_type_and_fields():
    assert IsotropicHO(1.0) != InfiniteSphericalWell(1.0)
    assert Symmetric(1) != General(1) and Symmetric(1) != Antisymmetric(1)
    assert IsotropicHO(1.0) != (1.0,) and Ground() != FreeParticle()
    assert len({Symmetric(1), General(1), Antisymmetric(1), Symmetric(1)}) == 3
    assert len({IsotropicHO(1.0), InfiniteSphericalWell(1.0), IsotropicHO(1.0)}) == 2
    assert Ground() == Ground() and hash(Ground()) == hash(Ground())
    # the computed fields of U are fields too
    assert EffectivePotential(IsotropicHO(1.0), l=1) == EffectivePotential(IsotropicHO(1.0), l=1)
    assert EffectivePotential(IsotropicHO(1.0), l=1) != EffectivePotential(IsotropicHO(1.0), l=2)
    assert EffectivePotential(IsotropicHO(1.0), units=EV_NM) != EffectivePotential(IsotropicHO(1.0))
    assert TurningPoints(0.5, 1.5, 3.0, "numeric") != TurningPoints(0.5, 1.5, 3.0, "closed_form")
    assert ComparisonRow("1s", None, 1.0) == ComparisonRow("1s", None, 1.0, None)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_values_are_equal_to_themselves_and_hashable(value):
    assert value == value and not value != value
    assert hash(value) == hash(copy.copy(value))


@pytest.mark.parametrize("value", [v for v in VALUES if type(v).__match_args__], ids=lambda v: type(v).__name__)
def test_assignment_and_deletion_raise_attribute_error(value):
    field = type(value).__match_args__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 1.0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_match_by_keyword_and_by_position():
    match HOSpinOrbit(1.0, 2.5):
        case HOSpinOrbit(w, j, s, c0):
            assert (w, j, s, c0) == (1.0, 2.5, 0.5, None)
        case _:
            pytest.fail("no positional match")
    match EffectivePotential(IsotropicHO(2.0), l=1):
        case EffectivePotential(IsotropicHO(omega=w), l, units=u):
            assert (w, l, u) == (2.0, 1, rs.NATURAL)
        case _:
            pytest.fail("no nested match")
    match TurningPoints(0.5, 1.5, 3.0, "numeric"):
        case TurningPoints(r1, r2, method="numeric"):
            assert (r1, r2) == (0.5, 1.5)
        case _:
            pytest.fail("no mixed match")
    for branch, expected in ((Ground(), "ground"), (Symmetric(2), 2), (General(3), -3)):
        match branch:
            case Ground():
                got = "ground"
            case Symmetric(n):
                got = n
            case General(n=n):
                got = -n
        assert got == expected
    assert EffectivePotential.__match_args__ == ("spec", "l", "units")


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_match_by_every_positional_field(value):
    cls = type(value)
    names = cls.__match_args__
    match value:
        case cls() if not names:
            return
        case cls(first):
            assert first is getattr(value, names[0])
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)


def test_phase_calls_many_at_one_radius():
    assert Phase(_many)(1.5) == 3.0
    assert Phase(_many).many([1.0, 2.0]) == [2.0, 4.0]
