"""Command-line interface.

Potential grammar: ``name:key=value,key=value``, e.g. ``ho:omega=1``,
``well:L=1``, ``hoso:omega=1,j=2.5,s=0.5,c0=0.015``. A plain key=value
config file can replace flags (flags win); the RADIALSOLVE_UNITS
environment variable selects only the units preset. Exit codes: 0 ok,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

# parsing needs only these; each verb imports the modules it runs
from .errors import DomainError, RadialSolveError
from .potentials import (
    UNIT_PRESETS,
    EffectivePotential,
    FreeParticle,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    Parabolic,
)


class UsageError(Exception):
    pass


def parse_potential(text: str):
    """Parse the ``name:key=value,...`` potential grammar."""
    name, _, rest = text.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise UsageError(f"bad potential parameter {item!r} in {text!r}")
            kwargs[key] = value
    try:
        if name == "hydrogen":
            return HydrogenLike(
                Z=int(kwargs.pop("Z", 1)), e_charge=float(kwargs.pop("e", 1.0)), **_none(kwargs)
            )
        if name == "well":
            return InfiniteSphericalWell(L=float(kwargs.pop("L")), **_none(kwargs))
        if name == "ho":
            return IsotropicHO(omega=float(kwargs.pop("omega")), **_none(kwargs))
        if name == "hoso":
            c0 = kwargs.pop("c0", None)
            return HOSpinOrbit(
                omega=float(kwargs.pop("omega")),
                j=float(kwargs.pop("j")),
                s=float(kwargs.pop("s", 0.5)),
                c0=None if c0 in (None, "relativistic") else float(c0),
                **_none(kwargs),
            )
        if name == "parabolic":
            return Parabolic(
                a=float(kwargs.pop("a")), b=float(kwargs.pop("b")), c=float(kwargs.pop("c")), **_none(kwargs)
            )
        if name == "free":
            return FreeParticle(**_none(kwargs))
    except KeyError as exc:
        raise UsageError(f"potential {name!r} is missing parameter {exc}") from exc
    except DomainError:
        # a value the spec rejects is out of range (exit 1), like the solver's rejections
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad potential spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown potential {name!r}; expected hydrogen|well|ho|hoso|parabolic|free")


def _none(kwargs):
    if kwargs:
        raise UsageError(f"unknown potential parameters {sorted(kwargs)}")
    return {}


def parse_branch(name: str, n: int):
    from .spectrum import Antisymmetric, General, Ground, Symmetric

    if name == "ground":
        return Ground()
    if name == "symmetric":
        return Symmetric(n)
    if name == "antisymmetric":
        return Antisymmetric(n)
    if name == "general":
        return General(n)
    raise UsageError(f"unknown branch {name!r}")


def parse_n_range(text: str) -> list[int]:
    """Parse a single ``n`` or an inclusive range ``lo:hi``."""
    try:
        if ":" not in text:
            return [int(text)]
        lo, hi = (int(x) for x in text.split(":", 1))
    except ValueError as exc:
        raise UsageError(f"bad n {text!r}; expected an integer or lo:hi") from exc
    if hi < lo:
        raise UsageError(f"bad n {text!r}; the range lo:hi needs hi >= lo")
    return list(range(lo, hi + 1))


def parse_bracket(text: str) -> tuple[float, float]:
    """Parse an energy bracket ``lo:hi``."""
    parts = text.split(":")
    try:
        lo, hi = (float(x) for x in parts)
    except ValueError as exc:
        raise UsageError(f"bad bracket {text!r}; expected lo:hi") from exc
    return lo, hi


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    out = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"bad config line {line!r}")
        out[key.strip()] = value.strip()
    return out


def _units_for(args) -> "UnitSystem":
    name = getattr(args, "units", None) or os.environ.get("RADIALSOLVE_UNITS") or "natural"
    if name not in UNIT_PRESETS:
        raise UsageError(f"unknown units preset {name!r}; expected {sorted(UNIT_PRESETS)}")
    return UNIT_PRESETS[name]


def _effective_potential(args) -> EffectivePotential:
    """U from --potential, --l and the units, in the verbs' error order."""
    units = _units_for(args)
    spec = parse_potential(args.potential)
    # wavefunction's --samples: a usage error that outranks the domain errors of U
    if getattr(args, "samples", 0) < 0:
        raise UsageError(f"--samples must be non-negative, got {args.samples}")
    return EffectivePotential(spec, l=args.l, units=units)


def _emit(data: bytes, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _config_defaults(p: argparse.ArgumentParser, path: str) -> dict[str, object]:
    """The checked and converted values of a config file, as defaults of the verb's options."""
    actions = {a.dest: a for a in p._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in _load_config(path).items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"unknown config key {key!r}")
        if action.nargs == 0:  # store_true style flags
            if value.lower() not in ("true", "false", "1", "0", "yes", "no"):
                raise UsageError(f"config value for {key!r} must be a boolean")
            defaults[action.dest] = value.lower() in ("true", "1", "yes")
            continue
        try:
            parsed = action.type(value) if action.type is not None else value
        except ValueError as exc:
            raise UsageError(f"bad config value for {key!r}: {exc}") from exc
        if action.choices is not None and parsed not in action.choices:
            raise UsageError(f"config value for {key!r} must be one of {list(action.choices)}")
        defaults[action.dest] = parsed
    return defaults


def sample_grid(start: float, stop: float, num: int) -> list[float]:
    """``num`` even points from start to stop, equal bit for bit to ``np.linspace``."""
    if num < 2:
        return [start] * num
    step = (stop - start) / (num - 1)
    grid = [i * step + start for i in range(num)]
    grid[-1] = stop
    return grid


def cmd_tables(args) -> None:
    from .report import render, reproduce_table

    units = _units_for(args)
    rows = reproduce_table(args.which, units)
    # the hydrogen table is always evaluated in eV / nm units
    meta = {"table": args.which, "units": "ev_nm" if args.which == "hydrogen" else units.label}
    _emit(render(rows, args.format, meta=meta), args.out)


def cmd_spectrum(args) -> None:
    from .report import ComparisonRow, render
    from .spectrum import closed_form_energy, self_consistent_energy

    U = _effective_potential(args)
    rows = []
    for n in parse_n_range(args.n):
        branch = parse_branch(args.branch, n)
        level = self_consistent_energy(U, branch, signed=args.signed)
        rows.append(
            ComparisonRow(
                state_label=f"{args.branch}:{n}",
                oracle=closed_form_energy(U, branch),
                method_primary=level.value,
                method_secondary=level.d_at_solution,
            )
        )
    meta = {"potential": args.potential, "l": args.l, "units": U.units.label}
    _emit(render(rows, args.format, meta=meta), args.out)


def cmd_turning_points(args) -> None:
    from .turning_points import turning_points

    tp = turning_points(_effective_potential(args), args.energy)
    text = (
        f"r1={tp.r1!r}\nr2={tp.r2!r}\nr0={tp.r0!r}\nd={tp.d!r}\n"
        f"energy={tp.energy!r}\nmethod={tp.method}\n"
    )
    _emit(text.encode(), args.out)


def cmd_wavefunction(args) -> None:
    from .report import render_samples
    from .wavefunctions import build_bound_state, normalize, sample_wavefunction

    U = _effective_potential(args)
    wf, level = build_bound_state(U, args.n, args.parity)
    wf = normalize(wf)
    grid = sample_grid(wf.tp.r1 if wf.tp.r1 > 0 else wf.tp.r2 * 1e-6, wf.tp.r2, args.samples)
    samples = sample_wavefunction(wf, grid)
    meta = {
        "potential": args.potential,
        "l": args.l,
        "n": args.n,
        "parity": args.parity,
        "energy": level.value,
        "units": U.units.label,
    }
    _emit(render_samples(samples, args.format, meta=meta), args.out)


def cmd_oracle(args) -> None:
    from .oracles import bessel_zero, ho_oracle_energy, numerov_bound_state, well_oracle_energy

    units = _units_for(args)
    if args.oracle_kind == "bessel-zeros":
        lines = [f"{args.l} {n} {bessel_zero(args.l, n)!r}" for n in parse_n_range(args.n)]
        _emit(("\n".join(lines) + "\n").encode(), args.out)
        return
    if args.oracle_kind == "well":
        vals = [well_oracle_energy(args.L, args.l, n, units) for n in parse_n_range(args.n)]
    elif args.oracle_kind == "ho":
        vals = [ho_oracle_energy(n, args.l, args.omega, units) for n in parse_n_range(args.n)]
    else:  # numerov
        U = _effective_potential(args)
        vals = [numerov_bound_state(U, args.nodes, parse_bracket(args.bracket))]
    lines = [f"{v.source} n={v.n} l={v.l} E={v.value!r}" for v in vals]
    _emit(("\n".join(lines) + "\n").encode(), args.out)


def build_parser() -> argparse.ArgumentParser:
    from .report import TABLE_IDS

    parser = argparse.ArgumentParser(prog="radialsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--units", choices=sorted(UNIT_PRESETS), default=None)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("tables", help="reproduce a comparison table")
    p.add_argument("--which", choices=TABLE_IDS, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common(p)
    p.set_defaults(subparser=p, func=cmd_tables)

    p = sub.add_parser("spectrum", help="self-consistent branch energies")
    p.add_argument("--potential", required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--branch", default="general")
    p.add_argument("--n", default="1", help="single n or range lo:hi")
    p.add_argument("--signed", action="store_true", help="bound (negative) convention")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common(p)
    p.set_defaults(subparser=p, func=cmd_spectrum)

    p = sub.add_parser("turning-points", help="solve E = U(r)")
    p.add_argument("--potential", required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--energy", type=float, required=True)
    common(p)
    p.set_defaults(subparser=p, func=cmd_turning_points)

    p = sub.add_parser("wavefunction", help="sample a normalized bound state")
    p.add_argument("--potential", required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--parity", choices=("symmetric", "antisymmetric"), default="symmetric")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)
    p.set_defaults(subparser=p, func=cmd_wavefunction)

    p = sub.add_parser("oracle", help="independent reference values")
    osub = p.add_subparsers(dest="oracle_kind", required=True)
    q = osub.add_parser("bessel-zeros")
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--n", default="1")
    common(q)
    q.set_defaults(subparser=q, func=cmd_oracle)
    q = osub.add_parser("well")
    q.add_argument("--L", type=float, required=True)
    q.add_argument("--l", type=int, default=0)
    q.add_argument("--n", default="1")
    common(q)
    q.set_defaults(subparser=q, func=cmd_oracle)
    q = osub.add_parser("ho")
    q.add_argument("--omega", type=float, default=1.0)
    q.add_argument("--l", type=int, default=0)
    q.add_argument("--n", default="1")
    common(q)
    q.set_defaults(subparser=q, func=cmd_oracle)
    q = osub.add_parser("numerov")
    q.add_argument("--potential", required=True)
    q.add_argument("--l", type=int, default=0)
    q.add_argument("--nodes", type=int, default=0)
    q.add_argument("--bracket", required=True, help="lo:hi energy bracket")
    common(q)
    q.set_defaults(subparser=q, func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the verb's defaults: a flag on the command line wins
            args.subparser.set_defaults(**_config_defaults(args.subparser, args.config))
            args = parser.parse_args(argv)
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RadialSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
