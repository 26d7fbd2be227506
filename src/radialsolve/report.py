"""Table reproduction and deterministic serialization.

Each table is recomputed every time from ``closed_form_energy`` (the level
read from the coefficients of each row's U) and the independent oracles;
nothing is hard-coded. Values are reported in the reduced unit of the
corresponding table (hbar^2/2mL^2, hbar omega, or eV for hydrogen). Rendering is byte-deterministic: identical inputs yield
identical bytes in all three formats.

Each table builder imports the solvers and oracles it calls, and ``json``
loads only for JSON output, so the CLI's parser reads ``TABLE_IDS`` without
loading either.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .errors import DomainError
from .potentials import (
    EV_NM,
    E_CHARGE_EV_NM,
    NATURAL,
    EffectivePotential,
    Frozen,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    UnitSystem,
    _set_field,
)

if TYPE_CHECKING:
    from .wavefunctions import SamplePoint

TABLE_IDS = ("part2_table1", "part2_table2", "part2_table3", "hydrogen")


class ComparisonRow(Frozen):
    """One state: the oracle (None where there is none) and one or two method values."""

    __match_args__ = _fields = ("state_label", "oracle", "method_primary", "method_secondary")

    def __init__(
        self,
        state_label: str,
        oracle: Optional[float],
        method_primary: float,
        method_secondary: Optional[float] = None,
    ):
        _set_field(self, "state_label", state_label)
        _set_field(self, "oracle", oracle)
        _set_field(self, "method_primary", method_primary)
        _set_field(self, "method_secondary", method_secondary)

    @property
    def abs_dev(self) -> Optional[float]:
        return None if self.oracle is None else abs(self.method_primary - self.oracle)

    @property
    def rel_dev(self) -> Optional[float]:
        # floored at the smallest normal float only, so it stays relative at any scale
        return None if self.oracle is None else self.abs_dev / max(abs(self.oracle), sys.float_info.min)


_SPECTROSCOPIC = "spdfghi"

_WELL_HO_STATES = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))

_SO_STATES = (
    (2, 2.5),  # 1d_5/2
    (3, 2.5),  # 1f_5/2
    (3, 3.5),  # 1f_7/2
    (4, 3.5),  # 1g_7/2
    (4, 4.5),  # 1g_9/2
)

_SO_C0_IN_HBAR_OMEGA = 0.015


def _label(n: int, l: int) -> str:
    return f"{n}{_SPECTROSCOPIC[l]}"


def reproduce_table(table_id: str, units: UnitSystem = NATURAL) -> list[ComparisonRow]:
    """Recompute one of the benchmark comparison tables from scratch."""
    if table_id == "part2_table1":
        return _table_well(units)
    if table_id == "part2_table2":
        return _table_ho(units)
    if table_id == "part2_table3":
        return _table_ho_so(units)
    if table_id == "hydrogen":
        return _table_hydrogen()
    raise DomainError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")


def _table_well(units: UnitSystem) -> list[ComparisonRow]:
    from .oracles import bessel_zero
    from .spectrum import General, branch_g, closed_form_energy

    L = 1.0
    unit = units.hbar**2 / (2.0 * units.mass * L * L)
    rows = []
    for n, l in _WELL_HO_STATES:
        beta = bessel_zero(l, n)
        oracle = unit * beta * beta
        U = EffectivePotential(InfiniteSphericalWell(L), l=l, units=units)
        e_plus = closed_form_energy(U, General(n))
        # the paper's second root, sqrt(E) L = sqrt(coeff) - sqrt(g)
        e_minus = ((math.sqrt(U.centrifugal_coeff) - math.sqrt(branch_g(General(n), units))) / L) ** 2
        rows.append(
            ComparisonRow(_label(n, l), oracle / unit, e_plus / unit, e_minus / unit)
        )
    return rows


def _table_ho(units: UnitSystem) -> list[ComparisonRow]:
    from .oracles import ho_oracle_energy
    from .spectrum import General, closed_form_energy

    omega = 1.0
    unit = units.hbar * omega
    rows = []
    for n, l in _WELL_HO_STATES:
        oracle = ho_oracle_energy(n, l, omega, units).value
        method = closed_form_energy(EffectivePotential(IsotropicHO(omega), l=l, units=units), General(n))
        rows.append(ComparisonRow(_label(n, l), oracle / unit, method / unit))
    return rows


def _table_ho_so(units: UnitSystem) -> list[ComparisonRow]:
    from .oracles import ho_so_oracle_energy
    from .spectrum import General, closed_form_energy

    omega = 1.0
    s = 0.5
    unit = units.hbar * omega
    c0 = _SO_C0_IN_HBAR_OMEGA * unit
    rows = []
    for l, j in _SO_STATES:
        oracle = ho_so_oracle_energy(0, l, j, s, c0, omega, units).value
        U = EffectivePotential(HOSpinOrbit(omega, j, s, c0), l=l, units=units)
        method = closed_form_energy(U, General(1))
        half = "5/2" if j == 2.5 else "7/2" if j == 3.5 else "9/2"
        rows.append(ComparisonRow(f"1{_SPECTROSCOPIC[l]}_{half}", oracle / unit, method / unit))
    return rows


def _table_hydrogen() -> list[ComparisonRow]:
    from .oracles import bohr_energy
    from .spectrum import Ground, closed_form_energy, self_consistent_energy

    units = EV_NM
    e = E_CHARGE_EV_NM
    oracle = bohr_energy(1, 1, units, e_charge=e).value
    U = EffectivePotential(HydrogenLike(Z=1, e_charge=e), l=0, units=units)
    closed = closed_form_energy(U, Ground())
    solved = self_consistent_energy(U, Ground(), signed=True).value
    return [ComparisonRow("1s", oracle, closed, solved)]


_COLUMNS = ("state", "oracle", "method_primary", "method_secondary", "abs_dev", "rel_dev")


def _row_values(row: ComparisonRow):
    return (
        row.state_label,
        row.oracle,
        row.method_primary,
        row.method_secondary,
        row.abs_dev,
        row.rel_dev,
    )


def render(
    rows: Sequence[ComparisonRow],
    format: str = "text",
    meta: Optional[dict] = None,
) -> bytes:
    """Serialize comparison rows; stable column order, LF line endings."""
    if format == "text":
        return _render_text(rows)
    if format == "csv":
        return _render_csv(rows)
    if format == "json":
        return _render_json(rows, meta)
    raise DomainError(f"unknown format {format!r}")


def _fmt6(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.6g}"


def _fmt_full(x: Optional[float]) -> str:
    return "" if x is None else repr(float(x))


def _render_text(rows: Sequence[ComparisonRow]) -> bytes:
    header = _COLUMNS
    table = [header] + [
        tuple(v if isinstance(v, str) else _fmt6(v) for v in _row_values(r)) for r in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = []
    for line in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return ("\n".join(lines) + "\n").encode()


def _render_csv(rows: Sequence[ComparisonRow]) -> bytes:
    lines = [",".join(_COLUMNS)]
    for r in rows:
        cells = [v if isinstance(v, str) else _fmt_full(v) for v in _row_values(r)]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _render_json(rows: Sequence[ComparisonRow], meta: Optional[dict]) -> bytes:
    import json

    payload = {
        "meta": {"version": __version__, **(meta or {})},
        "rows": [dict(zip(_COLUMNS, _row_values(r))) for r in rows],
    }
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def render_samples(
    samples: Sequence[SamplePoint],
    format: str = "csv",
    meta: Optional[dict] = None,
) -> bytes:
    """Serialize wavefunction samples; full float precision for round-trips."""
    flagged = any(s.in_inner_forbidden is not None for s in samples)
    if format == "csv":
        header = ["r", "value"]
        if flagged:
            header += ["imag", "inner_forbidden"]
        lines = [",".join(header)]
        for s in samples:
            cells = [repr(float(s.r)), repr(float(s.value))]
            if flagged:
                cells += [repr(float(s.imag)), "1" if s.in_inner_forbidden else "0"]
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode()
    if format == "json":
        import json

        payload = {
            "meta": {"version": __version__, **(meta or {})},
            "samples": [
                {
                    "r": s.r,
                    "value": s.value,
                    **(
                        {"imag": s.imag, "inner_forbidden": bool(s.in_inner_forbidden)}
                        if flagged
                        else {}
                    ),
                }
                for s in samples
            ],
        }
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()
    raise DomainError(f"unknown format {format!r}")

