"""The four benchmark workloads: seeded op streams, one op, and its check.

Every workload is a closed loop with one client: the next op starts only
when the previous one has returned. ``ops(seed)`` yields an endless,
deterministic stream of plain tuples, so the program receives only the
generated inputs. ``run(op)`` is the timed call into radialsolve and
``check(op, result)`` compares its result with ``reference`` and returns a
failure message or None.

Discrete choices (family, l, n, branch, parity, grid size) come from seeded
permutations that are cycled, so every run sees the same mix in equal
shares and only the order and the continuous parameters change with the
seed. This keeps ops/s comparable from one seed to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from typing import Iterator

import numpy as np

import radialsolve as rs
import radialsolve.cli as rs_cli

import reference as ref

BRANCHES = ("ground", "symmetric", "antisymmetric", "general")


class Cycler:
    """Endless seeded permutations of ``values``, reshuffled every pass."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.queue: list = []

    def __call__(self):
        if not self.queue:
            self.queue = self.values[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    # four decimals, so that CLI argv strings and in-process values agree
    return round(rng.uniform(lo, hi), 4)


def _branch(name: str, n: int):
    if name == "ground":
        return rs.Ground()
    if name == "symmetric":
        return rs.Symmetric(n)
    if name == "antisymmetric":
        return rs.Antisymmetric(n)
    return rs.General(n)


# constructor and parameter names of each potential family
FAMILIES = {
    "ho": ("IsotropicHO", ("omega",)),
    "hoso": ("HOSpinOrbit", ("omega", "j", "c0")),
    "well": ("InfiniteSphericalWell", ("L",)),
    "hydrogen": ("HydrogenLike", ("Z",)),
    "parabolic": ("Parabolic", ("a", "b", "c")),
}


def _params(family: str, values: tuple) -> dict:
    return dict(zip(FAMILIES[family][1], values))


def _potential(family: str, values: tuple, l: int):
    spec = getattr(rs, FAMILIES[family][0])(**_params(family, values))
    return rs.EffectivePotential(spec, l=l)


def _spin_j(rng: random.Random, l: int) -> float:
    return 0.5 if l == 0 else l + rng.choice((-0.5, 0.5))


# --------------------------------------------------------------------------
# spectra: one self_consistent_energy per op


class Spectra:
    """Root finder and turning points; no quadrature or oracle runs."""

    families = ("ho", "hoso", "well", "hydrogen", "parabolic")

    def ops(self, seed: int) -> Iterator[tuple]:
        rng = random.Random(seed)
        family = Cycler(rng, self.families)
        ells = {f: Cycler(rng, range(5)) for f in self.families}
        ns = {f: Cycler(rng, range(1, 5)) for f in self.families}
        branches = {f: Cycler(rng, BRANCHES) for f in self.families}
        while True:
            f = family()
            l, n, branch = ells[f](), ns[f](), branches[f]()
            if f in ("ho", "well"):
                params = (_uniform(rng, 0.5, 2.0),)
            elif f == "hoso":
                params = (_uniform(rng, 0.5, 2.0), _spin_j(rng, l), _uniform(rng, 0.0, 0.05))
            elif f == "hydrogen":
                params, branch = (rng.randint(1, 3),), "ground"
            else:
                params = tuple(_uniform(rng, 0.5, 2.0) for _ in range(3))
            yield (f, params, l, branch, n)

    def run(self, op):
        family, params, l, branch, n = op
        U = _potential(family, params, l)
        return rs.self_consistent_energy(U, _branch(branch, n), signed=family == "hydrogen")

    def check(self, op, level) -> str | None:
        family, params, l, branch, n = op
        return _check_level(family, params, l, branch, n, level)


def _check_level(family, params, l, branch, n, level) -> str | None:
    E = level.value
    if family == "parabolic":
        return _check_parabolic(params, l, E, level.d_at_solution, ref.branch_g(branch, n))
    want, tol = ref.closed_form_energy(family, l, branch, n, _params(family, params))
    if not ref.close(E, want, tol):
        return f"E = {E!r}, closed form {want!r}"
    return None


def _check_parabolic(params, l: int, E: float, d_solved: float, g: float) -> str | None:
    """U(r1) = U(r2) = E, d matches the solver, and E = g / d^2."""
    a, b, c = params
    try:
        r1, r2 = ref.parabolic_turning_points(a, b, c, l, E)
    except ValueError as exc:
        return str(exc)
    for r in (r1, r2) if r1 > 0 else (r2,):
        if not ref.close(ref.parabolic_U(a, b, c, l, r), E, ref.EXACT_REL):
            return f"U({r!r}) != E = {E!r}"
    d = r2 - r1
    if abs(d - d_solved) > ref.EXACT_REL * d:
        return f"d = {d_solved!r}, reference turning points give {d!r}"
    if not ref.close(E, g / d**2, ref.CLOSED_FORM_REL):
        return f"residual E - g/d^2 = {E - g / d**2!r}"
    return None


# --------------------------------------------------------------------------
# states: build_bound_state, normalize, sample_wavefunction per op


class States:
    """Quadrature and scalar potential calls: closed-form Q for ho and well,
    numeric Q (nested quadrature in normalize) for parabolic with l >= 1."""

    families = ("ho", "well", "parabolic")
    grid_sizes = (64, 128, 192, 256, 320, 384, 448, 512)

    def ops(self, seed: int) -> Iterator[tuple]:
        rng = random.Random(seed)
        family = Cycler(rng, self.families)
        ells = {f: Cycler(rng, range(1, 4) if f == "parabolic" else range(4)) for f in self.families}
        ns = {f: Cycler(rng, range(1, 4)) for f in self.families}
        parities = {f: Cycler(rng, ("symmetric", "antisymmetric")) for f in self.families}
        sizes = {f: Cycler(rng, self.grid_sizes) for f in self.families}
        while True:
            f = family()
            count = 3 if f == "parabolic" else 1
            params = tuple(_uniform(rng, 0.5, 2.0) for _ in range(count))
            yield (f, params, ells[f](), ns[f](), parities[f](), sizes[f]())

    def run(self, op):
        family, params, l, n, parity, size = op
        wf, level = rs.build_bound_state(_potential(family, params, l), n, parity)
        wf = rs.normalize(wf)
        r_lo = wf.tp.r1 if wf.tp.r1 > 0 else wf.tp.r2 * 1e-6
        grid = [float(r) for r in np.linspace(r_lo, wf.tp.r2, size)]
        return wf, level, rs.sample_wavefunction(wf, grid)

    def check(self, op, result) -> str | None:
        family, params, l, n, parity, size = op
        wf, level, samples = result
        # the branch of a state is named after its parity
        problem = _check_level(family, params, l, parity, n, level)
        if problem is not None:
            return problem
        if len(samples) != size:
            return f"{len(samples)} samples, asked for {size}"
        r = np.array([s.r for s in samples])
        R = np.array([s.value for s in samples])
        peak = float(np.max(np.abs(r * R)))
        residual = max(rs.boundary_residuals(wf))
        if not residual <= ref.RESIDUAL_REL * peak:
            return f"boundary residual {residual!r} > {ref.RESIDUAL_REL} * {peak!r}"
        norm = ref.gauss_legendre(lambda x: wf.radial_F(x) ** 2, wf.tp.r1, wf.tp.r2)
        return ref.check_state_samples(r, R, n, parity, wf.tp.r1 > 0, norm)


# --------------------------------------------------------------------------
# oracle: numerov_bound_state or bessel_zero per op


class Oracle:
    """The independent Numerov integrator, which no other workload calls."""

    kinds = ("ho", "well", "bessel")

    def ops(self, seed: int) -> Iterator[tuple]:
        rng = random.Random(seed)
        kind = Cycler(rng, self.kinds)
        ho_states = Cycler(rng, [(l, k) for l in range(3) for k in range(3)])
        well_states = Cycler(rng, [(l, n) for l in range(3) for n in (1, 2)])
        zeros = Cycler(rng, [(l, n) for l in range(7) for n in range(1, 6)])
        while True:
            k = kind()
            if k == "ho":
                # levels of one l are 2 omega apart: the bracket holds just one
                omega = _uniform(rng, 0.8, 1.25)
                l, nodes = ho_states()
                exact = ref.ho_level(omega, l, nodes)
                lo = exact - omega * _uniform(rng, 0.3, 1.5)
                hi = exact + omega * _uniform(rng, 0.3, 1.5)
                yield ("ho", omega, l, nodes, lo, hi)
            elif k == "well":
                L = _uniform(rng, 0.8, 1.25)
                l, n = well_states()
                exact = ref.well_level(L, l, n)
                lo = exact - _uniform(rng, 0.5, 3.0) / L**2
                hi = exact + _uniform(rng, 0.5, 3.0) / L**2
                yield ("well", L, l, n, lo, hi)
            else:
                yield ("bessel",) + zeros()

    def run(self, op):
        if op[0] == "bessel":
            return rs.bessel_zero(op[1], op[2])
        family, size, l, index, lo, hi = op
        nodes = index if family == "ho" else index - 1  # well states count n from 1
        return rs.numerov_bound_state(_potential(family, (size,), l), nodes, (lo, hi)).value

    def check(self, op, value) -> str | None:
        if op[0] == "bessel":
            want = ref.bessel_zero(op[1], op[2])
            ok = abs(value - want) <= ref.BESSEL_ABS
        elif op[0] == "ho":
            want = ref.ho_level(op[1], op[2], op[3])
            ok = abs(value - want) <= ref.NUMEROV_HO_REL * want
        else:
            want = ref.well_level(op[1], op[2], op[3])
            ok = abs(value - want) <= ref.NUMEROV_WELL_REL * want
        return None if ok else f"{value!r} vs reference {want!r}"


# --------------------------------------------------------------------------
# cli: one fresh `python -m radialsolve.cli` process per op

TABLE_IDS = ("part2_table1", "part2_table2", "part2_table3", "hydrogen")
FORMATS = ("text", "csv", "json")


class Cli:
    """Interpreter start-up and imports: every op is a cold CLI process.

    The seed draws a pool of distinct argv from the cheap verbs; the op
    stream walks seeded permutations of the pool, so each argv repeats and
    its output bytes can be compared with the first run's.
    """

    per_group = 8

    def __init__(self, root: str):
        self.root = root
        self.first_output: dict[tuple, bytes] = {}

    def pool(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        tables = [(t, f) for t in TABLE_IDS for f in FORMATS]
        rng.shuffle(tables)
        out = [("tables", "--which", t, "--format", f) for t, f in tables[: self.per_group]]
        fam = Cycler(rng, ("ho", "hoso", "well", "hydrogen"))
        for _ in range(self.per_group):
            out.append(self._spectrum_argv(rng, fam()))
        fam = Cycler(rng, ("ho", "well", "hydrogen", "parabolic"))
        for _ in range(self.per_group):
            out.append(self._turning_points_argv(rng, fam()))
        kind = Cycler(rng, ("bessel-zeros", "well", "ho"))
        for _ in range(self.per_group):
            out.append(self._oracle_argv(rng, kind()))
        fam = Cycler(rng, ("ho", "well"))
        for _ in range(self.per_group):
            f = fam()
            pot = f"ho:omega={_uniform(rng, 0.5, 2.0)}" if f == "ho" else f"well:L={_uniform(rng, 0.5, 2.0)}"
            out.append((
                "wavefunction", "--potential", pot, "--l", str(rng.randint(0, 2)),
                "--n", str(rng.randint(1, 3)),
                "--parity", rng.choice(("symmetric", "antisymmetric")),
                "--samples", str(rng.choice((192, 256, 384, 512))),
                "--format", rng.choice(("csv", "json")),
            ))
        return out

    @staticmethod
    def _spectrum_argv(rng, family):
        l = rng.randint(0, 3)
        if family == "ho":
            pot = f"ho:omega={_uniform(rng, 0.5, 2.0)}"
        elif family == "hoso":
            pot = f"hoso:omega={_uniform(rng, 0.5, 2.0)},j={_spin_j(rng, l)},s=0.5,c0={_uniform(rng, 0.0, 0.05)}"
        elif family == "well":
            pot = f"well:L={_uniform(rng, 0.5, 2.0)}"
        else:
            pot = f"hydrogen:Z={rng.randint(1, 3)}"
        branch = "ground" if family == "hydrogen" else rng.choice(BRANCHES)
        argv = ("spectrum", "--potential", pot, "--l", str(l), "--branch", branch,
                "--n", f"1:{rng.randint(1, 3)}", "--format", rng.choice(FORMATS))
        return argv + (("--signed",) if family == "hydrogen" else ())

    @staticmethod
    def _turning_points_argv(rng, family):
        l = rng.randint(0, 3)
        if family == "ho":
            omega = _uniform(rng, 0.5, 2.0)
            pot, energy = f"ho:omega={omega}", omega * (l + 1 + rng.uniform(0.5, 3.0))
        elif family == "well":
            L = _uniform(rng, 0.5, 2.0)
            pot, energy = f"well:L={L}", (0.5 * l * (l + 1) + rng.uniform(1.0, 20.0)) / L**2
        elif family == "hydrogen":
            Z = rng.randint(1, 3)
            floor = -0.5 * Z * Z / (l * (l + 1)) if l else -Z * Z
            pot, energy = f"hydrogen:Z={Z}", floor * rng.uniform(0.1, 0.9)
        else:
            a, b, c = (_uniform(rng, 0.5, 2.0) for _ in range(3))
            pot = f"parabolic:a={a},b={b},c={c}"
            energy = a + b + c + 0.5 * l * (l + 1) + rng.uniform(0.5, 3.0)
        return ("turning-points", "--potential", pot, "--l", str(l), "--energy", f"{energy:.6f}")

    @staticmethod
    def _oracle_argv(rng, kind):
        if kind == "bessel-zeros":
            return ("oracle", "bessel-zeros", "--l", str(rng.randint(0, 6)), "--n", f"1:{rng.randint(1, 5)}")
        if kind == "well":
            return ("oracle", "well", "--L", str(_uniform(rng, 0.5, 2.0)), "--l", str(rng.randint(0, 2)),
                    "--n", f"1:{rng.randint(1, 3)}")
        return ("oracle", "ho", "--omega", str(_uniform(rng, 0.5, 2.0)), "--l", str(rng.randint(0, 3)),
                "--n", f"0:{rng.randint(0, 3)}")

    def ops(self, seed: int) -> Iterator[tuple]:
        pool = self.pool(seed)
        order = Cycler(random.Random(seed + 1), range(len(pool)))
        while True:
            yield pool[order()]

    def run(self, op):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "radialsolve.cli", *op],
            cwd=self.root, env=env, capture_output=True, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, op):
        """cli.main(argv) in this interpreter, with stdout and stderr captured."""
        out, err = io.BytesIO(), io.StringIO()
        text = io.TextIOWrapper(out, encoding="utf-8")  # cli writes to its .buffer
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
            code = rs_cli.main(list(op))
        text.flush()
        return code, out.getvalue(), err.getvalue().encode()

    def check(self, op, result) -> str | None:
        code, stdout, stderr = result
        if code != 0 or stderr:
            return f"exit {code}: {stderr[-300:]!r}"
        first = self.first_output.setdefault(op, stdout)
        if first != stdout:
            return "output bytes differ from an earlier run of the same argv"
        try:
            return CLI_CHECKS[op[0]](op, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparsable output: {exc!r}"


def _option(op, name):
    return op[op.index(name) + 1]


def _n_range(text: str) -> list[int]:
    lo, _, hi = text.partition(":")
    return list(range(int(lo), int(hi or lo) + 1))


def _parse_rows(data: bytes, fmt: str) -> list[tuple]:
    """(state, oracle, method_primary, method_secondary) from rendered rows."""
    text = data.decode()
    if fmt == "json":
        return [(r["state"], r["oracle"], r["method_primary"], r["method_secondary"])
                for r in json.loads(text)["rows"]]
    lines = text.rstrip("\n").split("\n")
    if fmt == "csv":
        cells = [line.split(",") for line in lines[1:]]
    else:
        header = lines[0]
        starts = [header.index(col) for col in header.split()] + [None]
        cells = [[line[starts[i]:starts[i + 1]].strip() for i in range(len(starts) - 1)]
                 for line in lines[1:]]
    return [(c[0], float(c[1]), float(c[2]), float(c[3]) if c[3] else None) for c in cells]


def _table_reference(table: str) -> list[tuple]:
    """(oracle, primary, secondary) per row, in each table's reduced unit."""
    states = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))
    if table == "part2_table1":
        rows = []
        for n, l in states:
            a, g = math.sqrt(0.5 * l * (l + 1)), math.sqrt(ref.branch_g("general", n))
            rows.append((ref.bessel_zero(l, n) ** 2, 2 * (a + g) ** 2, 2 * (a - g) ** 2))
        return rows
    if table == "part2_table2":
        return [(2 * n + l + 1.5, ref.ho_energy(1.0, l, "general", n), None) for n, l in states]
    if table == "part2_table3":
        rows = []
        for l, j in ((2, 2.5), (3, 2.5), (3, 3.5), (4, 3.5), (4, 4.5)):
            shift = 0.5 * ref.SO_C0 * (j * (j + 1) - l * (l + 1) - 0.75)
            rows.append((l + 1.5 - shift, ref.hoso_energy(1.0, l, j, 0.5, ref.SO_C0, "general", 1), None))
        return rows
    return [(-ref.RYDBERG_EV, -ref.RYDBERG_EV, -ref.RYDBERG_EV)]


def _compare_rows(got: list[tuple], want: list[tuple], rel: float, last_rel: float) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for row, expected in zip(got, want):
        for i, (value, target) in enumerate(zip(row[1:], expected)):
            if target is None:
                continue
            tol = last_rel if i == 2 else rel
            if value is None or not ref.close(value, target, tol):
                return f"row {row[0]} column {i + 1}: {value!r} vs {target!r}"
    return None


def _potential_params(text: str) -> tuple[str, dict[str, float]]:
    name, _, rest = text.partition(":")
    return name, {k: float(v) for k, _, v in (item.partition("=") for item in rest.split(","))}


def _check_table(op, stdout: bytes) -> str | None:
    fmt, table = _option(op, "--format"), _option(op, "--which")
    rel = ref.TEXT_REL if fmt == "text" else ref.EXACT_REL
    # the hydrogen table's last column is the signed self-consistent solve
    last_rel = max(rel, ref.HYDROGEN_REL) if table == "hydrogen" else rel
    return _compare_rows(_parse_rows(stdout, fmt), _table_reference(table), rel, last_rel)


def _check_spectrum(op, stdout: bytes) -> str | None:
    fmt = _option(op, "--format")
    family, p = _potential_params(_option(op, "--potential"))
    l, branch = int(_option(op, "--l")), _option(op, "--branch")
    want = []
    for n in _n_range(_option(op, "--n")):
        energy, rel = ref.closed_form_energy(family, l, branch, n, p)
        want.append((energy, energy, None))
    if fmt == "text":
        rel = max(rel, ref.TEXT_REL)
    return _compare_rows(_parse_rows(stdout, fmt), want, rel, rel)


def _check_turning_points(op, stdout: bytes) -> str | None:
    values = dict(line.split("=", 1) for line in stdout.decode().splitlines())
    family, p = _potential_params(_option(op, "--potential"))
    l, E = int(_option(op, "--l")), float(_option(op, "--energy"))
    if family == "ho":
        want = ref.ho_turning_points(p["omega"], l, E)
    elif family == "well":
        want = ref.well_turning_points(p["L"], l, E)
    elif family == "hydrogen":
        want = ref.hydrogen_turning_points(int(p["Z"]), l, E)
    else:
        want = ref.parabolic_turning_points(p["a"], p["b"], p["c"], l, E)
    got = (float(values["r1"]), float(values["r2"]))
    if any(abs(g - w) > ref.EXACT_REL * want[1] for g, w in zip(got, want)):
        return f"turning points {got} vs {want}"
    return None


def _check_oracle(op, stdout: bytes) -> str | None:
    kind, l = op[1], int(_option(op, "--l"))
    for line, n in zip(stdout.decode().splitlines(), _n_range(_option(op, "--n")), strict=True):
        if kind == "bessel-zeros":
            if abs(float(line.split()[2]) - ref.bessel_zero(l, n)) > ref.BESSEL_ABS:
                return f"bessel zero line {line!r}"
            continue
        if kind == "well":
            want = ref.well_level(float(_option(op, "--L")), l, n)
        else:
            want = ref.ho_level(float(_option(op, "--omega")), l, n)
        if not ref.close(float(line.rsplit("E=", 1)[1]), want, ref.EXACT_REL):
            return f"oracle line {line!r} vs {want!r}"
    return None


def _check_wavefunction(op, stdout: bytes) -> str | None:
    text = stdout.decode()
    if _option(op, "--format") == "json":
        points = [(s["r"], s["value"]) for s in json.loads(text)["samples"]]
    else:
        points = [tuple(map(float, line.split(","))) for line in text.split("\n")[1:] if line]
    r, R = np.array(points).T
    if len(r) != int(_option(op, "--samples")):
        return f"{len(r)} samples"
    return ref.check_state_samples(
        r, R, int(_option(op, "--n")), _option(op, "--parity"), int(_option(op, "--l")) > 0
    )


CLI_CHECKS = {
    "tables": _check_table,
    "spectrum": _check_spectrum,
    "turning-points": _check_turning_points,
    "oracle": _check_oracle,
    "wavefunction": _check_wavefunction,
}


WORKLOADS = {"cli": Cli, "spectra": Spectra, "states": States, "oracle": Oracle}
