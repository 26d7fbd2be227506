"""Tests for table reproduction, serialization, and the command-line tool."""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialsolve.cli import main, parse_branch, parse_n_range, parse_potential, UsageError
from radialsolve.potentials import (
    EffectivePotential,
    HOSpinOrbit,
    HydrogenLike,
    InfiniteSphericalWell,
    IsotropicHO,
    UnitSystem,
)
from radialsolve.report import (
    TABLE_IDS,
    ComparisonRow,
    render,
    render_samples,
    reproduce_table,
)
from radialsolve.spectrum import General, Ground, closed_form_energy
from radialsolve.wavefunctions import SamplePoint

DATA = pathlib.Path(__file__).parent / "data"


class TestReproduceTables:
    def test_well_table_2s_row(self):
        rows = reproduce_table("part2_table1")
        row = {r.state_label: r for r in rows}["2s"]
        assert row.oracle == pytest.approx(39.476, abs=0.01)
        assert row.method_primary == pytest.approx(39.478, abs=0.01)
        assert row.method_secondary == pytest.approx(39.478, abs=0.01)

    def test_ho_table_2p_row(self):
        rows = reproduce_table("part2_table2")
        row = {r.state_label: r for r in rows}["2p"]
        assert row.oracle == pytest.approx(6.5, abs=1e-12)
        assert row.method_primary == pytest.approx(3.927, abs=0.001)
        assert row.method_secondary is None

    def test_spin_orbit_table_row(self):
        rows = reproduce_table("part2_table3")
        row = {r.state_label: r for r in rows}["1f_5/2"]
        assert row.oracle == pytest.approx(4.530, abs=0.001)
        assert row.method_primary == pytest.approx(4.096, abs=0.001)

    def test_hydrogen_row(self):
        (row,) = reproduce_table("hydrogen")
        assert row.state_label == "1s"
        assert row.oracle == pytest.approx(-13.6057, abs=0.001)
        assert row.method_primary == pytest.approx(row.oracle, rel=1e-6)
        assert row.method_secondary == pytest.approx(row.method_primary, rel=1e-6)

    def test_unknown_table_rejected(self):
        from radialsolve.errors import DomainError

        with pytest.raises(DomainError):
            reproduce_table("part9_table1")

    def test_reduced_units_are_unit_invariant(self):
        # every table reports in its reduced unit, so rescaling hbar and the
        # mass must leave the rows unchanged
        odd = UnitSystem(hbar=2.0, mass=3.0, label="odd")
        for table_id in ("part2_table1", "part2_table2", "part2_table3"):
            for a, b in zip(reproduce_table(table_id), reproduce_table(table_id, odd)):
                assert b.oracle == pytest.approx(a.oracle, rel=1e-10)
                assert b.method_primary == pytest.approx(a.method_primary, rel=1e-10)

    def test_no_hardcoding_under_parameter_changes(self):
        # the underlying formulas must track omega / L, not fixed table values
        def level(spec, units=UnitSystem()):
            return closed_form_energy(EffectivePotential(spec, l=1, units=units), General(1))

        plus_1 = level(InfiniteSphericalWell(1.0))
        plus_2 = level(InfiniteSphericalWell(2.0))
        # energies scale as 1/L^2 at fixed phase-area constant g
        assert plus_2 == pytest.approx(plus_1 / 4.0, rel=1e-12)
        e1 = level(IsotropicHO(1.0))
        e2 = level(IsotropicHO(1.7))
        assert e2 == pytest.approx(1.7 * e1, rel=1e-12)

    def test_hydrogen_tracks_hbar(self):
        def ground(units):
            return closed_form_energy(EffectivePotential(HydrogenLike(Z=1), l=0, units=units), Ground())

        base = ground(UnitSystem())
        scaled = ground(UnitSystem(hbar=2.0))
        assert scaled == pytest.approx(base / 4.0, rel=1e-12)


class TestRendering:
    def test_golden_text_fixture(self):
        expected = (DATA / "part2_table1.txt").read_bytes()
        assert render(reproduce_table("part2_table1"), "text") == expected

    def test_empty_csv_is_header_only(self):
        out = render([], "csv")
        assert out == b"state,oracle,method_primary,method_secondary,abs_dev,rel_dev\n"

    def test_json_round_trip_bit_identical(self):
        rows = [ComparisonRow("1s", 1.5, 1.49, None)]
        blob = render(rows, "json", meta={"table": "t"})
        again = render(rows_read_back(blob), "json", meta={"table": "t"})
        assert again == blob

    def test_deterministic_rendering(self):
        for fmt in ("text", "csv", "json"):
            a = render(reproduce_table("part2_table2"), fmt)
            b = render(reproduce_table("part2_table2"), fmt)
            assert a == b

    def test_unknown_format_rejected(self):
        from radialsolve.errors import DomainError

        with pytest.raises(DomainError):
            render([], "xml")

    def test_a_row_without_oracle_prints_empty_cells(self):
        row = ComparisonRow("general:1", None, 3.5, 1.2)
        assert row.abs_dev is None and row.rel_dev is None
        assert render([row], "csv").splitlines()[1] == b"general:1,,3.5,1.2,,"
        assert render([row], "text").splitlines()[1].split() == [b"general:1", b"3.5", b"1.2"]
        assert b'"oracle":null' in render([row], "json") and b'"rel_dev":null' in render([row], "json")

    def test_rel_dev_stays_relative_at_tiny_scales(self):
        assert ComparisonRow("x", 1e-150, 1.1e-150).rel_dev == pytest.approx(0.1, rel=1e-12)


class TestPotentialGrammar:
    def test_parse_each_family(self):
        assert parse_potential("hydrogen") == HydrogenLike(Z=1, e_charge=1.0)
        assert parse_potential("hydrogen:Z=2") == HydrogenLike(Z=2, e_charge=1.0)
        assert parse_potential("well:L=2.5") == InfiniteSphericalWell(L=2.5)
        assert parse_potential("ho:omega=1.5") == IsotropicHO(omega=1.5)
        hoso = parse_potential("hoso:omega=1,j=2.5,s=0.5,c0=0.015")
        assert hoso == HOSpinOrbit(omega=1.0, j=2.5, s=0.5, c0=0.015)

    def test_relativistic_coupling_keyword(self):
        hoso = parse_potential("hoso:omega=1,j=2.5,c0=relativistic")
        assert hoso.c0 is None

    def test_errors(self):
        with pytest.raises(UsageError):
            parse_potential("morse:D=1")
        with pytest.raises(UsageError):
            parse_potential("well")  # missing L
        with pytest.raises(UsageError):
            parse_potential("ho:omega=1,zeta=2")
        with pytest.raises(UsageError):
            parse_potential("ho:omega=abc")
        with pytest.raises(UsageError):
            parse_potential("ho:omega")

    def test_branch_and_range_parsing(self):
        assert parse_n_range("3") == [3]
        assert parse_n_range("2:5") == [2, 3, 4, 5]
        with pytest.raises(UsageError):
            parse_n_range("2:five")
        with pytest.raises(UsageError):
            parse_branch("chiral", 1)


class TestCli:
    def test_tables_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["tables", "--which", "part2_table1", "--format", "json", "--out", str(a)]) == 0
        assert main(["tables", "--which", "part2_table1", "--format", "json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tables_matches_golden_fixture(self, tmp_path):
        out = tmp_path / "t.txt"
        assert main(["tables", "--which", "part2_table1", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "part2_table1.txt").read_bytes()

    def test_turning_points_verb(self, tmp_path, capsys):
        out = tmp_path / "tp.txt"
        rc = main([
            "turning-points", "--potential", "well:L=1", "--l", "1",
            "--energy", "4", "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert "r1=0.5\n" in text
        assert "r2=1.0\n" in text

    def test_domain_error_exit_code(self, capsys):
        # energy below the potential minimum is a domain error, not a crash
        rc = main(["turning-points", "--potential", "ho:omega=1", "--l", "0", "--energy", "-1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        rc = main(["spectrum", "--potential", "morse:D=1"])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err

    def test_spectrum_range(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main([
            "spectrum", "--potential", "ho:omega=1", "--l", "0",
            "--branch", "general", "--n", "1:3", "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4  # header + three levels
        assert lines[1].startswith("general:1,")

    def test_wavefunction_verb(self, tmp_path):
        out = tmp_path / "wf.csv"
        rc = main([
            "wavefunction", "--potential", "ho:omega=1", "--l", "1",
            "--n", "1", "--parity", "symmetric", "--samples", "16", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,value"
        assert len(lines) == 17

    def test_oracle_bessel_verb(self, tmp_path):
        out = tmp_path / "z.txt"
        assert main(["oracle", "bessel-zeros", "--l", "0", "--n", "1:2", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert float(lines[0].split()[2]) == pytest.approx(math.pi, abs=1e-10)
        assert float(lines[1].split()[2]) == pytest.approx(2 * math.pi, abs=1e-10)

    def test_oracle_numerov_verb(self, tmp_path):
        out = tmp_path / "n.txt"
        rc = main([
            "oracle", "numerov", "--potential", "ho:omega=1", "--l", "0",
            "--nodes", "0", "--bracket", "1:2", "--out", str(out),
        ])
        assert rc == 0
        value = float(out.read_text().strip().rsplit("E=", 1)[1])
        assert value == pytest.approx(1.5, rel=1e-4)

    @pytest.mark.parametrize("bracket", ["1", "a:b", "1:2:3"])
    def test_oracle_numerov_bad_bracket_is_usage_error(self, bracket, capsys):
        rc = main(["oracle", "numerov", "--potential", "ho:omega=1", "--bracket", bracket])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["--potential", "hydrogen:Z=1", "--bracket=-0.6:-0.4"],
        ],
    )
    def test_oracle_numerov_domain_errors(self, args, capsys):
        rc = main(["oracle", "numerov", *args])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["turning-points", "--potential", "ho:omega=1", "--energy", "nan"],
            ["turning-points", "--potential", "ho:omega=1", "--energy", "inf"],
            ["turning-points", "--potential", "ho:omega=1", "--energy=-inf"],
            ["turning-points", "--potential", "parabolic:a=1,b=1,c=1", "--l", "1", "--energy", "nan"],
            ["spectrum", "--potential", "ho:omega=1e-300"],
            ["spectrum", "--potential", "hoso:omega=1e-300,j=2.5,c0=0.015", "--l", "2"],
            ["spectrum", "--potential", "ho:omega=1e-160", "--l", "1"],
            ["spectrum", "--potential", "ho:omega=1e200", "--l", "1"],
            ["spectrum", "--potential", "hoso:omega=1e200,j=1.5,c0=0.015", "--l", "1"],
        ],
    )
    def test_non_finite_and_underflowing_inputs_are_domain_errors(self, args, capsys):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--potential", "ho:omega=1", "--n", "abc"],
            ["spectrum", "--potential", "ho:omega=1", "--n", "1:x"],
            ["oracle", "bessel-zeros", "--l", "1", "--n", "abc"],
            ["wavefunction", "--potential", "ho:omega=1", "--samples", "-3"],
        ],
    )
    def test_malformed_integers_are_usage_errors(self, args, capsys):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("format=json\n")
        out = tmp_path / "o"
        rc = main([
            "tables", "--which", "part2_table2", "--config", str(cfg), "--out", str(out),
        ])
        assert rc == 0
        assert out.read_bytes().startswith(b"{")

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("format=json\n")
        out = tmp_path / "o"
        rc = main([
            "tables", "--which", "part2_table2", "--format", "csv",
            "--config", str(cfg), "--out", str(out),
        ])
        assert rc == 0
        assert out.read_bytes().startswith(b"state,oracle")

    # r1 = 0.723 for l = 2 and 0.411 for the config's l = 1
    @pytest.mark.parametrize(
        "flag, r1", [(["--l=2"], "0.723"), (["--l", "2"], "0.723"), ([], "0.411")]
    )
    def test_explicit_flag_beats_config_in_both_spellings(self, flag, r1, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("l=1\n")
        out = tmp_path / "o"
        rc = main([
            "turning-points", "--potential", "ho:omega=1", "--energy", "6",
            "--config", str(cfg), *flag, "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith(f"r1={r1}")

    def test_config_rejects_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("turbo=yes\n")
        assert main(["tables", "--which", "part2_table1", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_config_rejects_bad_choice(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("format=xml\n")
        assert main(["tables", "--which", "part2_table1", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_config_value_is_checked_even_where_a_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("format=xml\n")
        argv = ["tables", "--which", "part2_table1", "--format", "csv", "--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "usage error: config value for 'format' must be one of ['text', 'csv', 'json']\n"

    def test_unreadable_config_is_a_usage_error(self, tmp_path, capsys):
        argv = ["tables", "--which", "part2_table1", "--config", str(tmp_path / "missing")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot read config file:") and err.count("\n") == 1

    def test_units_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RADIALSOLVE_UNITS", "eV-nm")
        out = tmp_path / "o.json"
        rc = main(["tables", "--which", "part2_table2", "--format", "json", "--out", str(out)])
        assert rc == 0
        assert b'"units":"eV-nm"' in out.read_bytes()

    def test_units_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RADIALSOLVE_UNITS", "eV-nm")
        out = tmp_path / "o.json"
        rc = main([
            "tables", "--which", "part2_table2", "--format", "json",
            "--units", "natural", "--out", str(out),
        ])
        assert rc == 0
        assert b'"units":"natural"' in out.read_bytes()

    def test_bad_units_env(self, monkeypatch, capsys):
        monkeypatch.setenv("RADIALSOLVE_UNITS", "imperial")
        assert main(["tables", "--which", "part2_table1"]) == 2
        capsys.readouterr()

    def test_all_tables_render(self, tmp_path):
        for table_id in TABLE_IDS:
            out = tmp_path / f"{table_id}.txt"
            assert main(["tables", "--which", table_id, "--out", str(out)]) == 0
            assert out.read_bytes().startswith(b"state")


# ---------------------------------------------------------------- round trips

#: subnormal, signed zero, the largest finite and the infinite values
EXTREMES = [1e-320, 5e-324, 0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf]
VALUE = st.sampled_from(EXTREMES) | st.floats(allow_nan=False)
SAMPLE = st.builds(SamplePoint, VALUE, VALUE)
ROW = st.builds(
    ComparisonRow, st.sampled_from(["1s", "2p", "general:3"]), VALUE, VALUE, st.none() | VALUE
)


def rows_read_back(blob: bytes) -> list[ComparisonRow]:
    """The rows of a rendered JSON table, parsed with ``json.loads``."""
    return [
        ComparisonRow(r["state"], r["oracle"], r["method_primary"], r["method_secondary"])
        for r in json.loads(blob)["rows"]
    ]


def samples_read_back(blob: bytes) -> list[SamplePoint]:
    """The samples of a rendered CSV, parsed with ``float``."""
    header, *lines = blob.decode().splitlines()
    assert header == "r,value"
    cells = [line.split(",") for line in lines]
    return [SamplePoint(float(r), float(v)) for r, v in cells]


def sample_bits(samples) -> list[str]:
    """repr of every field: equal lists mean equal floats with equal signs of zero."""
    return [repr(v) for p in samples for v in p]


def row_bits(rows) -> list[str]:
    return [repr(v) for r in rows for v in (r.state_label, r.oracle, r.method_primary, r.method_secondary)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(samples=st.lists(SAMPLE, max_size=6))
def test_samples_round_trip_through_csv(samples):
    again = samples_read_back(render_samples(samples, "csv"))
    assert again == samples
    assert sample_bits(again) == sample_bits(samples)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=st.lists(ROW, max_size=6))
def test_rows_round_trip_through_json(rows):
    again = rows_read_back(render(rows, "json", meta={"table": "t"}))
    assert row_bits(again) == row_bits(rows)
