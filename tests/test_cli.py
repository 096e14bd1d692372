import ast
import contextlib
import errno
import functools
import importlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import argparse_reference

import lvalley
from lvalley import (
    InfeasibleError,
    SolverError,
    Valley,
    bulk_energy,
    cli,
    confinement_energies,
    default_params,
    solve_well,
)
from lvalley.cli import MAX_GRID_POINTS, UsageError, format_number, make_grid, run
from lvalley.overrides import apply_override, override_keys, read_config

PARAMS = default_params()
# the tree whose lvalley these tests imported, for subprocesses to import too
SRC = str(Path(lvalley.__file__).resolve().parents[1])


def read_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [r.split(",") for r in rows]


# --- helpers ----------------------------------------------------------------

def test_format_number():
    assert format_number(3.0) == "3.0"
    assert format_number(0.03875869855284691) == "0.0387586986"
    assert format_number(0.0388) == "0.0388"
    assert format_number(-2.0) == "-2.0"
    assert format_number(True) == "1"
    assert format_number(False) == "0"
    assert format_number(12) == "12"
    assert "e" in format_number(1.5e-12)


def test_make_grid():
    assert make_grid(1.0, 2.0, 0.5, "g") == [1.0, 1.5, 2.0]
    assert make_grid(3.0, 3.0, 1.0, "g") == [3.0]
    with pytest.raises(UsageError):
        make_grid(1.0, 2.0, 0.0, "g")
    with pytest.raises(UsageError):
        make_grid(2.0, 1.0, 0.5, "g")


def test_a_grid_error_names_its_numbers_to_nine_digits(capsys):
    # to six digits, 50.0000001 read as 50: "max 50 is below min 50"
    assert run(["crossover", "--t-min", "50.0000001", "--t-max", "50", "--out", "-"]) == 2
    assert capsys.readouterr().err == "error: --t-min/--t-max/--t-step: max 50 is below min 50.0000001\n"
    with pytest.raises(UsageError, match=r"^g: step must be > 0, got -0\.1234567$"):
        make_grid(1.0, 2.0, -0.1234567, "g")
    with pytest.raises(UsageError, match=r"^g: max 1 is below min 2$"):
        make_grid(2.0, 1.0, 0.5, "g")


def test_make_grid_rejects_non_finite_and_caps_points():
    for bad in (math.inf, -math.inf, math.nan):
        for args in ((bad, 2.0, 0.5), (1.0, bad, 0.5), (1.0, 2.0, bad)):
            with pytest.raises(UsageError, match="finite"):
                make_grid(*args, "g")
    assert len(make_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0, "g")) == MAX_GRID_POINTS
    with pytest.raises(UsageError, match="more than"):
        make_grid(0.0, float(MAX_GRID_POINTS), 1.0, "g")
    with pytest.raises(UsageError, match="more than"):
        make_grid(1.0, 10.0, 1e-300, "g")
    with pytest.raises(UsageError, match="more than"):  # hi - lo overflows
        make_grid(-1e308, 1e308, 1.0, "g")


def test_grid_ends_at_its_max(capsys):
    # 1 + 700 * 0.07 rounds to 50.00000000000001, outside the supported thickness range
    grid = make_grid(1.0, 50.0, 0.07, "t")
    assert len(grid) == 701 and grid[-1] == 50.0 and max(grid) == 50.0
    assert grid[:-1] == [1.0 + i * 0.07 for i in range(700)]
    for command in ("crossover", "sensitivity"):
        argv = [command, "--t-min", "1", "--t-max", "50", "--t-step", "0.07", "--out", "-"]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].startswith("50.0,")


def test_apply_override_paths():
    p = apply_override(PARAMS, "deformation.xi_u_L", "17.0")
    assert p.deformation.xi_u_L == 17.0
    p = apply_override(PARAMS, "masses.L3.m_in", "0.2")
    assert p.masses_l3.m_in == 0.2
    p = apply_override(PARAMS, "deformation.set", "fischetti1996")
    assert p.deformation.source_label == "fischetti1996"
    with pytest.raises(UsageError, match="valid keys"):
        apply_override(PARAMS, "nonsense.key", "1.0")
    with pytest.raises(UsageError, match="not a number"):
        apply_override(PARAMS, "elastic.c11", "abc")
    # invariant-violating overrides surface as usage errors, not crashes
    with pytest.raises(UsageError):
        apply_override(PARAMS, "elastic.c11", "10.0")


def test_override_keys_inventory():
    assert override_keys(PARAMS) == [
        "deformation.set",
        "elastic.c11", "elastic.c12", "elastic.c44",
        "deformation.xi_u_delta", "deformation.xi_d_delta",
        "deformation.xi_u_L", "deformation.xi_d_L",
        "quadratic.d_L1", "quadratic.d_L3", "quadratic.d_delta6",
        "lattice.a_si", "lattice.a_ge", "lattice.bowing_b",
        "bands.e0_L", "bands.e0_delta", "bands.v0_offset_111",
        "constants.hbar2_over_2m0", "constants.burgers_si",
        "masses.L1.m_in", "masses.L3.m_in", "masses.Delta6.m_in", "masses.m_out",
    ]


def _read_key(params, key):
    """The value a numeric override key sets, read back through the records."""
    *path, field = key.split(".")
    if path[0] != "masses":
        return getattr(getattr(params, path[0]), field)
    (value,) = {getattr(params.masses(v), field) for v in Valley if path[1:] in ([], [v.value])}
    return value


def test_every_override_key_round_trips():
    keys = override_keys(PARAMS)[1:]
    for key in keys:
        value = _read_key(PARAMS, key)
        assert apply_override(PARAMS, key, repr(value)) == PARAMS, key
        nudged = apply_override(PARAMS, key, repr(value * 1.0005))
        assert _read_key(nudged, key) == value * 1.0005, key
        assert [k for k in keys if _read_key(nudged, k) != _read_key(PARAMS, k)] == [key]
    # the key is looked up before its value is parsed
    with pytest.raises(UsageError, match="unknown override key 'nosuch.key'; valid keys: "):
        apply_override(PARAMS, "nosuch.key", "abc")


def test_barrier_mass_override_sets_every_valley(capsys):
    assert run(["well", "--t", "3", "--out", "-"]) == 0
    base = capsys.readouterr().out
    assert run(["well", "--t", "3", "--set", "masses.m_out=1.7", "--out", "-"]) == 0
    heavier = capsys.readouterr().out
    assert heavier != base
    p = apply_override(PARAMS, "masses.m_out", "1.7")
    assert p.masses_l1.m_out == p.masses_l3.m_out == p.masses_delta6.m_out == 1.7
    # per-valley barrier masses would break the shared-barrier invariant
    with pytest.raises(UsageError, match="valid keys"):
        apply_override(PARAMS, "masses.L1.m_out", "1.6")


def test_read_config(tmp_path):
    cfg = tmp_path / "p.conf"
    cfg.write_text("# comment\ndeformation.xi_u_L = 16.5\n\nlattice.a_si=5.43 # inline\n")
    assert read_config(cfg) == [("deformation.xi_u_L", "16.5"), ("lattice.a_si", "5.43")]
    bad = tmp_path / "bad.conf"
    bad.write_text("no equals sign here\n")
    with pytest.raises(UsageError, match="key = value"):
        read_config(bad)
    # the file is read as UTF-8 whatever the locale; other bytes are a usage error
    cfg.write_bytes("deformation.xi_u_L = 16.5 # \u00b1 0.5\n".encode())
    assert read_config(cfg) == [("deformation.xi_u_L", "16.5")]
    bad.write_bytes(b"deformation.xi_u_L = 16.5\n\xff\xfe\n")
    with pytest.raises(UsageError, match=r"cannot read config file .*bad\.conf: invalid UTF-8 at byte 26"):
        read_config(bad)


def test_config_file_with_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.conf"
    cfg.write_bytes(b"\xef\xbb\xbfdeformation.xi_u_L = 16.5\n")
    assert read_config(cfg) == [("deformation.xi_u_L", "16.5")]
    assert run(["splitting", "--t", "3", "--x", "1", "--config", str(cfg), "--out", "-"]) == 0
    assert capsys.readouterr().err == ""
    # a bad byte is still reported at its offset in the file, the BOM counted
    cfg.write_bytes(b"\xef\xbb\xbfdeformation.xi_u_L = 16.5\n\xff\n")
    with pytest.raises(UsageError, match=r"bom\.conf: invalid UTF-8 at byte 29$"):
        read_config(cfg)


# --- commands -----------------------------------------------------------------

def test_crossover_command(tmp_path):
    out = tmp_path / "c.csv"
    rc = run(["crossover", "--t-min", "1", "--t-max", "10", "--t-step", "0.5", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["t_nm", "eps_critical", "x_critical"]
    assert len(rows) == 19
    by_t = {r[0]: r for r in rows}
    assert abs(float(by_t["3.0"][1]) - 0.0388) < 5e-4
    assert abs(float(by_t["3.0"][2]) - 0.935) < 2e-3


def test_well_single_row(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["well", "--valley", "Delta6", "--t", "3", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["t_nm", "e_q_ev"]
    assert rows[0][0] == "3.0"
    assert abs(float(rows[0][1]) - 0.040) < 2e-3


def test_well_without_valley_has_one_column_per_valley(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["well", "--t-min", "2", "--t-max", "4", "--t-step", "1", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["t_nm", "e_q_l1_ev", "e_q_l3_ev", "e_q_delta6_ev"]
    for col, valley in enumerate(("L1", "L3", "Delta6"), start=1):
        one = tmp_path / f"{valley}.csv"
        assert run(["well", "--valley", valley, "--t-min", "2", "--t-max", "4",
                    "--t-step", "1", "--out", str(one)]) == 0
        _, single = read_rows(one)
        assert [r[col] for r in rows] == [r[1] for r in single]


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_single_valley_rows_are_the_all_valley_columns(tmp_path, fmt):
    grid = ["--t-min", "0.5", "--t-max", "50", "--t-step", "0.5", "--format", fmt]

    def cells(path):
        # the printed text of every cell, so the columns compare byte for byte
        lines = path.read_text().splitlines()
        if fmt == "csv":
            return [line.split(",") for line in lines[1:]]
        return [list(json.loads(line, parse_float=str).values()) for line in lines]

    every = tmp_path / "all"
    assert run(["well", *grid, "--out", str(every)]) == 0
    table = cells(every)
    assert len(table) == 100
    for col, valley in enumerate(("L1", "L3", "Delta6"), start=1):
        one = tmp_path / valley
        assert run(["well", "--valley", valley, *grid, "--out", str(one)]) == 0
        assert [row[1] for row in cells(one)] == [row[col] for row in table]
        # and every bit of the floats behind the printed digits
        ns = cli._parse(["well", "--valley", valley, *grid])
        _, rows = ns.rows(PARAMS, ns)
        assert repr([e for _, e in rows]) == repr(
            [confinement_energies(PARAMS, t)[col - 1] for t, _ in rows]
        )


def test_each_valley_fails_alone_where_only_the_l1_level_is_unresolved(capsys):
    # at 5e12 nm the heavy L1 level lies within 1e-12 of its hard-wall
    # level, while the light L3 and Delta6 levels still resolve
    v0, k = PARAMS.bands.v0_offset_111, PARAMS.constants.hbar2_over_2m0
    with pytest.raises(InfeasibleError) as l1:
        solve_well(5e12, v0, PARAMS.masses_l1.m_in, PARAMS.masses_l1.m_out, k)
    assert l1.value.reason == "hard_wall_limit"
    for argv in (["--valley", "L1"], []):
        assert run(["well", *argv, "--t", "5e12", "--out", "-"]) == 1
        assert capsys.readouterr() == ("", f"error: t = 5e+12 nm: {l1.value}\n")
    for valley in ("L3", "Delta6"):
        m = PARAMS.masses(Valley(valley))
        energy = solve_well(5e12, v0, m.m_in, m.m_out, k)[0]
        assert run(["well", "--valley", valley, "--t", "5e12", "--out", "-"]) == 0
        assert capsys.readouterr() == (f"t_nm,e_q_ev\n5e+12,{format_number(energy)}\n", "")
        ns = cli._parse(["well", "--valley", valley, "--t", "5e12"])
        assert repr(ns.rows(PARAMS, ns)[1]) == repr([(5e12, energy)])


def test_hc_command(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["hc", "--x-min", "0.5", "--x-max", "1.0", "--x-step", "0.01", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["x", "f", "nu_111", "h_c_nm"]
    assert len(rows) == 51
    hc = [float(r[3]) for r in rows]
    assert all(b < a for a, b in zip(hc, hc[1:]))


def test_version_is_the_one_in_pyproject():
    # a regex, because Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    [version] = re.findall(r'^version = "([^"]+)"$', text, flags=re.M)
    assert version == lvalley.__version__


def test_energy_and_splitting_commands(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["energy", "--t", "3", "--eps", "0.0388", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["eps_par", "e_l1_ev", "e_l3_ev", "e_delta6_ev"]
    assert abs(float(rows[0][1]) - float(rows[0][3])) < 3e-3

    # a Ge fraction picks the equivalent strain through the Vegard mapping
    out_x = tmp_path / "ex.csv"
    assert run(["energy", "--t", "3", "--x", "0.935", "--out", str(out_x)]) == 0
    _, rows_x = read_rows(out_x)
    assert abs(float(rows_x[0][0]) - 0.0387) < 5e-4

    out2 = tmp_path / "s.csv"
    assert run(["splitting", "--t", "3", "--x", "1", "--out", str(out2)]) == 0
    _, rows2 = read_rows(out2)
    assert abs(float(rows2[0][2]) * 1e3 - 72.1) < 2.0


@pytest.mark.parametrize("fig", ("fig2", "fig3"))
@pytest.mark.parametrize(
    "dp_set, sets", ((None, []), ("fischetti1996", ["quadratic.d_L1=-20"]))
)
def test_energy_rows_are_the_bulk_totals_plus_confinement(fig, dp_set, sets):
    # the float route of the energy rows gives every bit of the record route
    params = cli.resolve_params(None, dp_set, sets)
    ns = cli._parse(cli.FIGURES[fig])
    _, rows = ns.rows(params, ns)
    eqs = confinement_energies(params, ns.t)
    assert len(rows) == 501
    for eps, *levels in rows:
        expected = [bulk_energy(v, params, eps) + eq for v, eq in zip(Valley, eqs)]
        assert repr(levels) == repr(expected)


def test_sensitivity_command(tmp_path):
    out = tmp_path / "sens.csv"
    rc = run([
        "sensitivity", "--mode", "quadratic_range",
        "--t-min", "2", "--t-max", "4", "--t-step", "1", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["t_nm", "x_low", "x_nominal", "x_high", "clipped"]
    for r in rows:
        assert float(r[1]) <= float(r[2]) <= float(r[3])
        assert r[4] == "0"


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["crossover", "--t-min", "1", "--t-max", "5", "--t-step", "1"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_file_gets_the_mode_open_would_give(tmp_path, umask):
    new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
    existing.write_text("old\n")
    os.chmod(existing, 0o640)
    args = ["splitting", "--t", "3", "--x", "1", "--out"]
    saved = os.umask(umask)
    try:
        assert run(args + [str(new)]) == 0
        assert run(args + [str(existing)]) == 0
    finally:
        os.umask(saved)
    # a new file gets 0o666 less the umask, an overwritten one keeps its mode
    assert new.stat().st_mode & 0o777 == 0o666 & ~umask
    assert existing.stat().st_mode & 0o777 == 0o640
    assert existing.read_bytes() == new.read_bytes()


def test_symlink_out_writes_its_target_and_keeps_the_link(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    args = ["hc", "--x", "0.9", "--out"]
    assert run(args + ["-"]) == 0
    expected = capsys.readouterr().out
    assert run(args + [str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == expected
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_fifo_out_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    args = ["hc", "--x", "0.9", "--out"]
    assert run(args + ["-"]) == 0
    expected = capsys.readouterr().out
    got = []

    def read():
        with open(fifo) as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert run(args + [str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["out.fifo"]


def test_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # reading the umask means setting it, which races any thread that creates a file
    def refuse(mask):
        raise AssertionError("os.umask called")

    new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
    existing.write_text("old\n")
    monkeypatch.setattr(os, "umask", refuse)
    args = ["splitting", "--t", "3", "--x", "1", "--out"]
    assert run(args + [str(new)]) == 0
    assert run(args + [str(existing)]) == 0
    assert new.read_bytes() == existing.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["existing.csv", "new.csv"]


def test_json_lines_format(tmp_path):
    out = tmp_path / "w.jsonl"
    assert run(["well", "--valley", "L1", "--t", "3", "--format", "json-lines", "--out", str(out)]) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["t_nm"] == 3.0
    assert rec["e_q_ev"] == pytest.approx(0.0175, abs=1e-3)


def test_stdout_output(capsys):
    assert run(["well", "--valley", "L1", "--t", "3", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("t_nm,e_q_ev\n3.0,")


def test_default_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LVALLEY_OUTDIR", str(tmp_path))
    assert run(["well", "--valley", "L1", "--t", "3"]) == 0
    assert (tmp_path / "well.csv").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "ov.conf"
    cfg.write_text("deformation.xi_u_L = 17.0\n")
    base, from_file, flag_wins = (tmp_path / n for n in ("base.csv", "file.csv", "flag.csv"))
    assert run(["crossover", "--t", "3", "--out", str(base)]) == 0
    assert run(["crossover", "--t", "3", "--config", str(cfg), "--out", str(from_file)]) == 0
    assert run([
        "crossover", "--t", "3", "--config", str(cfg),
        "--set", "deformation.xi_u_L=16.14", "--out", str(flag_wins),
    ]) == 0
    assert from_file.read_bytes() != base.read_bytes()
    assert flag_wins.read_bytes() == base.read_bytes()


def test_dp_set_changes_result(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["crossover", "--t", "3", "--out", str(a)]) == 0
    assert run(["crossover", "--t", "3", "--dp-set", "fischetti1996", "--out", str(b)]) == 0
    xa = float(read_rows(a)[1][0][2])
    xb = float(read_rows(b)[1][0][2])
    assert xb < xa  # stronger potentials cross earlier


# --- each command line's exact outcome -------------------------------------------

def _error(argv, status, message, id):
    return pytest.param(argv, status, "", f"error: {message}\n", id=id)


_RANGE = "outside the supported range [0.5, 50.0] nm"
_T02 = f"t = 0.2 nm: thickness 0.2 nm {_RANGE}"
_POSITIVE = "well thickness must be positive and finite"
_GRID = "--{0}-min/--{0}-max/--{0}-step: min, max and step must be finite numbers"
_FIGURE_ID = ("unknown figure id '{}'; valid ids: fig1, fig2, fig3, fig4, fig5, fig7, fig8, fig9, fig10 "
              "(fig6 is a schematic with no computed curve)")
_VEGARD = "override 'lattice.a_ge' = 1e200: lattice parameters overflow the Vegard discriminant"
_ROOTLESS = "no critical-thickness root: misfit {} too large for the energy-balance relation"
_UNBOUNDED = ("x = 0.94: misfit 0.03929 with [111] Poisson ratio {} makes the prefactor A of the energy "
              "balance overflow: the critical thickness is unbounded")
_MASS_RATIO = ("t = 3 nm: a 3 nm well with masses m_in = {} and m_out = {} m0 under a 0.28 eV barrier has a "
               "mass ratio m_in/m_out too small for double precision to solve; use physical effective masses")
_THIN = ("t = 1e-09 nm: a 1e-09 nm well under a 0.28 eV barrier binds its ground state by only 2.9e-18 of "
         "the barrier height, below the 1e-12 that double precision resolves; use a thicker well or a "
         "higher barrier")
_WIDE = ("t = {0} nm: the level of a {0} nm well under a 0.28 eV barrier lies only {1} below the hard-wall "
         "level pi^2 hbar^2 / (2 m_in t^2), closer than the 1e-12 that double precision resolves; use the "
         "hard-wall level")
_STRAIN = "|eps_par| = {} exceeds the supported range 0.1 of the quadratic coefficients"
_X_ABOVE_1 = "t = {} nm: strain {} exceeds the pure-Ge value 0.0417626: requires x > 1"
_CROSSOVER = "t_nm,eps_critical,x_critical\n"

# Each command line's exact outcome: (argv split at spaces, exit status, stdout, stderr), {tmp}
# a directory that holds p.conf (CONF) and bad.conf and gets no file.  A new command line is a row.
RUN_CASES = [
    # a malformed command line: exit 2 and one line, before any point is computed
    _error("crossover --bogus-flag", 2, "crossover: unrecognized arguments: --bogus-flag", "unknown-flag"),
    _error("crossover --t 3 --out - --", 2,
           "a bare -- is not accepted; give each flag as --flag value or --flag=value", "bare-dashes"),
    _error("crossover --t-min 5 --t-max 1 --t-step 1 --out {tmp}/x.csv", 2,
           "--t-min/--t-max/--t-step: max 1 is below min 5", "empty-grid"),
    _error("hc --x-max inf --out -", 2, _GRID.format("x"), "infinite-grid-max"),
    _error("well --valley L1 --t-step nan --out -", 2, _GRID.format("t"), "nan-grid-step"),
    _error("energy --t 3 --x 1.0 --eps 0.01 --out -", 2, "give either --eps or --x, not both", "eps-and-x"),
    _error("figure --id fig6 --out {tmp}/x.csv", 2, _FIGURE_ID.format("fig6"), "figure-schematic"),
    _error("figure --id fig99 --out {tmp}/x.csv", 2, _FIGURE_ID.format("fig99"), "figure-unknown"),
    # a bad override key, value, set or file is a usage error that names it
    _error("crossover --t 3 --set bad.key=1 --out {tmp}/y.csv", 2,
           f"unknown override key 'bad.key'; valid keys: {', '.join(override_keys(PARAMS))}", "unknown-key"),
    _error("crossover --t 3 --set foo --out -", 2, "--set expects key=value, got 'foo'", "set-no-equals"),
    _error("crossover --t 3 --config {tmp}/missing.cfg --out -", 2,
           "cannot read config file {tmp}/missing.cfg: " + os.strerror(errno.ENOENT), "config-missing"),
    _error("crossover --t 3 --config {tmp} --out -", 2,
           "cannot read config file {tmp}: " + os.strerror(errno.EISDIR), "config-directory"),
    _error("crossover --t 3 --set masses.L1.m_in=-1 --out -", 2,
           "override 'masses.L1.m_in' = -1: effective masses must be strictly positive", "negative-mass"),
    _error("crossover --t 3 --config {tmp}/bad.conf --out -", 2,
           "override 'masses.m_out' = 0: effective masses must be strictly positive", "config-zero-mass"),
    _error("crossover --t 3 --dp-set bogus --out -", 2,
           "override 'deformation.set' = bogus: unknown deformation-potential set 'bogus'; valid labels: "
           "fischetti1996, friedel1989, rideau2006, vandewalle1986", "unknown-dp-set"),
    _error("hc --x 0.94 --set elastic.c44=-1 --out {tmp}/y.csv", 2,
           "override 'elastic.c44' = -1: elastic constants must be strictly positive", "negative-c44"),
    _error("crossover --t 3 --set deformation.xi_d_L=nan --out -", 2,
           "override 'deformation.xi_d_L' = nan: deformation potentials must be finite", "nan-potential"),
    _error("splitting --t 3 --x 0.95 --set lattice.a_si=0 --out -", 2,
           "override 'lattice.a_si' = 0: a_si must be positive and a_ge must exceed it", "zero-a-si"),
    _error("crossover --t 3 --set lattice.a_ge=1e200 --out -", 2, _VEGARD, "crossover-vegard-overflow"),
    _error("sensitivity --t 3 --set lattice.a_ge=1e200 --out -", 2, _VEGARD, "sensitivity-vegard-overflow"),
    pytest.param("crossover --t 3 --config {tmp}/p.conf --out -", 0,
                 _CROSSOVER + "3.0,0.0386281658,0.932521342\n", "", id="config"),
    # a sweep writes its good rows and warns once per failed point, named to nine digits;
    # when every point fails it exits 1 with the first failure, the same line for each command
    pytest.param("crossover --t-min 0.2 --t-max 1.0 --t-step 0.4 --out -", 0,
                 _CROSSOVER + "0.6,0.0389032485,0.938483116\n1.0,0.0384928928,0.929586773\n",
                 f"warning: {_T02}\n", id="crossover-warns"),
    _error("crossover --t 0.2 --out -", 1, _T02, "crossover-fails"),
    _error("sensitivity --t 0.2 --out -", 1, _T02, "sensitivity-fails"),
    _error("crossover --t 99 --out {tmp}/x.csv", 1, f"t = 99 nm: thickness 99.0 nm {_RANGE}", "too-thick"),
    pytest.param("crossover --t-min 49.9999998 --t-max 50.0000004 --t-step 0.0000002 --out -", 0,
                 _CROSSOVER + "49.9999998,0.0396740337,0.955147002\n50.0,0.0396740337,0.955147002\n",
                 f"warning: t = 50.0000002 nm: thickness 50.000000199999995 nm {_RANGE}\n"
                 f"warning: t = 50.0000004 nm: thickness 50.0000004 nm {_RANGE}\n", id="nine-digit-labels"),
    pytest.param("well --t-min 0 --t-max 3 --t-step 1 --out -", 0,
                 "t_nm,e_q_l1_ev,e_q_l3_ev,e_q_delta6_ev\n1.0,0.0880346963,0.119704193,0.116695176\n"
                 "2.0,0.0337426468,0.0661222907,0.0618348484\n3.0,0.0175136448,0.0442907454,0.0398213142\n",
                 f"warning: t = 0 nm: {_POSITIVE}\n", id="well-warns"),
    pytest.param("well --valley L1 --t-min 0 --t-max 3 --t-step 1 --out -", 0,
                 "t_nm,e_q_ev\n1.0,0.0880346963\n2.0,0.0337426468\n3.0,0.0175136448\n",
                 f"warning: t = 0 nm: {_POSITIVE}\n", id="well-valley-warns"),
    _error("well --t-min -1 --t-max 0 --t-step 1 --out -", 1, f"t = -1 nm: {_POSITIVE}", "well-fails"),
    _error("well --valley L1 --t-min -1 --t-max 0 --t-step 1 --out -", 1, f"t = -1 nm: {_POSITIVE}",
           "well-valley-fails"),
    _error("well --valley L1 --t inf --out -", 1, f"t = inf nm: {_POSITIVE}", "infinite-thickness"),
    _error("energy --t 0 --out -", 1, f"t = 0 nm: {_POSITIVE}", "energy-zero-thickness"),
    _error("splitting --t 0 --x 1 --out -", 1, f"t = 0 nm: {_POSITIVE}", "splitting-zero-thickness"),
    _error("splitting --t 0 --x 2 --out -", 1, "Ge fraction must lie in [0, 1], got 2.0", "x-checked-first"),
    pytest.param("sensitivity --mode quadratic_range --set deformation.xi_d_L=-5 --t-min 1 --t-max 6 "
                 "--t-step 1 --out -", 0,
                 "t_nm,x_low,x_nominal,x_high,clipped\n1.0,0.968068733,0.987513089,1.0,1\n"
                 "2.0,0.968591595,0.988056641,1.0,1\n3.0,0.973908938,0.993584991,1.0,1\n"
                 "4.0,0.978225604,0.998073766,1.0,1\n",
                 f"warning: {_X_ABOVE_1.format(5, '0.0418273')}\n"
                 f"warning: {_X_ABOVE_1.format(6, '0.0419418')}\n", id="sensitivity-warns"),
    _error("sensitivity --mode linear10pct --t-min 1 --t-max 3 --t-step 1 --set deformation.xi_d_L=-3 "
           "--out -", 1, _X_ABOVE_1.format(1, "0.0478185"), "sensitivity-x-above-1"),
    pytest.param("energy --t 3 --eps-min 0 --eps-max 0.2 --eps-step 0.05 --out -", 0,
                 "eps_par,e_l1_ev,e_l3_ev,e_delta6_ev\n0.0,2.11751364,2.14429075,1.20982131\n"
                 "0.05,1.23871061,2.31645213,1.50899716\n0.1,0.247407582,2.41361351,1.75817301\n",
                 f"warning: eps = 0.15: {_STRAIN.format(0.15)}\nwarning: eps = 0.2: {_STRAIN.format(0.2)}\n",
                 id="energy-warns"),
    _error("energy --t 3 --eps-min -0.2 --eps-max -0.15 --eps-step 0.05 --out -", 1,
           f"eps = -0.2: {_STRAIN.format(0.2)}", "energy-fails"),
    _error("energy --t 3 --eps 0.10000001 --out -", 1, f"eps = 0.10000001: {_STRAIN.format(0.1)}",
           "energy-nine-digit-label"),
    _error("energy --t 3 --eps nan --format json-lines --out -", 1,
           "eps = nan: strain must be finite, got nan", "energy-nan-strain"),
    # hc warns per failing Ge fraction; a fraction outside its grid range fails the command
    pytest.param("hc --set elastic.c44=1 --x-min 0.8 --x-max 0.9 --x-step 0.02 --out -", 0,
                 "x,f,nu_111,h_c_nm\n0.8,0.03344,0.494906621,1.75149305\n"
                 "0.82,0.034276,0.494906621,1.48799259\n0.84,0.035112,0.494906621,1.12835152\n",
                 "".join(f"warning: x = {x}: {_ROOTLESS.format(f)}\n"
                         for x, f in (("0.86", "0.03595"), ("0.88", "0.03678"), ("0.9", "0.03762"))),
                 id="hc-warns"),
    _error("hc --x 1 --set elastic.c44=1 --out -", 1, f"x = 1: {_ROOTLESS.format('0.0418')}", "hc-fails"),
    *(_error(f"hc --x {x} --out {{tmp}}/h.csv", 1, "Ge-fraction grid must lie within [0.05, 1]", f"hc-x={x}")
      for x in ("1.5", "-0.2", "0.01")),
    # degenerate parameters give one named error or the true digits; with b = 1e308, A and e b
    # both overflow: unbounded, not rootless
    _error("hc --x 0.94 --set elastic.c44=1e154 --out -", 1, _UNBOUNDED.format("-1"), "poisson-minus-one"),
    _error("hc --x 0.94 --set constants.burgers_si=1e308 --out -", 1, _UNBOUNDED.format("0.18"),
           "huge-burgers-vector"),
    # a subnormal b would print h_c with digits it does not carry; a tiny normal one keeps them
    _error("hc --x 1 --set constants.burgers_si=5e-324 --out -", 1,
           "x = 1: Burgers vector 4.941e-324 nm is too small: below 2.2250738585072014e-308 nm the critical "
           "thickness keeps too few significant digits", "subnormal-burgers-vector"),
    pytest.param("hc --x 1 --set constants.burgers_si=1e-300 --out -", 0,
                 "x,f,nu_111,h_c_nm\n1.0,0.0418,0.179978558,8.43793246e-300\n", "", id="tiny-burgers-vector"),
    _error("well --t 3 --set masses.m_out=1e308 --out -", 1, _MASS_RATIO.format("1.7", "1e+308"),
           "heavy-barrier-mass"),
    # overflows: 1.1 x 1.7e308 in the up corner of the linear box, c1**2 (the crossing used to
    # print as 0.0), and 1.7e308 x (2 + eps_perp / eps_par) in the nominal gap slope
    _error("sensitivity --mode both --t 3 --set deformation.xi_u_L=1.7e308 --out -", 1,
           "deformation potentials must be finite", "overflowing-corner"),
    pytest.param("crossover --t 3 --set deformation.xi_u_L=1e300 --out -", 0,
                 _CROSSOVER + "3.0,2.06782181e-300,5.62893227e-299\n", "", id="overflowing-discriminant"),
    _error("crossover --t 3 --set deformation.xi_d_delta=1.7e308 --out -", 1,
           "t = 3 nm: gap slope and curvature must be finite", "infinite-gap-slope"),
    # every L3 level is inf, which fails the energy row; the crossover gap reads L1 and
    # Delta6 only, so neither an inf L3 level nor an L3 mass no well accepts fails it
    _error("energy --t 3 --eps 0.05 --set deformation.xi_u_L=1e308 --out -", 1,
           "e_l3_ev is inf: the parameters overflow the float range", "energy-l3-overflow"),
    pytest.param("crossover --t 3 --set deformation.xi_u_L=1e308 --out -", 0,
                 _CROSSOVER + "3.0,2.06782181e-308,5.62893227e-307\n", "", id="crossover-l3-overflow"),
    pytest.param("crossover --t 3 --set masses.L3.m_in=1e-320 --out -", 0,
                 _CROSSOVER + "3.0,0.0387586983,0.935351294\n", "", id="crossover-l3-mass"),
    _error("splitting --t 3 --x 1 --set masses.L3.m_in=1e-320 --out -", 1,
           _MASS_RATIO.format("1e-320", "1.59"), "splitting-l3-mass"),
    # the relative binding of a 1e-9 nm well is below double precision; at the wide end the
    # level is the hard-wall one, and at 1e160 nm an intermediate would overflow
    _error("splitting --t 1e-9 --x 1 --out -", 1, _THIN, "splitting-thin-well"),
    _error("well --valley L3 --t 1e-9 --out -", 1, _THIN, "thin-well"),
    _error("well --valley L1 --t 1e17 --out -", 1, _WIDE.format("1e+17", "1.1e-17"), "wide-well"),
    _error("well --valley L1 --t 1e160 --out -", 1, _WIDE.format("1e+160", "1.1e-160"), "wider-well"),
    _error("well --valley L1 --t 3 --out /nonexistent-dir/out.csv", 1,
           "cannot write output: /nonexistent-dir/out.csv: " + os.strerror(errno.ENOENT), "unwritable-path"),
]


@pytest.mark.parametrize("argv, status, out, err", RUN_CASES)
def test_a_command_line_gives_its_exact_outcome(tmp_path, capsys, argv, status, out, err):
    (tmp_path / "p.conf").write_text(CONF)
    (tmp_path / "bad.conf").write_text("masses.m_out = 0\n")
    assert run([arg.replace("{tmp}", str(tmp_path)) for arg in argv.split()]) == status
    assert capsys.readouterr() == tuple(text.replace("{tmp}", str(tmp_path)) for text in (out, err))
    assert sorted(os.listdir(tmp_path)) == ["bad.conf", "p.conf"]


def test_sensitivity_single_thickness_matches_one_point_grid(capsys):
    assert run(["sensitivity", "--mode", "both", "--t", "3", "--out", "-"]) == 0
    single = capsys.readouterr().out
    assert run(["sensitivity", "--mode", "both", "--t-min", "3", "--t-max", "3",
                "--t-step", "1", "--out", "-"]) == 0
    assert single == capsys.readouterr().out
    assert len(single.splitlines()) == 2


@functools.cache
def _loaded(code):
    """The names in ``sys.modules`` of a fresh ``python -S`` after running ``code``,
    one interpreter per distinct ``code``.

    -S skips site, whose start-up .pth files may import modules of their own first.
    """
    proc = _python(["-S", "-c", f"import sys\n{code}\nprint(sorted(sys.modules))"],
                   capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return frozenset(ast.literal_eval(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="session")
def baseline():
    """What a run may load besides lvalley: ``_running``'s contextlib and io, and the
    standard library lvalley imports.  numpy, argparse, pathlib, re, importlib,
    warnings, tempfile, typing, dataclasses and inspect are not among them: each
    costs a cold command milliseconds."""
    return _loaded("import contextlib, io, os, stat, errno, gc, math, enum, __future__")


def test_package_import_adds_only_the_package_under_no_site():
    # stricter than the baseline: not even a standard-library module
    assert _loaded("import lvalley") - _loaded("pass") == {"lvalley"}


def _running(argv, code):
    """Code that runs ``cli.run(argv)`` to stdout, quietly, and checks its exit status."""
    return (
        "import contextlib, io, lvalley.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert lvalley.cli.run({[*argv, '--out', '-']!r}) == {code}"
    )


def _design_modules(*modules):
    return ["cli", "commands", "design", "elasticity", "errors", "materials", "valleys", "well", *modules]


_HELP_MODULES = ["cli", "commands", "commands.help", "errors", "materials"]
_OVERRIDE_MODULES = _design_modules("commands.crossover", "overrides")

# What each way of starting lvalley loads, one row per way: (code, the lvalley
# modules it leaves loaded), with {conf} naming a config file.  Each row runs in a
# fresh python -S and may load no other module that the baseline does not.  No row
# loads rootfind, the reference solver.  A new command is one more row.
LOAD_CASES = [
    pytest.param("import lvalley", [], id="import"),
    # a submodule read as an attribute is imported then, and alone
    pytest.param("import lvalley\nlvalley.well", ["errors", "materials", "well"], id="import-then-well"),
    pytest.param("import lvalley.cli", ["cli", "errors", "materials"], id="import-cli"),
    # a usage error while resolving parameters loads no physics module
    pytest.param(_running(["energy", "--t", "3", "--set", "nosuch.key=1"], 2),
                 ["cli", "commands", "commands.energy", "errors", "materials", "overrides"],
                 id="usage-error"),
    pytest.param(_running(["hc"], 0),
                 ["cli", "commands", "commands.hc", "elasticity", "errors", "materials", "relaxation"],
                 id="hc"),
    pytest.param(_running(["figure", "--id", "fig7"], 0),
                 ["cli", "commands", "commands.figure", "commands.hc", "elasticity", "errors",
                  "materials", "relaxation"],
                 id="fig7"),
    pytest.param(_running(["well", "--valley", "L1", "--t", "3"], 0),
                 ["cli", "commands", "commands.well", "errors", "materials", "well"], id="well-valley"),
    pytest.param(_running(["well", "--t", "3"], 0), _design_modules("commands.well"), id="well"),
    pytest.param(_running(["crossover", "--t", "3"], 0), _design_modules("commands.crossover"),
                 id="crossover"),
    pytest.param(_running(["energy", "--t", "3"], 0), _design_modules("commands.energy"), id="energy"),
    pytest.param(_running(["sensitivity", "--t", "3"], 0), _design_modules("commands.sensitivity"),
                 id="sensitivity"),
    pytest.param(_running(["splitting", "--t", "3", "--x", "1"], 0), _design_modules("commands.splitting"),
                 id="splitting"),
    # figure loads its preset's row module too
    pytest.param(_running(["figure", "--id", "fig4"], 0),
                 _design_modules("commands.figure", "commands.crossover"), id="figure"),
    # the override surface loads for an override flag only
    pytest.param(_running(["crossover", "--t", "3", "--config", "{conf}"], 0), _OVERRIDE_MODULES,
                 id="config"),
    pytest.param(_running(["crossover", "--t", "3", "--dp-set", "fischetti1996"], 0), _OVERRIDE_MODULES,
                 id="dp-set"),
    pytest.param(_running(["crossover", "--t", "3", "--set", "quadratic.d_L1=-20"], 0), _OVERRIDE_MODULES,
                 id="set"),
    pytest.param(_running(["crossover", "--t", "3", "--config", "{conf}", "--dp-set", "fischetti1996",
                           "--set", "quadratic.d_L1=-20"], 0), _OVERRIDE_MODULES, id="all-overrides"),
    # --help loads no row or physics module
    pytest.param(_running(["--help"], 0), _HELP_MODULES, id="help"),
    pytest.param(_running(["crossover", "--help"], 0), _HELP_MODULES, id="command-help"),
]


@pytest.fixture(scope="session")
def conf(tmp_path_factory):
    """The file {conf} names: one per session, so each row's code and run are shared."""
    path = tmp_path_factory.mktemp("load") / "p.conf"
    path.write_text("deformation.xi_u_L = 16.5\n")
    return str(path)


@pytest.mark.parametrize("code, modules", LOAD_CASES)
def test_a_command_loads_only_the_modules_it_runs(conf, baseline, code, modules):
    loaded = _loaded(code.replace("{conf}", conf))
    assert sorted(m[8:] for m in loaded if m.startswith("lvalley.")) == sorted(modules)
    assert sorted(m for m in loaded - baseline if m.partition(".")[0] != "lvalley") == []


# The checks below name what the allowlist keeps out of a row.  Each reads the
# cached run of its LOAD_CASES row and starts no interpreter of its own.
_ROW_CODE = {case.id: case.values[0] for case in LOAD_CASES}


def test_cli_import_leaves_numpy_unloaded():
    assert {"numpy"} & _loaded(_ROW_CODE["import-cli"]) == set()


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # both cost a command-line start several milliseconds, and the records need neither
    assert {"dataclasses", "inspect"} & _loaded(_ROW_CODE["import-cli"]) == set()


def test_cli_import_leaves_typing_unloaded():
    assert {"typing"} & _loaded(_ROW_CODE["import-cli"]) == set()


def test_cli_import_leaves_tempfile_unloaded():
    # the atomic write names its own temporary file; tempfile would also load random
    assert {"tempfile", "random"} & _loaded(_ROW_CODE["import-cli"]) == set()


def test_cli_import_leaves_the_reference_solver_unloaded():
    # the production solvers take their stopping rule from errors.py
    assert {"lvalley.rootfind"} & _loaded(_ROW_CODE["import-cli"]) == set()


COMMAND_RUNS = ["usage-error", "hc", "fig7", "well-valley", "well", "crossover"]


@pytest.mark.parametrize("row", COMMAND_RUNS)
def test_a_command_loads_no_argument_parser(row):
    # argparse, with the gettext and locale it loads, cost a cold command several ms
    assert {"argparse", "gettext", "locale"} & _loaded(_ROW_CODE[row]) == set()


@pytest.mark.parametrize("row", COMMAND_RUNS)
def test_a_command_loads_no_pathlib(row):
    # pathlib and the regular-expression and URL modules it imports cost a cold
    # command about 5 ms, and importlib with warnings about 1 ms
    unwanted = {"pathlib", "re", "fnmatch", "ntpath", "urllib.parse", "importlib", "warnings"}
    assert unwanted & _loaded(_ROW_CODE[row]) == set()


# every command has a row: a missing one is a KeyError here
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_command_loads_only_its_own_row_module(command):
    loaded = _loaded(_ROW_CODE[command])
    # its own row module, and for figure its preset's too
    own = ["commands", f"commands.{command}", *(["commands.crossover"] if command == "figure" else [])]
    assert sorted(m[8:] for m in loaded if m.startswith("lvalley.commands")) == sorted(own)
    assert {"lvalley.rootfind", "lvalley.overrides"} & loaded == set()


@pytest.mark.parametrize("flags, loaded", [
    ([], False),
    (["--config", "{conf}"], True),
    (["--dp-set", "fischetti1996"], True),
    (["--set", "quadratic.d_L1=-20"], True),
    (["--config", "{conf}", "--dp-set", "fischetti1996", "--set", "quadratic.d_L1=-20"], True),
])
def test_overrides_load_only_for_an_override_flag(conf, flags, loaded):
    # the code of the crossover, config, dp-set, set and all-overrides rows
    code = _running(["crossover", "--t", "3", *flags], 0).replace("{conf}", conf)
    assert ("lvalley.overrides" in _loaded(code)) is loaded


def test_each_export_is_the_object_its_submodules_hold():
    assert set(lvalley.__all__) <= set(dir(lvalley))
    submodules = [
        importlib.import_module(f"lvalley.{m}")
        for m in ("design", "elasticity", "errors", "materials", "relaxation", "valleys", "well")
    ]
    for name in lvalley.__all__:
        holders = [getattr(m, name) for m in submodules if hasattr(m, name)]
        assert holders and all(obj is getattr(lvalley, name) for obj in holders), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lvalley.no_such_name  # noqa: B018


def test_non_finite_cell_is_a_domain_error_and_writes_no_file(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    assert run(["energy", "--t", "3", "--eps", "0.1", "--set", "bands.e0_L=1.79e308",
                "--set", "deformation.xi_u_L=1e308", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: e_l3_ev is inf: the parameters overflow the float range"
    ]
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(InfeasibleError, match="^delta6_minus_l1_ev is -inf") as info:
        cli.render(["t_nm", "delta6_minus_l1_ev"], [(3.0, -math.inf)], "csv")
    assert info.value.reason == "non_finite"


def test_write_error_names_the_requested_path(tmp_path, monkeypatch, capsys):
    args = ["well", "--valley", "L1", "--t", "3", "--out"]
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert run(args + [str(missing)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write output: {missing}: {os.strerror(errno.ENOENT)}\n"
    # a directory in the way: the temp file is not named, and none is left
    target = tmp_path / "dir"
    target.mkdir()
    assert run(args + [str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output: {target}: ") and ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == ["dir"] and os.listdir(target) == []

    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    assert run(args + ["-"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write output: standard output: {os.strerror(errno.EPIPE)}\n"


def test_empty_out_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    # an empty --config or --dp-set used to run with the default parameters
    for flag, what in (("--out", "a path"), ("--config", "a value"), ("--dp-set", "a value")):
        assert run(["well", "--valley", "L1", "--t", "3", flag, ""]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} needs {what}")
        assert os.listdir(tmp_path) == []


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["well", "--valley", "L1", "--t", "3", "--out", str(out)]) == 0
    assert os.listdir(tmp_path) == ["w.csv"]


def test_failed_rename_removes_the_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "w.csv"
    assert run(["well", "--valley", "L1", "--t", "3", "--out", str(out)]) == 1
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    monkeypatch.undo()

    # a write that fails (a full disk) leaves the old file and no temp file
    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: FullDisk(fdopen(*args, **kwargs)))
    out.write_text("old\n")
    assert run(["well", "--valley", "L1", "--t", "3", "--out", str(out)]) == 1
    assert os.listdir(tmp_path) == ["w.csv"] and out.read_text() == "old\n"
    assert capsys.readouterr().err == f"error: cannot write output: {out}: {os.strerror(errno.ENOSPC)}\n"


# --- the process: both entry points, their streams and their exit -------------------

# python -m lvalley, and the code of the console script pip generates from [project.scripts]
ENTRY_POINTS = {
    "module": ["-m", "lvalley"],
    "script": ["-c", "import sys; from lvalley.cli import main; sys.exit(main())"],
}
# sh runs the command with fd 1 closed
CLOSED_STDOUT = ["sh", "-c", 'exec "$@" >&-', "sh"]


def _python(args, prefix=(), unbuffered=False, **kwargs):
    """A fresh ``python *args`` importing the tested tree, PYTHONUNBUFFERED set or unset."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([*prefix, sys.executable, *args], env=env, timeout=60, **kwargs)


def test_main_freezes_the_heap_before_exit():
    code = (
        "import atexit, gc, sys, lvalley.cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['lvalley', 'hc', '--out', '-']\n"
        "lvalley.cli.main()\n"
    )
    proc = _python(["-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "frozen True\n")
    assert proc.stdout.startswith("x,f,nu_111,h_c_nm\n")


SWEEP_WITH_A_FAILED_POINT = [
    "crossover", "--t-min", "0.2", "--t-max", "1.4", "--t-step", "0.4", "--out", "-"
]

# the config file that {conf} names here and {tmp}/p.conf in RUN_CASES
CONF = "deformation.xi_u_L = 16.5\nquadratic.d_delta6 = -12.0\n"

# The command line's contract, one row per command line: (argv, exit status), {conf}
# naming a config file.  A new command line is one more row.
CLI_CASES = [
    pytest.param(["crossover", "--t", "3", "--out", "-"], 0, id="data"),
    pytest.param(["crossover", "--t", "0.2", "--out", "-"], 1, id="domain-error"),
    pytest.param(["energy", "--t", "3", "--set", "nosuch.key=1", "--out", "-"], 2, id="usage-error"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["crossover", "--help"], 0, id="command-help"),
    # the sensitivity band (fig10), the single-valley and all-valley well paths, and
    # splitting, energy and hc, each with its own physics modules
    pytest.param(["figure", "--id", "fig10", "--out", "-"], 0, id="fig10"),
    pytest.param(["figure", "--id", "fig7", "--out", "-"], 0, id="fig7"),
    pytest.param(["well", "--valley", "L3", "--t-min", "1", "--t-max", "10", "--t-step", "0.5",
                  "--out", "-"], 0, id="well-valley"),
    pytest.param(["well", "--t-min", "1", "--t-max", "10", "--t-step", "0.5", "--out", "-"], 0, id="well"),
    pytest.param(["splitting", "--t", "3", "--x", "1", "--out", "-"], 0, id="splitting"),
    pytest.param(["energy", "--t", "3", "--out", "-"], 0, id="energy"),
    pytest.param(["hc", "--out", "-"], 0, id="hc"),
    # sweeps with failing points: the good rows, and one warning per failed point
    pytest.param(SWEEP_WITH_A_FAILED_POINT, 0, id="crossover-warnings"),
    pytest.param(["hc", "--set", "elastic.c44=1", "--x-min", "0.8", "--x-max", "0.9", "--x-step", "0.02",
                  "--out", "-"], 0, id="hc-warnings"),
    # the override surface
    pytest.param(["crossover", "--t", "3", "--config", "{conf}", "--set", "quadratic.d_L1=-20",
                  "--out", "-"], 0, id="config-and-set"),
    pytest.param(["splitting", "--t", "5", "--x", "0.95", "--dp-set", "fischetti1996", "--out", "-"],
                 0, id="dp-set"),
]


@pytest.mark.parametrize("argv, code", CLI_CASES)
def test_module_process_gives_what_run_gives(capsysbinary, tmp_path, argv, code):
    """Both entry points give the exit status, stdout bytes and stderr bytes of in-process ``run``."""
    conf = tmp_path / "p.conf"
    conf.write_text(CONF)
    argv = [arg.format(conf=conf) for arg in argv]
    assert run(argv) == code
    captured = capsysbinary.readouterr()
    assert captured.out or code != 0
    for entry, args in ENTRY_POINTS.items():
        proc = _python([*args, *argv], capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err), entry


def test_packaging_smoke_run_names_every_command():
    # CI's packaging step runs the installed script on one line per command module, --help
    # included, and on one line that loads the override surface
    text = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    (loop,) = re.findall(r"for args in (.*?); do", text, flags=re.S)
    lines = [line.split() for line in re.findall(r'"([^"]*)"', loop)]
    assert {line[0] for line in lines} == {*cli._COMMANDS, "--help"}
    assert any({"--config", "--set"} <= set(line) for line in lines)


def _stdout_error(reason):
    return f"error: cannot write output: standard output: {os.strerror(reason)}\n".encode()


@contextlib.contextmanager
def _started_in(state, tmp_path):
    """The ``_python`` arguments that start a process in ``state``, the other stream piped."""
    if state == "no-reader":  # fd 1 a pipe whose read end is closed before the run
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            yield {"stdout": write_end, "stderr": subprocess.PIPE}
        finally:
            os.close(write_end)
    elif state == "closed-stdout":
        yield {"prefix": CLOSED_STDOUT, "stderr": subprocess.PIPE}
    elif state == "closed-stderr":
        yield {"preexec_fn": lambda: os.close(2), "stdout": subprocess.PIPE}
    else:  # read-only-stderr: fd 2 a file opened for reading
        path = tmp_path / "stderr"
        path.touch()
        with open(path) as read_only:
            yield {"stderr": read_only, "stdout": subprocess.PIPE}


# stands for the stdout bytes of an ordinary in-process run of the same command line
ROWS = "rows"

# (state, argv, (exit status, stdout, stderr)): None for the stream the state takes
# away, and {out} naming a file
STREAM_CASES = [
    # standard output that fails is one error line and exit 1, for the data and --help alike
    pytest.param("no-reader", ["crossover", "--t", "3", "--out", "-"],
                 (1, None, _stdout_error(errno.EPIPE)), id="no-reader-data"),
    pytest.param("no-reader", ["--help"], (1, None, _stdout_error(errno.EPIPE)), id="no-reader-help"),
    pytest.param("closed-stdout", ["crossover", "--t", "3", "--out", "-"],
                 (1, None, _stdout_error(errno.EBADF)), id="closed-stdout-data"),
    pytest.param("closed-stdout", ["--help"], (1, None, _stdout_error(errno.EBADF)),
                 id="closed-stdout-help"),
    # a run that writes a file never touches standard output
    pytest.param("closed-stdout", ["crossover", "--t", "3", "--out", "{out}"], (0, None, b""),
                 id="closed-stdout-file"),
    # a standard error that is closed or fails neither enters the data nor stops it
    pytest.param("closed-stderr", SWEEP_WITH_A_FAILED_POINT, (0, ROWS, None), id="closed-stderr-sweep"),
    pytest.param("closed-stderr", ["crossover", "--t", "0.2", "--out", "-"], (1, b"", None),
                 id="closed-stderr-point"),
    pytest.param("read-only-stderr", SWEEP_WITH_A_FAILED_POINT, (0, ROWS, None),
                 id="read-only-stderr-sweep"),
    pytest.param("read-only-stderr", ["crossover", "--t", "0.2", "--out", "-"], (1, b"", None),
                 id="read-only-stderr-point"),
]


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX pipes and sh")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("state, argv, expected", STREAM_CASES)
def test_stream_states_keep_the_contract(capsysbinary, tmp_path, state, argv, expected, entry, unbuffered):
    out = tmp_path / "out.csv"
    run([arg.format(out="-") for arg in argv])  # the parity test checks its status
    rows = capsysbinary.readouterr().out
    with _started_in(state, tmp_path) as streams:
        proc = _python([*ENTRY_POINTS[entry], *(arg.format(out=out) for arg in argv)],
                       unbuffered=unbuffered, **streams)
    code, stdout, stderr = expected
    expected = (code, rows if stdout is ROWS else stdout, stderr)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    if "{out}" in argv:
        assert out.read_bytes() == rows


# --- figure data ------------------------------------------------------------------

def test_fig1_columns_decreasing(tmp_path):
    path = tmp_path / "fig1.csv"
    assert run(["figure", "--id", "fig1", "--out", str(path)]) == 0
    header, rows = read_rows(path)
    assert header == ["t_nm", "e_q_l1_ev", "e_q_l3_ev", "e_q_delta6_ev"]
    assert len(rows) == 91
    for col in (1, 2, 3):
        vals = [float(r[col]) for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_fig3_shows_crossing_near_published_strain(tmp_path):
    path = tmp_path / "fig3.csv"
    assert run(["figure", "--id", "fig3", "--out", str(path)]) == 0
    _, rows = read_rows(path)
    row = next(r for r in rows if abs(float(r[0]) - 0.0388) < 1e-9)
    assert abs(float(row[1]) - float(row[3])) < 3e-3


def test_fig8_band_contains_nominal(tmp_path):
    path = tmp_path / "fig8.csv"
    assert run(["figure", "--id", "fig8", "--out", str(path)]) == 0
    header, rows = read_rows(path)
    assert header == ["t_nm", "x_low", "x_nominal", "x_high", "clipped"]
    for r in rows:
        assert float(r[1]) <= float(r[2]) <= float(r[3])


def test_figure_via_cli(tmp_path):
    out = tmp_path / "fig7.csv"
    assert run(["figure", "--id", "fig7", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["x", "f", "nu_111", "h_c_nm"]
    assert len(rows) == 51


# --- the command table read as argparse read it -----------------------------------

COMMANDS = ("energy", "well", "crossover", "hc", "sensitivity", "splitting", "figure")
FLAGS = {
    "energy": ("--t", "--x", "--eps", "--eps-min", "--eps-max", "--eps-step"),
    "well": ("--valley", "--t", "--t-min", "--t-max", "--t-step"),
    "crossover": ("--t", "--t-min", "--t-max", "--t-step"),
    "hc": ("--x", "--x-min", "--x-max", "--x-step"),
    "sensitivity": ("--mode", "--t", "--t-min", "--t-max", "--t-step"),
    "splitting": ("--t", "--x"),
    "figure": ("--id",),
}
COMMON_FLAGS = ("--config", "--set", "--dp-set", "--out", "--format")


def _not_drawn(token):
    """A bare --, or a token argparse reads as --help or -h, left to the help tests.

    argparse ends option parsing at --, and the command line takes none;
    Python 3.13's argparse prints help for -hX, which earlier ones reject.
    """
    head = token.partition("=")[0]
    return token == "--" or token.startswith("-h") or (len(head) > 2 and "--help".startswith(head))


@functools.cache
def _reference_parser():
    return argparse_reference()


def _reference(argv):
    """The flags argparse read from ``argv``, by name, or None if it rejected ``argv``."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_reference_parser().parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2
            return None


def _parsed(argv):
    """The flags ``cli._parse`` read from ``argv``, by name, or None if it rejected ``argv``."""
    try:
        values = vars(cli._parse(argv))
    except UsageError:
        return None
    del values["rows"]
    return values


_FLAG_NAMES = sorted({*COMMON_FLAGS, *(flag for flags in FLAGS.values() for flag in flags)})
# any token: numbers, negative ones argparse does and does not read as values,
# option-like tokens, spaces, unicode digits, a final newline, choices and junk
_ANY_TOKEN = st.one_of(
    st.floats().map(repr),
    st.integers(-20, 20).map(str),
    st.sampled_from((
        "0.5", "3", "1e-3", "-1", "-.5", "-1.5", "-1.", "-1e-3", "-1\n", "-1\n\n", "-\u0661", "-\u00b2",
        " 3 ", "1_0", "abc", "", "-", " ", "x y", "-x y", "--t 3", "-x", "-t", "-x=1",
        "---t", "--T", "--t3", "--eps-", "--=1", "--form=csv", "--t-m=1",
        "csv", "json-lines", "xml", "L1", "l1", "Delta6", "both", "linear10pct", "quadratic_range",
        "fig7", "fig6", "deformation.xi_u_L=16", "a=b", "crossover",
    )),
    st.text(max_size=4),
).filter(lambda token: not _not_drawn(token))
# a flag in full, a prefix of one (unique or ambiguous), or one of another command
_ANY_FLAG = st.one_of(
    st.sampled_from(_FLAG_NAMES),
    st.builds(lambda flag, n: flag[:n], st.sampled_from(_FLAG_NAMES), st.integers(3, 9)),
)


CHOICES = {
    "--format": ("csv", "json-lines"),
    "--valley": ("L1", "L3", "Delta6"),
    "--mode": ("linear10pct", "quadratic_range", "both"),
}
NUMBERS = st.one_of(st.floats().map(repr), st.integers(-9, 99).map(str))


@st.composite
def _command_line(draw):
    """An argv of flags in both forms, abbreviated, with values missing, bad or stray."""
    command = draw(st.sampled_from((*COMMANDS, *COMMANDS, "", "cross", "-1", "--t")))
    # the required flags, so that many of the lines drawn are accepted
    required = {"energy": ["--t", "3"], "splitting": ["--t", "3", "--x", "1"], "figure": ["--id", "fig7"]}
    argv = [command, *(required.get(command, []) if draw(st.booleans()) else [])]
    own = (*FLAGS.get(command, ()), *COMMON_FLAGS)
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)):  # a flag of the command and a value of its kind
            flag = draw(st.sampled_from(own))
            value = draw(st.sampled_from(CHOICES[flag]) if flag in CHOICES else NUMBERS)
            pieces = ([flag, value], [f"{flag}={value}"])
        else:
            flag, value = draw(_ANY_FLAG), draw(_ANY_TOKEN)
            pieces = ([flag, value], [f"{flag}={value}"], [flag], [value])
        argv += draw(st.sampled_from(pieces))
    return argv if command or draw(st.booleans()) else []


@settings(max_examples=400, deadline=None)
@given(argv=_command_line())
@example(argv=["energy", "--t", "3", "--eps-min", "-1e-3"])
@example(argv=["energy", "--t", "3", "--eps-min=-1e-3", "--eps-min", "-1", "--eps-max", "-.5"])
@example(argv=["crossover", "--t-m", "1"])
@example(argv=["crossover", "--t-s", "1", "--form", "json-lines", "--se", "a=1", "--set=b=2"])
@example(argv=["well", "--valley", "L1", "--valley=L3", "--t", "-1\n"])
@example(argv=["sensitivity", "--mode", "both", "--out", "x y", "--config", "-x y", "--dp-set="])
@example(argv=["hc", "--x", "-\u0661", "--x-min", "-\u00b2"])
def test_parse_accepts_what_argparse_accepted(argv):
    ours, reference = _parsed(argv), _reference(argv)
    assert (ours is None) == (reference is None)
    # repr tells nan, -0.0 and 0.0 apart
    assert repr(sorted((ours or {}).items())) == repr(sorted((reference or {}).items()))


def _listed(text):
    """The first word of each indented line of a --help listing."""
    return {line.split()[0] for line in text.splitlines() if line.startswith("  ")}


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]])
def test_help_lists_every_command(capsys, argv):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _listed(captured.out) == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_every_flag_of_its_command(capsys, command, flag):
    assert run([command, flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _listed(captured.out) == {*FLAGS[command], *COMMON_FLAGS, "-h,"}


# --- every invocation: clean data or a clean error ---------------------------------

NON_FINITE = (math.inf, -math.inf, math.nan)


def _value(lo, hi, *outside):
    """A flag value within [lo, hi], one just outside it, or a non-finite one."""
    return st.one_of(
        st.floats(min_value=lo, max_value=hi), st.sampled_from(outside), st.sampled_from(NON_FINITE)
    )


THICKNESS = _value(0.5, 20.0, 0.0, -1.0, 0.2, 99.0, 1e-9, 1e17)
GE_FRACTION = _value(0.05, 1.0, 0.0, 0.01, -0.1, 1.5)
STRAIN = _value(0.0, 0.06, -0.01, 0.5)


def _flag(name, value):
    return f"--{name}={value!r}"  # the = form keeps "-inf" from reading as a flag


@st.composite
def _axis(draw, axis, values, single=True):
    """One --AXIS value, or a --AXIS-min/max/step sweep of at most 20 points."""
    if single and draw(st.booleans()):
        return [_flag(axis, draw(values))]
    lo = draw(values)
    step = draw(_value(1e-3, 1.0, 0.0, -0.5))
    n = draw(st.integers(min_value=0, max_value=20))  # 0 puts max below min
    hi = lo + (n - 1) * step
    return [_flag(f"{axis}-min", lo), _flag(f"{axis}-max", hi), _flag(f"{axis}-step", step)]


@st.composite
def _invocation(draw, command):
    argv = [command]
    if command == "energy":
        argv.append(_flag("t", draw(THICKNESS)))
        which = draw(st.sampled_from(("sweep", "eps", "x", "both")))
        if which == "sweep":
            argv += draw(_axis("eps", STRAIN, single=False))
        if which in ("eps", "both"):
            argv.append(_flag("eps", draw(STRAIN)))
        if which in ("x", "both"):
            argv.append(_flag("x", draw(GE_FRACTION)))
    elif command == "well":
        valley = draw(st.sampled_from((None, "L1", "L3", "Delta6")))
        argv += ["--valley", valley] if valley else []
        argv += draw(_axis("t", THICKNESS))
    elif command == "crossover":
        argv += draw(_axis("t", THICKNESS))
    elif command == "hc":
        argv += draw(_axis("x", GE_FRACTION))
    elif command == "sensitivity":
        argv += ["--mode", draw(st.sampled_from(("linear10pct", "quadratic_range", "both")))]
        argv += draw(_axis("t", THICKNESS))
    elif command == "splitting":
        argv += [_flag("t", draw(THICKNESS)), _flag("x", draw(GE_FRACTION))]
    else:
        argv += ["--id", draw(st.sampled_from(("fig6", "fig11", "")))]
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        key = draw(st.sampled_from(override_keys(PARAMS)))
        argv += ["--set", f"{key}={draw(_value(0.05, 5.0, 0.0, -0.0, -1.0, 1e154, 1e308))!r}"]
    argv += ["--format", "json-lines", "--out", "-"]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        # malformed: --out without its value, or one bad piece anywhere after the command
        bad = draw(st.sampled_from((None, *MALFORMED)))
        at = draw(st.integers(min_value=1, max_value=len(argv)))
        argv = argv[:-1] if bad is None else argv[:at] + bad + argv[at:]
    return argv


# Each makes an argv malformed wherever it goes after the command: a stray
# value, an unknown, ambiguous or value-less flag, or a value of the wrong kind.
MALFORMED = (
    ["stray"], [""], ["-"], ["--bogus"], ["--=1"], ["--format"], ["--format", "xml"],
    ["--form=xml"], ["--eps-min", "-1e-3"], ["--t", "abc"],
)


def _finite_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class _Argv:
    """Stands in for ``st.data()`` in an ``@example``: draws one fixed argv."""

    def __init__(self, *argv):
        self.argv = [*argv, "--format", "json-lines", "--out", "-"]

    def draw(self, strategy, label=None):
        return self.argv


# each example runs under every command parameter; its argv names its own command
@pytest.mark.parametrize(
    "command", ("energy", "well", "crossover", "hc", "sensitivity", "splitting", "figure")
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
@example(data=_Argv("well", "--valley", "L3", "--t", "1e-4", "--set", "masses.L3.m_in=1e-320"))
@example(data=_Argv("well", "--t", "0.001", "--set", "masses.L1.m_in=1e-320"))
# an elastic constant that overflows the (111) strain ratio
@example(data=_Argv("energy", "--t", "3", "--eps", "0.01", "--set", "elastic.c11=1e308"))
@example(data=_Argv("splitting", "--t", "3", "--x", "0.9", "--set", "elastic.c11=1e308"))
# finite parameters whose levels overflow: inf used to reach the output with exit 0
@example(data=_Argv("energy", "--t", "3", "--eps", "0.1", "--set", "bands.e0_L=1.79e308",
                    "--set", "deformation.xi_u_L=1e308"))
@example(data=_Argv("splitting", "--t", "3", "--x", "1", "--set", "bands.e0_L=1.79e308",
                    "--set", "bands.e0_delta=-1.79e308"))
# a zero a_si divided the Vegard strain, and an a_ge whose discriminant overflows read x = 0
@example(data=_Argv("splitting", "--t", "3", "--x", "0.95", "--set", "lattice.a_si=0"))
@example(data=_Argv("crossover", "--t", "3", "--set", "lattice.a_si=-0.0"))
@example(data=_Argv("crossover", "--t", "3", "--set", "lattice.a_ge=1e200"))
@example(data=_Argv("sensitivity", "--t", "3", "--set", "lattice.a_ge=1e200"))
# nu_111 rounds to -1, so 1 + nu is 0
@example(data=_Argv("hc", "--x", "0.94", "--set", "elastic.c44=1e154"))
# 4 (u0/r)**2 overflows, so Newton halved past its iteration cap, or r = 0 divided
@example(data=_Argv("well", "--t", "3", "--set", "masses.m_out=1e308"))
@example(data=_Argv("well", "--t", "0.5", "--valley", "L3", "--set", "masses.m_out=1e308"))
@example(data=_Argv("well", "--t", "3", "--set", "masses.L3.m_in=1e-154",
                    "--set", "masses.m_out=1e300"))
# malformed: an ambiguous prefix, and a value argparse reads as a flag
@example(data=_Argv("crossover", "--t-m", "1"))
@example(data=_Argv("energy", "--t", "3", "--eps-min", "-1e-3"))
def test_every_invocation_gives_finite_json_or_a_clean_error(command, data):
    argv = data.draw(_invocation(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    # in an empty directory that is also the default output directory: no run writes a file
    with tempfile.TemporaryDirectory() as empty:
        os.chdir(empty)
        try:
            with mock.patch.dict(os.environ, {cli.ENV_OUTDIR: empty}), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert os.listdir(empty) == []
        finally:
            os.chdir(here)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if _reference(argv) is None:  # a malformed invocation is a usage error
        assert code == 2
    if code == 0:
        lines = out.splitlines()
        assert lines
        for line in lines:
            record = json.loads(line, parse_constant=_finite_constant)
            assert all(math.isfinite(v) for v in record.values()), line
        return
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for solver_text in ("Traceback", "sign change", "bracket", "converge"):
        assert solver_text not in err


# --- well --valley: the solve_well level of the resolved set ---------------------

@settings(max_examples=300, deadline=None)
@given(
    valley=st.sampled_from(("L1", "L3", "Delta6")),
    t=_value(0.5, 50.0, 0.0, -1.0, 1e-9, 5e12, 1e160),
    m_in=_value(1e-3, 10.0, 0.0, -1.0, 1e-300, 1e-154, 1e300),
    m_out=_value(1e-3, 10.0, 0.0, 1e-300, 1e300),
    v0=_value(1e-3, 10.0, 0.0, -0.28, 1e-300, 1e300),
    k=_value(0.0381 * 0.9991, 0.0381 * 1.0009, 0.04),
)
@example(valley="L1", t=3.0, m_in=1.7, m_out=1.59, v0=0.28, k=PARAMS.constants.hbar2_over_2m0)
def test_single_valley_row_is_the_solve_well_level(valley, t, m_in, m_out, v0, k):
    sets = [
        f"masses.m_out={m_out!r}", f"masses.{valley}.m_in={m_in!r}",
        f"bands.v0_offset_111={v0!r}", f"constants.hbar2_over_2m0={k!r}",
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["well", "--valley", valley, f"--t={t!r}", "--out", "-",
                    *(f"--set={s}" for s in sets)])
    result = (code, out.getvalue(), err.getvalue())
    try:
        cli.resolve_params(None, None, sets)
    except UsageError as usage:  # a set the parameter records reject
        assert result == (2, "", f"error: {usage}\n")
        return
    try:
        energy = solve_well(t, v0, m_in, m_out, k)[0]
    except SolverError as solver:  # not a domain error of the point: no thickness named
        assert result == (1, "", f"error: {solver}\n")
        return
    except (InfeasibleError, ValueError) as domain:
        assert result == (1, "", f"error: t = {t:.9g} nm: {domain}\n")
        return
    assert result == (0, f"t_nm,e_q_ev\n{format_number(t)},{format_number(energy)}\n", "")
