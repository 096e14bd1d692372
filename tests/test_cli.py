import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lvalley import InfeasibleError, Valley, bulk_energy, cli, confinement_energies, default_params
from lvalley.cli import (
    MAX_GRID_POINTS,
    UsageError,
    apply_override,
    format_number,
    make_grid,
    override_keys,
    read_config,
    run,
)

PARAMS = default_params()


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


def test_hc_command(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["hc", "--x-min", "0.5", "--x-max", "1.0", "--x-step", "0.01", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["x", "f", "nu_111", "h_c_nm"]
    assert len(rows) == 51
    hc = [float(r[3]) for r in rows]
    assert all(b < a for a, b in zip(hc, hc[1:]))


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
    ns = cli._build_parser().parse_args(cli.FIGURES[fig])
    _, rows = ns.rows(params, ns)
    eqs = confinement_energies(params, ns.t)
    assert len(rows) == 501
    for eps, *levels in rows:
        expected = [bulk_energy(v, params, eps).total + eqs[v] for v in Valley]
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


# --- error paths -----------------------------------------------------------------

def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["crossover", "--bogus-flag"]) == 2
    assert run(["crossover", "--t-min", "5", "--t-max", "1", "--t-step", "1",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["crossover", "--t", "3", "--set", "bad.key=1",
                "--out", str(tmp_path / "y.csv")]) == 2
    err = capsys.readouterr().err
    assert "valid keys" in err


def test_domain_errors_exit_1(tmp_path, capsys):
    assert run(["crossover", "--t", "99", "--out", str(tmp_path / "x.csv")]) == 1
    assert run(["hc", "--x", "0.94", "--set", "elastic.c44=-1",
                "--out", str(tmp_path / "y.csv")]) == 2  # invalid override is usage
    assert run(["energy", "--t", "3", "--x", "1.0", "--eps", "0.01",
                "--out", str(tmp_path / "z.csv")]) == 2
    capsys.readouterr()


def test_crossover_failures_warn_per_point_or_error_once(capsys):
    # some points fail: one warning each, the rest are written
    assert run(["crossover", "--t-min", "0.2", "--t-max", "1.0", "--t-step", "0.4",
                "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    assert captured.err.splitlines() == [
        "warning: t = 0.2 nm: thickness 0.2 nm outside the supported range [0.5, 50.0] nm"
    ]
    # every point fails: the first failure is the one error line
    assert run(["crossover", "--t", "0.2", "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: t = 0.2 nm: thickness 0.2 nm outside the supported range [0.5, 50.0] nm"
    ]


def test_all_failing_sweeps_print_the_same_error_line(capsys):
    lines = []
    for command in ("crossover", "sensitivity"):
        assert run([command, "--t", "0.2", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines.append(captured.err.splitlines())
    assert lines[0] == lines[1] and len(lines[0]) == 1


def test_rejected_override_values_name_their_key(tmp_path, capsys):
    conf = tmp_path / "p.conf"
    conf.write_text("masses.m_out = 0\n")
    cases = (
        (["--set", "masses.L1.m_in=-1"], "error: override 'masses.L1.m_in' = -1: "),
        (["--config", str(conf)], "error: override 'masses.m_out' = 0: "),
        (["--dp-set", "bogus"], "error: override 'deformation.set' = bogus: "),
    )
    for flags, prefix in cases:
        assert run(["crossover", "--t", "3", *flags, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), lines


def test_sensitivity_error_names_the_thickness(capsys):
    # the nominal crossover at 1 nm already needs x > 1
    assert run(["sensitivity", "--mode", "linear10pct", "--t-min", "1", "--t-max", "3",
                "--t-step", "1", "--set", "deformation.xi_d_L=-3", "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: t = 1 nm: strain ")
    assert lines[0].endswith("requires x > 1")


def test_sensitivity_single_thickness_matches_one_point_grid(capsys):
    assert run(["sensitivity", "--mode", "both", "--t", "3", "--out", "-"]) == 0
    single = capsys.readouterr().out
    assert run(["sensitivity", "--mode", "both", "--t-min", "3", "--t-max", "3",
                "--t-step", "1", "--out", "-"]) == 0
    assert single == capsys.readouterr().out
    assert len(single.splitlines()) == 2


def test_sensitivity_keeps_feasible_points_and_warns_per_failure(capsys):
    # the nominal crossover needs x > 1 from 5 nm on; 1-4 nm still have one
    assert run(["sensitivity", "--mode", "quadratic_range", "--set", "deformation.xi_d_L=-5",
                "--t-min", "1", "--t-max", "6", "--t-step", "1", "--out", "-"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "t_nm,x_low,x_nominal,x_high,clipped"
    assert [row.split(",")[0] for row in lines[1:]] == ["1.0", "2.0", "3.0", "4.0"]
    warnings = captured.err.splitlines()
    assert len(warnings) == 2
    for t, line in zip((5, 6), warnings):
        assert line.startswith(f"warning: t = {t} nm: strain ")
        assert line.endswith("requires x > 1")


def _loaded_after_cli_import(*modules):
    """Which of ``modules`` a fresh interpreter holds after ``import lvalley.cli``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, lvalley.cli; print([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_numpy_unloaded():
    assert _loaded_after_cli_import("numpy") == "[]"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # both cost a command-line start several milliseconds, and the records need neither
    assert _loaded_after_cli_import("dataclasses", "inspect") == "[]"


def test_cli_import_leaves_the_reference_solver_unloaded():
    # the production solvers take their stopping rule from well.py
    assert _loaded_after_cli_import("lvalley.rootfind") == "[]"


@pytest.mark.parametrize("argv, code, message", [
    (["splitting", "--t", "3", "--x", "0.95", "--set", "lattice.a_si=0"], 2,
     "override 'lattice.a_si' = 0: a_si must be positive"),
    (["crossover", "--t", "3", "--set", "lattice.a_ge=1e200"], 2,
     "override 'lattice.a_ge' = 1e200: lattice parameters overflow the Vegard discriminant"),
    (["sensitivity", "--t", "3", "--set", "lattice.a_ge=1e200"], 2,
     "override 'lattice.a_ge' = 1e200: lattice parameters overflow the Vegard discriminant"),
    (["hc", "--x", "0.94", "--set", "elastic.c44=1e154"], 1,
     "misfit 0.03929 with [111] Poisson ratio -1 makes the prefactor A"),
    (["well", "--t", "3", "--set", "masses.m_out=1e308"], 1,
     "a 3 nm well with masses m_in = 1.7 and m_out = 1e+308 m0"),
])
def test_degenerate_parameters_give_one_named_error(capsys, argv, code, message):
    assert run([*argv, "--out", "-"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_overflowing_sensitivity_corner_is_a_domain_error(capsys):
    # 1.1 x 1.7e308 overflows in the up corner of the linear box
    assert run(["sensitivity", "--mode", "both", "--t", "3",
                "--set", "deformation.xi_u_L=1.7e308", "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: deformation potentials must be finite"]


def test_overflowing_discriminant_gives_the_true_crossing(capsys):
    # c1**2 overflows; the crossing used to print as 0.0
    assert run(["crossover", "--t", "3", "--set", "deformation.xi_u_L=1e300", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == "3.0,2.06782181e-300,5.62893227e-299"
    assert captured.err == ""


def test_infinite_gap_slope_is_a_domain_error(capsys):
    # 1.7e308 x (2 + eps_perp / eps_par) overflows the nominal slope
    assert run(["crossover", "--t", "3", "--set", "deformation.xi_d_delta=1.7e308",
                "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: t = 3 nm: gap slope and curvature must be finite"]


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


def test_overflowing_l3_coefficient_fails_the_energy_row_only(capsys):
    # the L3 unit-strain coefficient 1e308 x (8 + eps_perp / eps_par) / 9 is
    # inf, so every L3 level is; the gap reads L1 and Delta6 only
    xi = ["--set", "deformation.xi_u_L=1e308", "--out", "-"]
    assert run(["energy", "--t", "3", "--eps", "0.05", *xi]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: e_l3_ev is inf: the parameters overflow the float range"
    ]
    assert run(["crossover", "--t", "3", *xi]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "3.0,2.06782181e-308,5.62893227e-307"


def test_l3_only_override_leaves_the_crossover_alone(capsys):
    # the crossover gap reads the L1 and Delta6 wells only, so an L3 mass that
    # no well solve accepts fails the splitting but not the crossover
    l3 = ["--set", "masses.L3.m_in=1e-320", "--out", "-"]
    assert run(["crossover", "--t", "3", *l3]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["t_nm,eps_critical,x_critical",
                                         "3.0,0.0387586983,0.935351294"]
    assert captured.err == ""
    assert run(["splitting", "--t", "3", "--x", "1", *l3]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mass ratio m_in/m_out too small" in captured.err


def test_non_finite_inputs_rejected_cleanly(capsys):
    # a NaN strain used to print a bare `nan`, which is not JSON, with exit 0
    assert run(["energy", "--t", "3", "--eps", "nan", "--format", "json-lines",
                "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err
    # an infinite thickness used to leak the solver's "empty bracket" message
    assert run(["well", "--valley", "L1", "--t", "inf", "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err and "bracket" not in captured.err
    # a NaN deformation potential is a bad override, i.e. a usage error
    assert run(["crossover", "--t", "3", "--set", "deformation.xi_d_L=nan",
                "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_bad_grid_flags_are_usage_errors(capsys):
    # an infinite bound used to die with an OverflowError traceback and a
    # NaN step with "cannot convert float NaN to integer"
    assert run(["hc", "--x-max", "inf", "--out", "-"]) == 2
    assert run(["well", "--valley", "L1", "--t-step", "nan", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("must be finite") == 2
    assert "convert" not in captured.err


def test_well_limits_reach_user_as_domain_errors(capsys):
    # the relative binding of a 1e-9 nm well is below double precision
    assert run(["splitting", "--t", "1e-9", "--x", "1", "--out", "-"]) == 1
    assert run(["well", "--valley", "L3", "--t", "1e-9", "--out", "-"]) == 1
    thin = capsys.readouterr()
    # at the wide end the level is the hard-wall one to double precision,
    # and at 1e160 nm an intermediate would overflow
    assert run(["well", "--valley", "L1", "--t", "1e17", "--out", "-"]) == 1
    assert run(["well", "--valley", "L1", "--t", "1e160", "--out", "-"]) == 1
    wide = capsys.readouterr()
    assert thin.out == wide.out == ""
    assert thin.err.count("thicker well") == 2
    assert wide.err.count("use the hard-wall level") == 2
    for solver_text in ("sign change", "bracket", "domain error", "converge", "iteration"):
        assert solver_text not in thin.err + wide.err


def test_unwritable_path_exit_1(capsys):
    assert run(["well", "--valley", "L1", "--t", "3", "--out", "/nonexistent-dir/out.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["well", "--valley", "L1", "--t", "3", "--out", str(out)]) == 0
    assert os.listdir(tmp_path) == ["w.csv"]


# --- figure data ------------------------------------------------------------------

def test_figure_invalid_id(tmp_path, capsys):
    # a bad figure id is a malformed invocation, like a bad grid flag
    assert run(["figure", "--id", "fig6", "--out", str(tmp_path / "x.csv")]) == 2
    assert "fig6 is a schematic" in capsys.readouterr().err
    assert run(["figure", "--id", "fig99", "--out", str(tmp_path / "x.csv")]) == 2
    assert "valid ids" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


def test_figure_builds_the_parser_once(tmp_path, monkeypatch):
    builds = []
    build = cli._build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting_build)
    assert run(["figure", "--id", "fig7", "--out", str(tmp_path / "fig7.csv")]) == 0
    assert len(builds) == 1


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
    return argv + ["--format", "json-lines", "--out", "-"]


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
def test_every_invocation_gives_finite_json_or_a_clean_error(command, data):
    argv = data.draw(_invocation(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
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
