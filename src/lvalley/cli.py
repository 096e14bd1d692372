"""Command-line surface emitting deterministic CSV / JSON-lines sweep data.

Output is data, not rendered images; every numeric field is printed with
up to nine significant digits and a locale-independent decimal point, so
identical inputs always produce byte-identical files.  Files are written
atomically (temp file in the target directory, then rename).

Exit codes: 0 success, 1 domain/infeasibility/solver errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import design, relaxation, well
from .errors import InfeasibleError, SolverError
from .materials import MaterialParams, Valley, default_params, table1_set
from .valleys import bulk_energy

ENV_OUTDIR = "LVALLEY_OUTDIR"

# Largest sweep a grid flag may request; a tiny step is a usage error, not
# an allocation that runs until memory is exhausted.
MAX_GRID_POINTS = 100_000

_VALLEY_CHOICES = tuple(v.value for v in Valley)


class UsageError(Exception):
    """Malformed invocation: bad grid, bad override key, bad config line."""


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved CLI request."""

    command: str
    params: MaterialParams
    options: dict
    out: str            # path or "-" for stdout
    fmt: str            # "csv" or "json-lines"


# ---------------------------------------------------------------------------
# parameter overrides

_MASS_SEGMENTS = {"L1": "masses_l1", "L3": "masses_l3", "Delta6": "masses_delta6"}
_GROUP_FIELDS = ("elastic", "deformation", "quadratic", "lattice", "bands", "constants")


def override_keys(params: MaterialParams) -> list[str]:
    """All dotted keys accepted by overrides, for error messages and docs."""
    keys = ["deformation.set"]
    for group in _GROUP_FIELDS:
        obj = getattr(params, group)
        keys += [
            f"{group}.{f.name}"
            for f in fields(obj)
            if isinstance(getattr(obj, f.name), float)
        ]
    for seg, attr in _MASS_SEGMENTS.items():
        keys += [f"masses.{seg}.m_in", f"masses.{seg}.m_out"]
    return keys


def apply_override(params: MaterialParams, key: str, raw_value: str) -> MaterialParams:
    """Apply one dotted-key override, e.g. ``deformation.xi_u_L = 16.14``.

    ``deformation.set`` selects a whole literature deformation-potential set
    by label; every other key takes a number.
    """
    parts = key.split(".")
    if key == "deformation.set":
        return replace(params, deformation=table1_set(raw_value))
    try:
        value = float(raw_value)
    except ValueError:
        raise UsageError(f"override {key!r}: {raw_value!r} is not a number") from None
    if len(parts) == 3 and parts[0] == "masses":
        attr = _MASS_SEGMENTS.get(parts[1])
        if attr is None or parts[2] not in ("m_in", "m_out"):
            raise UsageError(_unknown_key_message(params, key))
        masses = getattr(params, attr)
        return replace(params, **{attr: replace(masses, **{parts[2]: value})})
    if len(parts) == 2 and parts[0] in _GROUP_FIELDS:
        group = getattr(params, parts[0])
        if parts[1] in {f.name for f in fields(group)} and isinstance(
            getattr(group, parts[1]), float
        ):
            try:
                return replace(params, **{parts[0]: replace(group, **{parts[1]: value})})
            except ValueError as err:
                raise UsageError(f"override {key!r} = {value:g}: {err}") from None
    raise UsageError(_unknown_key_message(params, key))


def _unknown_key_message(params: MaterialParams, key: str) -> str:
    return f"unknown override key {key!r}; valid keys: " + ", ".join(override_keys(params))


def read_config(path: str | Path) -> list[tuple[str, str]]:
    """Parse a flat ``key = value`` config file with ``#`` comments."""
    pairs: list[tuple[str, str]] = []
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err.strerror}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def resolve_params(
    config_file: str | None,
    dp_set: str | None,
    set_flags: list[str] | None,
) -> MaterialParams:
    """Defaults, then config-file pairs, then flags (flags win)."""
    params = default_params()
    pairs: list[tuple[str, str]] = []
    if config_file:
        pairs += read_config(config_file)
    if dp_set:
        pairs.append(("deformation.set", dp_set))
    for item in set_flags or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    for key, value in pairs:
        try:
            params = apply_override(params, key, value)
        except ValueError as err:
            raise UsageError(str(err)) from None
    return params


# ---------------------------------------------------------------------------
# deterministic rendering and atomic output

def format_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    s = format(float(value), ".9g")
    if "." not in s and "e" not in s and "E" not in s and s.lstrip("+-").isdigit():
        s += ".0"
    return s


def render(header: list[str], rows: list[tuple], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(format_number(v) for v in row) for row in rows]
    elif fmt == "json-lines":
        lines = [
            "{" + ", ".join(f'"{k}": {format_number(v)}' for k, v in zip(header, row)) + "}"
            for row in rows
        ]
    else:
        raise UsageError(f"unknown output format {fmt!r}")
    return "\n".join(lines) + "\n"


def write_atomic(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(cfg: RunConfig, header: list[str], rows: list[tuple]) -> None:
    text = render(header, rows, cfg.fmt)
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        write_atomic(Path(cfg.out), text)


# ---------------------------------------------------------------------------
# grids and command builders

def make_grid(lo: float, hi: float, step: float, name: str) -> list[float]:
    """Points lo, lo + step, ... up to hi; at most ``MAX_GRID_POINTS`` of them."""
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise UsageError(f"{name}: min, max and step must be finite numbers")
    if step <= 0.0:
        raise UsageError(f"{name}: step must be > 0, got {step:g}")
    if hi < lo:
        raise UsageError(f"{name}: max {hi:g} is below min {lo:g}")
    # (hi - lo) may overflow to inf, which the comparison also rejects
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise UsageError(
            f"{name}: the grid would have more than {MAX_GRID_POINTS} points; "
            "use a larger step or a narrower range"
        )
    n = int(math.floor(span)) + 1
    return [lo + i * step for i in range(n)]


def _energy_rows(params: MaterialParams, t: float, eps_grid: list[float]):
    header = ["eps_par", "e_l1_ev", "e_l3_ev", "e_delta6_ev"]
    eqs = design.confinement_energies(params, t)
    rows = [
        (
            e,
            bulk_energy(Valley.L1, params, e).total + eqs[Valley.L1],
            bulk_energy(Valley.L3, params, e).total + eqs[Valley.L3],
            bulk_energy(Valley.DELTA6, params, e).total + eqs[Valley.DELTA6],
        )
        for e in eps_grid
    ]
    return header, rows


def _crossover_rows(params: MaterialParams, t_grid: list[float]):
    header = ["t_nm", "eps_critical", "x_critical"]
    results, failures = design.crossover_curve(params, t_grid)
    for t, err in failures:
        print(f"warning: t = {t:g} nm: {err}", file=sys.stderr)
    if failures and not results:
        raise failures[0][1]
    rows = [(r.thickness_t, r.eps_critical, r.x_critical) for r in results]
    return header, rows


def _hc_rows(params: MaterialParams, x_grid: list[float]):
    header = ["x", "f", "nu_111", "h_c_nm"]
    inp = relaxation.RelaxationInput(
        ge_fraction_x=x_grid[0],
        elastic=params.elastic,
        burgers_b=params.constants.burgers_si,
    )
    rows = [
        (x, r.misfit_f, r.nu_111, r.h_c)
        for x, r in zip(x_grid, relaxation.hc_curve(inp, x_grid))
    ]
    return header, rows


def _sensitivity_rows(params: MaterialParams, t_grid: list[float], mode: str):
    header = ["t_nm", "x_low", "x_nominal", "x_high", "clipped"]
    bands = design.sensitivity_band(params, t_grid, mode)
    rows = [(b.thickness_t, b.x_low, b.x_nominal, b.x_high, b.clipped) for b in bands]
    return header, rows


def _build_energy(params, opt):
    return _energy_rows(params, opt["t"], opt["eps_grid"])


def _build_well(params, opt):
    header = ["t_nm", "e_q_ev"]
    pairs = well.eq_vs_thickness(opt["valley"], params, opt["t_grid"])
    return header, list(pairs)


def _build_crossover(params, opt):
    return _crossover_rows(params, opt["t_grid"])


def _build_hc(params, opt):
    return _hc_rows(params, opt["x_grid"])


def _build_sensitivity(params, opt):
    return _sensitivity_rows(params, opt["t_grid"], opt["mode"])


def _build_splitting(params, opt):
    header = ["t_nm", "x", "delta6_minus_l1_ev", "l3_minus_l1_ev"]
    s = design.splitting_report(params, opt["t"], opt["x"])
    return header, [(opt["t"], opt["x"], s.delta6_minus_l1, s.l3_minus_l1)]


_BUILDERS = {
    "energy": _build_energy,
    "well": _build_well,
    "crossover": _build_crossover,
    "hc": _build_hc,
    "sensitivity": _build_sensitivity,
    "splitting": _build_splitting,
}


# ---------------------------------------------------------------------------
# figure data

FIGURE_IDS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10",
)


def _figure_data(figure_id: str, params: MaterialParams):
    if figure_id == "fig1":
        header = ["t_nm", "e_q_l1_ev", "e_q_l3_ev", "e_q_delta6_ev"]
        t_grid = make_grid(1.0, 10.0, 0.1, "fig1 t grid")
        rows = [
            (t,) + tuple(design.confinement_energies(params, t)[v] for v in Valley)
            for t in t_grid
        ]
        return header, rows
    if figure_id in ("fig2", "fig3"):
        t = 10.0 if figure_id == "fig2" else 3.0
        return _energy_rows(params, t, make_grid(0.0, 0.05, 1e-4, "strain grid"))
    if figure_id in ("fig4", "fig5"):
        return _crossover_rows(params, make_grid(1.0, 10.0, 0.1, "t grid"))
    if figure_id == "fig7":
        return _hc_rows(params, make_grid(0.5, 1.0, 0.01, "x grid"))
    if figure_id in ("fig8", "fig9", "fig10"):
        mode = {"fig8": "linear10pct", "fig9": "quadratic_range", "fig10": "both"}[figure_id]
        return _sensitivity_rows(params, make_grid(1.0, 10.0, 0.5, "t grid"), mode)
    raise ValueError(
        f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)} "
        "(fig6 is a schematic with no computed curve)"
    )


def emit_figure_data(
    figure_id: str, params: MaterialParams, path: str | Path, fmt: str = "csv"
) -> None:
    """Write the exact data sweep behind one figure to ``path``."""
    header, rows = _figure_data(figure_id, params)
    write_atomic(Path(path), render(header, rows, fmt))


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file with dotted keys")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one parameter, e.g. deformation.xi_u_L=16.14 (repeatable)",
    )
    common.add_argument(
        "--dp-set",
        metavar="LABEL",
        help="select a literature deformation-potential set, e.g. fischetti1996",
    )
    common.add_argument("--out", help="output path ('-' for stdout); default <outdir>/<command>.<ext>")
    common.add_argument(
        "--format", choices=("csv", "json-lines"), default="csv", help="output format"
    )

    p = argparse.ArgumentParser(
        prog="lvalley",
        description="Valley-crossover design data for strained SiGe/Si(111)/SiGe wells",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("energy", parents=[common], help="valley energies vs strain at fixed thickness")
    sp.add_argument("--t", type=float, required=True, help="well thickness, nm")
    sp.add_argument("--eps", type=float, help="single strain instead of a sweep")
    sp.add_argument("--x", type=float, help="single Ge fraction instead of a sweep")
    sp.add_argument("--eps-min", type=float, default=0.0)
    sp.add_argument("--eps-max", type=float, default=0.05)
    sp.add_argument("--eps-step", type=float, default=0.001)

    sp = sub.add_parser("well", parents=[common], help="confinement energy vs thickness")
    sp.add_argument("--valley", choices=_VALLEY_CHOICES, required=True)
    sp.add_argument("--t", type=float, help="single thickness, nm")
    sp.add_argument("--t-min", type=float, default=1.0)
    sp.add_argument("--t-max", type=float, default=10.0)
    sp.add_argument("--t-step", type=float, default=0.1)

    sp = sub.add_parser("crossover", parents=[common], help="critical strain and Ge fraction vs thickness")
    sp.add_argument("--t", type=float, help="single thickness, nm")
    sp.add_argument("--t-min", type=float, default=1.0)
    sp.add_argument("--t-max", type=float, default=10.0)
    sp.add_argument("--t-step", type=float, default=0.5)

    sp = sub.add_parser("hc", parents=[common], help="critical thickness vs Ge fraction")
    sp.add_argument("--x", type=float, help="single Ge fraction")
    sp.add_argument("--x-min", type=float, default=0.5)
    sp.add_argument("--x-max", type=float, default=1.0)
    sp.add_argument("--x-step", type=float, default=0.01)

    sp = sub.add_parser("sensitivity", parents=[common], help="critical-x envelopes under coefficient variation")
    sp.add_argument("--mode", choices=design.SENSITIVITY_MODES, default="both")
    sp.add_argument("--t-min", type=float, default=1.0)
    sp.add_argument("--t-max", type=float, default=10.0)
    sp.add_argument("--t-step", type=float, default=0.5)

    sp = sub.add_parser("splitting", parents=[common], help="valley splittings at one design point")
    sp.add_argument("--t", type=float, required=True, help="well thickness, nm")
    sp.add_argument("--x", type=float, required=True, help="barrier Ge fraction")

    sp = sub.add_parser("figure", parents=[common], help="emit the data sweep behind one figure")
    sp.add_argument("--id", required=True, help="figure id, fig1..fig5 or fig7..fig10")

    return p


def _collect_options(ns: argparse.Namespace, params: MaterialParams) -> dict:
    cmd = ns.command
    if cmd == "energy":
        if ns.eps is not None and ns.x is not None:
            raise UsageError("give either --eps or --x, not both")
        if ns.eps is not None:
            grid = [ns.eps]
        elif ns.x is not None:
            grid = [design.x_to_strain(ns.x, params.lattice)]
        else:
            grid = make_grid(ns.eps_min, ns.eps_max, ns.eps_step, "--eps-min/--eps-max/--eps-step")
        return {"t": ns.t, "eps_grid": grid}
    if cmd == "well":
        grid = [ns.t] if ns.t is not None else make_grid(ns.t_min, ns.t_max, ns.t_step, "--t-min/--t-max/--t-step")
        return {"valley": Valley(ns.valley), "t_grid": grid}
    if cmd == "crossover":
        grid = [ns.t] if ns.t is not None else make_grid(ns.t_min, ns.t_max, ns.t_step, "--t-min/--t-max/--t-step")
        return {"t_grid": grid}
    if cmd == "hc":
        grid = [ns.x] if ns.x is not None else make_grid(ns.x_min, ns.x_max, ns.x_step, "--x-min/--x-max/--x-step")
        return {"x_grid": grid}
    if cmd == "sensitivity":
        grid = make_grid(ns.t_min, ns.t_max, ns.t_step, "--t-min/--t-max/--t-step")
        return {"t_grid": grid, "mode": ns.mode}
    if cmd == "splitting":
        return {"t": ns.t, "x": ns.x}
    return {"figure_id": ns.id}


def _default_out(command: str, fmt: str) -> str:
    ext = "csv" if fmt == "csv" else "jsonl"
    outdir = os.environ.get(ENV_OUTDIR, ".")
    return str(Path(outdir) / f"{command}.{ext}")


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, write output; returns the exit status."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        params = resolve_params(ns.config, ns.dp_set, ns.set)
        options = _collect_options(ns, params)
        cfg = RunConfig(
            command=ns.command,
            params=params,
            options=options,
            out=ns.out or _default_out(ns.command, ns.format),
            fmt=ns.format,
        )
        if cfg.command == "figure":
            header, rows = _figure_data(options["figure_id"], params)
        else:
            header, rows = _BUILDERS[cfg.command](params, options)
        _emit(cfg, header, rows)
        return 0
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (InfeasibleError, SolverError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
