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
from pathlib import Path

from . import design, relaxation, well
from .errors import InfeasibleError, SolverError
from .materials import MaterialParams, Valley, default_params, replace, table1_set
from .valleys import bulk_levels

ENV_OUTDIR = "LVALLEY_OUTDIR"

# Largest sweep a grid flag may request; a tiny step is a usage error, not
# an allocation that runs until memory is exhausted.
MAX_GRID_POINTS = 100_000

_VALLEY_CHOICES = tuple(v.value for v in Valley)


class UsageError(Exception):
    """Malformed invocation: bad grid, bad override key, bad config line."""


# ---------------------------------------------------------------------------
# parameter overrides

_MASS_SEGMENTS = {"L1": "masses_l1", "L3": "masses_l3", "Delta6": "masses_delta6"}
_GROUP_FIELDS = ("elastic", "deformation", "quadratic", "lattice", "bands", "constants")


def _key_table(params: MaterialParams) -> dict[str, tuple[tuple[str, ...], str]]:
    """Each numeric override key -> (the MaterialParams fields it replaces, the field it sets)."""
    table = {}
    for group in _GROUP_FIELDS:
        obj = getattr(params, group)
        for name in obj.__slots__:
            if isinstance(getattr(obj, name), float):
                table[f"{group}.{name}"] = ((group,), name)
    table.update({f"masses.{seg}.m_in": ((attr,), "m_in") for seg, attr in _MASS_SEGMENTS.items()})
    # the barrier mass is one value shared by every valley
    table["masses.m_out"] = (tuple(_MASS_SEGMENTS.values()), "m_out")
    return table


def override_keys(params: MaterialParams) -> list[str]:
    """All dotted keys accepted by overrides, for error messages and docs."""
    return ["deformation.set", *_key_table(params)]


def apply_override(params: MaterialParams, key: str, raw_value: str) -> MaterialParams:
    """Apply one dotted-key override, e.g. ``deformation.xi_u_L = 16.14``.

    ``deformation.set`` selects a whole literature deformation-potential set
    by label; every other key takes a number.  An unknown key or a value
    the parameter set rejects is a usage error that names the key.
    """
    table = _key_table(params)
    if key not in table and key != "deformation.set":
        valid = ", ".join(override_keys(params))
        raise UsageError(f"unknown override key {key!r}; valid keys: {valid}")
    try:
        if key == "deformation.set":
            return replace(params, deformation=table1_set(raw_value))
        try:
            value = float(raw_value)
        except ValueError:
            raise UsageError(f"override {key!r}: {raw_value!r} is not a number") from None
        attrs, field = table[key]
        return replace(params, **{a: replace(getattr(params, a), **{field: value}) for a in attrs})
    except ValueError as err:
        raise UsageError(f"override {key!r} = {raw_value}: {err}") from None


def read_config(path: str | Path) -> list[tuple[str, str]]:
    """Parse a flat ``key = value`` config file with ``#`` comments."""
    pairs: list[tuple[str, str]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise UsageError(f"cannot read config file {path}: invalid UTF-8 at byte {err.start}") from None
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
        params = apply_override(params, key, value)
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
    """The output text; a cell that is inf or nan is a domain error naming its column."""
    for row in rows:
        for name, v in zip(header, row):
            if not math.isfinite(v):
                raise InfeasibleError(
                    f"{name} is {v}: the parameters overflow the float range", reason="non_finite"
                )
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
    """Write ``text`` to ``path`` through a temporary file and one rename.

    The file gets the mode ``open(path, "w")`` would leave: an existing file
    keeps its own, a new one gets 0o666 less the umask.
    """
    path = Path(path)
    try:
        mode = os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# grids and subcommands

def make_grid(lo: float, hi: float, step: float, name: str) -> list[float]:
    """Points lo, lo + step, ... up to hi; at most ``MAX_GRID_POINTS`` of them.

    The one place a grid's shape is checked: finite, ascending, non-empty
    and capped.  The library sweeps take any list of points.
    """
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


def _grid(ns: argparse.Namespace, axis: str) -> list[float]:
    """The single ``--AXIS`` value if given, else the ``--AXIS-min/max/step`` grid."""
    single = getattr(ns, axis, None)
    if single is not None:
        return [single]
    flags = f"--{axis}-min/--{axis}-max/--{axis}-step"
    return make_grid(
        getattr(ns, f"{axis}_min"), getattr(ns, f"{axis}_max"), getattr(ns, f"{axis}_step"), flags
    )


# Each subcommand is one function (params, ns) -> (header, rows).

def _energy(params: MaterialParams, ns: argparse.Namespace):
    if ns.eps is not None and ns.x is not None:
        raise UsageError("give either --eps or --x, not both")
    eps_grid = [design.x_to_strain(ns.x, params.lattice)] if ns.x is not None else _grid(ns, "eps")
    q_l1, q_l3, q_d6 = design.confinement_energies(params, ns.t)
    header = ["eps_par", "e_l1_ev", "e_l3_ev", "e_delta6_ev"]
    rows = []
    for e in eps_grid:
        # the same floats as bulk_energy(v, params, e).total + eq
        b_l1, b_l3, b_d6 = bulk_levels(params, e)
        rows.append((e, b_l1 + q_l1, b_l3 + q_l3, b_d6 + q_d6))
    return header, rows


def _well(params: MaterialParams, ns: argparse.Namespace):
    t_grid = _grid(ns, "t")
    if ns.valley is not None:
        masses = params.masses(Valley(ns.valley))
        return ["t_nm", "e_q_ev"], [(t, well._level(params, masses, t)) for t in t_grid]
    # one column per valley, in Valley order as confinement_energies returns them
    header = ["t_nm"] + [f"e_q_{v.value.lower()}_ev" for v in Valley]
    return header, [(t, *design.confinement_energies(params, t)) for t in t_grid]


def _feasible(points: list, failures: list[tuple[float, Exception]]) -> list:
    """A sweep's points; raises its first failure if no point succeeded, else warns per failure."""
    if not points:
        raise failures[0][1]
    for _, err in failures:  # each error names its thickness
        print(f"warning: {err}", file=sys.stderr)
    return points


def _crossover(params: MaterialParams, ns: argparse.Namespace):
    results = _feasible(*design.crossover_curve(params, _grid(ns, "t")))
    rows = [(r.thickness_t, r.eps_critical, r.x_critical) for r in results]
    return ["t_nm", "eps_critical", "x_critical"], rows


def _hc(params: MaterialParams, ns: argparse.Namespace):
    x_grid = _grid(ns, "x")
    if any(not 0.05 <= x <= 1.0 for x in x_grid):
        raise ValueError("Ge-fraction grid must lie within [0.05, 1]")
    elastic, b = params.elastic, params.constants.burgers_si
    rows = []
    for x in x_grid:
        r = relaxation.critical_thickness(relaxation.RelaxationInput(x, elastic, b))
        rows.append((x, r.misfit_f, r.nu_111, r.h_c))
    return ["x", "f", "nu_111", "h_c_nm"], rows


def _sensitivity(params: MaterialParams, ns: argparse.Namespace):
    bands = _feasible(*design.sensitivity_curve(params, _grid(ns, "t"), ns.mode))
    rows = [(b.thickness_t, b.x_low, b.x_nominal, b.x_high, b.clipped) for b in bands]
    return ["t_nm", "x_low", "x_nominal", "x_high", "clipped"], rows


def _splitting(params: MaterialParams, ns: argparse.Namespace):
    s = design.splitting_report(params, ns.t, ns.x)
    header = ["t_nm", "x", "delta6_minus_l1_ev", "l3_minus_l1_ev"]
    return header, [(ns.t, ns.x, s.delta6_minus_l1, s.l3_minus_l1)]


# The data sweep behind each figure is a fixed invocation of a subcommand,
# run with the caller's parameters, format and output path.
FIGURES = {
    "fig1": ["well", "--t-step", "0.1"],
    "fig2": ["energy", "--t", "10", "--eps-step", "1e-4"],
    "fig3": ["energy", "--t", "3", "--eps-step", "1e-4"],
    "fig4": ["crossover", "--t-step", "0.1"],
    "fig5": ["crossover", "--t-step", "0.1"],
    "fig7": ["hc"],
    "fig8": ["sensitivity", "--mode", "linear10pct"],
    "fig9": ["sensitivity", "--mode", "quadratic_range"],
    "fig10": ["sensitivity", "--mode", "both"],
}


def _figure(params: MaterialParams, ns: argparse.Namespace):
    if ns.id not in FIGURES:
        raise UsageError(
            f"unknown figure id {ns.id!r}; valid ids: {', '.join(FIGURES)} "
            "(fig6 is a schematic with no computed curve)"
        )
    preset = ns.parser.parse_args(FIGURES[ns.id])
    return preset.rows(params, preset)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _add_axis(sp, axis: str, lo: float, hi: float, step: float, single: str | None = None) -> None:
    """The ``--AXIS-min/max/step`` flags ``_grid`` reads, and ``--AXIS`` if ``single`` is its help."""
    if single:
        sp.add_argument(f"--{axis}", type=float, help=single)
    sp.add_argument(f"--{axis}-min", type=float, default=lo)
    sp.add_argument(f"--{axis}-max", type=float, default=hi)
    sp.add_argument(f"--{axis}-step", type=float, default=step)


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

    def command(name, rows, summary):
        sp = sub.add_parser(name, parents=[common], help=summary)
        sp.set_defaults(rows=rows)
        return sp

    sp = command("energy", _energy, "valley energies vs strain at fixed thickness")
    sp.add_argument("--t", type=float, required=True, help="well thickness, nm")
    sp.add_argument("--x", type=float, help="single Ge fraction instead of a sweep")
    _add_axis(sp, "eps", 0.0, 0.05, 0.001, single="single strain instead of a sweep")

    sp = command("well", _well, "confinement energy vs thickness")
    sp.add_argument("--valley", choices=_VALLEY_CHOICES, help="one valley; default: one column per valley")
    _add_axis(sp, "t", 1.0, 10.0, 0.1, single="single thickness, nm")

    sp = command("crossover", _crossover, "critical strain and Ge fraction vs thickness")
    _add_axis(sp, "t", 1.0, 10.0, 0.5, single="single thickness, nm")

    sp = command("hc", _hc, "critical thickness vs Ge fraction")
    _add_axis(sp, "x", 0.5, 1.0, 0.01, single="single Ge fraction")

    sp = command("sensitivity", _sensitivity, "critical-x envelopes under coefficient variation")
    sp.add_argument("--mode", choices=design.SENSITIVITY_MODES, default="both")
    _add_axis(sp, "t", 1.0, 10.0, 0.5, single="single thickness, nm")

    sp = command("splitting", _splitting, "valley splittings at one design point")
    sp.add_argument("--t", type=float, required=True, help="well thickness, nm")
    sp.add_argument("--x", type=float, required=True, help="barrier Ge fraction")

    sp = command("figure", _figure, "emit the data sweep behind one figure")
    sp.set_defaults(parser=p)  # the preset is parsed by this same parser
    sp.add_argument("--id", required=True, help="figure id, fig1..fig5 or fig7..fig10")

    return p


def _default_out(command: str, fmt: str) -> str:
    ext = "csv" if fmt == "csv" else "jsonl"
    outdir = os.environ.get(ENV_OUTDIR, ".")
    return str(Path(outdir) / f"{command}.{ext}")


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, build the rows, write output; returns the exit status."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        params = resolve_params(ns.config, ns.dp_set, ns.set)
        header, rows = ns.rows(params, ns)
        text = render(header, rows, ns.format)
        if ns.out == "-":
            sys.stdout.write(text)
        else:
            write_atomic(Path(ns.out or _default_out(ns.command, ns.format)), text)
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
