"""Command-line surface emitting deterministic CSV / JSON-lines sweep data.

Output is data, not rendered images; every numeric field is printed with
up to nine significant digits and a locale-independent decimal point, so
identical inputs always produce byte-identical files.  Regular files are
written atomically (temp file in the target directory, then rename).

This module is the part every invocation runs: the command table, argument
parsing, parameter resolution, rendering and the atomic write.  The rest is
imported on demand: each command's row builder from
``lvalley.commands.<name>`` once the command line has parsed, the
``--config``/``--set``/``--dp-set`` surface from :mod:`lvalley.overrides`
only when one of those flags is given, and the ``--help`` listings from
``lvalley.commands.help`` only for ``--help``.

Exit codes: 0 success, 1 domain/infeasibility/solver errors, 2 usage errors.
"""

from __future__ import annotations

import errno
import gc
import math
import os
import stat
import sys
from types import SimpleNamespace

from .errors import InfeasibleError, SolverError, UsageError
from .materials import SENSITIVITY_MODES, MaterialParams, Valley, default_params

ENV_OUTDIR = "LVALLEY_OUTDIR"

# Largest sweep a grid flag may request; a tiny step is a usage error, not
# an allocation that runs until memory is exhausted.
MAX_GRID_POINTS = 100_000

_VALLEY_CHOICES = tuple(v.value for v in Valley)


# ---------------------------------------------------------------------------
# parameters

def resolve_params(
    config_file: str | None,
    dp_set: str | None,
    set_flags: list[str] | None,
) -> MaterialParams:
    """Defaults, then config-file pairs, then flags (flags win).

    :mod:`lvalley.overrides` is imported only when an override is given.
    """
    params = default_params()
    if not (config_file or dp_set or set_flags):
        return params
    from .overrides import apply_override, read_config

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
    if s.lstrip("+-").isdigit():
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


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path``, a regular file through a temporary file and one rename.

    A symlink is followed: its target gets the bytes and the link stays.  A
    path that exists and is not a regular file, such as a FIFO or a device,
    is written in place with ``open(path, "w")``.  A regular or new file gets
    the mode ``open(path, "w")`` would leave: an existing file keeps its own,
    a new one gets 0o666 less the umask, which ``os.open`` applies as
    ``open`` does.
    """
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        if mode is not None:
            os.chmod(tmp, mode & 0o777)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# grids and sweeps

def make_grid(lo: float, hi: float, step: float, name: str) -> list[float]:
    """Points lo, lo + step, ... up to hi; at most ``MAX_GRID_POINTS`` of them.

    The one place a grid's shape is checked: finite, ascending, non-empty
    and capped.  The library sweeps take any list of points.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise UsageError(f"{name}: min, max and step must be finite numbers")
    if step <= 0.0:
        raise UsageError(f"{name}: step must be > 0, got {step:.9g}")
    if hi < lo:
        raise UsageError(f"{name}: max {hi:.9g} is below min {lo:.9g}")
    # (hi - lo) may overflow to inf, which the comparison also rejects
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise UsageError(
            f"{name}: the grid would have more than {MAX_GRID_POINTS} points; "
            "use a larger step or a narrower range"
        )
    n = int(math.floor(span)) + 1
    # the tolerance above may admit a last point a rounding error past hi
    return [min(lo + i * step, hi) for i in range(n)]


def _grid(ns: SimpleNamespace, axis: str) -> list[float]:
    """The single ``--AXIS`` value if given, else the ``--AXIS-min/max/step`` grid."""
    single = getattr(ns, axis, None)
    if single is not None:
        return [single]
    flags = f"--{axis}-min/--{axis}-max/--{axis}-step"
    return make_grid(
        getattr(ns, f"{axis}_min"), getattr(ns, f"{axis}_max"), getattr(ns, f"{axis}_step"), flags
    )


def _diagnose(line: str) -> None:
    """Write one ``warning:`` or ``error:`` line to standard error, and never to standard output.

    With fd 2 closed, ``sys.stderr`` is None, where ``print`` would fall back to
    standard output.  A write that fails drops the stream: the failed line stays
    in its buffer, and the interpreter's exit flush would fail on it again.
    """
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        sys.stderr = None


def _feasible(points: list, failures: list[tuple[float, Exception]]) -> list:
    """A sweep's points; raises its first failure if no point succeeded, else warns per failure."""
    if not points:
        raise failures[0][1]
    for _, err in failures:  # each error names its point
        _diagnose(f"warning: {err}")
    return points


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


# ---------------------------------------------------------------------------
# the command table, argument parsing and dispatch

# A flag is (kind, default, help): kind is float, str, list (repeatable) or a
# tuple of choices, and a default of _REQUIRED marks a flag that must be given.
_REQUIRED = object()


def _axis(axis: str, lo: float, hi: float, step: float, single: str) -> dict:
    """The ``--AXIS`` flag and the ``--AXIS-min/max/step`` grid flags ``_grid`` reads."""
    return {
        f"--{axis}": (float, None, single),
        f"--{axis}-min": (float, lo, "first grid point"),
        f"--{axis}-max": (float, hi, "last grid point"),
        f"--{axis}-step": (float, step, "grid step"),
    }


_COMMON = {
    "--config": (str, None, "flat key = value config file with dotted keys"),
    "--set": (list, None, "override one parameter as KEY=VALUE, e.g. deformation.xi_u_L=16.14"),
    "--dp-set": (str, None, "select a literature deformation-potential set, e.g. fischetti1996"),
    "--out": (str, None, "output path ('-' for stdout); default <outdir>/<command>.<ext>"),
    "--format": (("csv", "json-lines"), "csv", "output format"),
}

# Each command is (summary, its own flags); every command also takes _COMMON.  Its row
# builder is ``rows`` of the module ``lvalley.commands.<name>``, which _parse imports.
_COMMANDS = {
    "energy": ("valley energies vs strain at fixed thickness", {
        "--t": (float, _REQUIRED, "well thickness, nm"),
        "--x": (float, None, "single Ge fraction instead of a sweep"),
        **_axis("eps", 0.0, 0.05, 0.001, "single strain instead of a sweep"),
    }),
    "well": ("confinement energy vs thickness", {
        "--valley": (_VALLEY_CHOICES, None, "one valley; default: one column per valley"),
        **_axis("t", 1.0, 10.0, 0.1, "single thickness, nm"),
    }),
    "crossover": ("critical strain and Ge fraction vs thickness",
                  _axis("t", 1.0, 10.0, 0.5, "single thickness, nm")),
    "hc": ("critical thickness vs Ge fraction", _axis("x", 0.5, 1.0, 0.01, "single Ge fraction")),
    "sensitivity": ("critical-x envelopes under coefficient variation", {
        "--mode": (SENSITIVITY_MODES, "both", "which coefficients vary"),
        **_axis("t", 1.0, 10.0, 0.5, "single thickness, nm"),
    }),
    "splitting": ("valley splittings at one design point", {
        "--t": (float, _REQUIRED, "well thickness, nm"),
        "--x": (float, _REQUIRED, "barrier Ge fraction"),
    }),
    "figure": ("emit the data sweep behind one figure", {
        "--id": (str, _REQUIRED, "figure id, fig1..fig5 or fig7..fig10"),
    }),
}
_HELP = ("-h", "--help")


class _Help(Exception):
    """--help was given; the argument is the listing to print."""


def _command_module(name: str):
    """The module ``lvalley.commands.<name>``, imported on first use."""
    return __import__(f"{__package__}.commands.{name}", fromlist=["rows"])


def _is_negative_number(token: str) -> bool:
    """argparse's negative-number test of a token starting with '-'.

    That is ``re.match(r"^-\\d+$|^-\\d*\\.\\d+$", token)``, whose ``\\d`` is
    ``str.isdecimal`` and whose ``$`` also matches before a final newline;
    so ``-3`` and ``-.5`` are values, and ``-1e-3`` is not.
    """
    whole, dot, frac = token.removesuffix("\n")[1:].partition(".")
    return whole.isdecimal() if not dot else (not whole or whole.isdecimal()) and frac.isdecimal()


def _option(token: str, names) -> tuple[str | None, str | None] | None:
    """How argparse reads ``token`` against ``names``: None for a value, else (flag, value after '=').

    A token is a value when it does not start with '-', is '-', looks like a
    negative number or holds a space.  An option is a flag, FLAG=VALUE or a
    unique prefix of either (-hX is -h given X); an ambiguous prefix and a
    bare '--' are usage errors, and an option that is no flag reads as
    (None, None).
    """
    if token[:1] != "-" or token == "-":
        return None
    if token == "--":
        raise UsageError("a bare -- is not accepted; give each flag as --flag value or --flag=value")
    if token in names:
        return token, None
    flag, eq, value = token.partition("=")
    explicit = value if eq else None
    if flag in names:
        return flag, explicit
    if token[1] == "-":
        matches = [name for name in names if name.startswith(flag)]
    else:
        matches, explicit = (["-h"], token[2:]) if token.startswith("-h") else ([], None)
    if len(matches) > 1:
        raise UsageError(f"ambiguous flag {token}: could be {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    if _is_negative_number(token) or " " in token:
        return None
    return None, None


def _parse(argv: list[str]) -> SimpleNamespace:
    """``command``, its row builder ``rows`` and one attribute per flag of the invocation ``argv``.

    Reads ``argv`` against ``_COMMANDS`` as argparse read the same table:
    ``--flag value`` or ``--flag=value``, a unique prefix of a flag, the last
    value of a flag winning and ``--set`` collecting.  A malformed invocation
    raises UsageError and --help raises _Help.  Only a clean parse imports
    the command's module, whose ``rows`` is the row builder.
    """
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        if command and _option(command, _HELP) in [(flag, None) for flag in _HELP]:
            raise _Help(_command_module("help").listing(None))
        what = f"unknown command {command!r}" if argv else "no command given"
        raise UsageError(f"{what}; valid commands: {', '.join(_COMMANDS)}")
    _, own = _COMMANDS[command]
    flags = {**own, **_COMMON}
    values = {flag: default for flag, (_, default, _) in flags.items()}
    names, tokens = [*flags, *_HELP], argv[1:]
    options = [_option(token, names) for token in tokens]
    stray = []
    i = 0
    while i < len(tokens):
        flag, value = options[i] or (None, None)
        if flag is None:
            stray.append(tokens[i])
        elif flag in _HELP:
            if value is not None:
                raise UsageError(f"{flag} takes no value")
            raise _Help(_command_module("help").listing(command))
        else:
            if value is None:
                if i + 1 == len(tokens) or options[i + 1] is not None:
                    raise UsageError(f"{flag} needs a value")
                i += 1
                value = tokens[i]
            kind = flags[flag][0]
            if kind is float:
                try:
                    value = float(value)
                except ValueError:
                    raise UsageError(f"{flag}: {value!r} is not a number") from None
            elif isinstance(kind, tuple) and value not in kind:
                raise UsageError(f"{flag}: {value!r} is not one of {', '.join(kind)}")
            values[flag] = [*(values[flag] or ()), value] if kind is list else value
        i += 1
    missing = [flag for flag, value in values.items() if value is _REQUIRED]
    if missing:
        raise UsageError(f"{command} needs {' and '.join(missing)}")
    if stray:
        raise UsageError(f"{command}: unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(
        command=command,
        rows=_command_module(command).rows,
        **{flag[2:].replace("-", "_"): v for flag, v in values.items()},
    )


def _default_out(command: str, fmt: str) -> str:
    name = f"{command}.{'csv' if fmt == 'csv' else 'jsonl'}"
    outdir = os.environ.get(ENV_OUTDIR, ".")
    return name if outdir in ("", ".") else os.path.join(outdir, name)


def _emit(out: str, text: str) -> int:
    """Write ``text`` to the path ``out``, or to standard output for '-'; 0, or 1 with one error line."""
    try:
        if out != "-":
            write_atomic(out, text)
        elif sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a pipe with no reader fails here, not at exit
        return 0
    except OSError as err:
        where = "standard output" if out == "-" else out
        _diagnose(f"error: cannot write output: {where}: {err.strerror or err}")
        return 1


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, build the rows, write output; returns the exit status."""
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)
        out = _default_out(ns.command, ns.format) if ns.out is None else ns.out
        if not out:
            raise UsageError("--out needs a path, or '-' for standard output")
        for flag, value in (("--config", ns.config), ("--dp-set", ns.dp_set)):
            if value == "":  # which resolve_params would read as the flag not given
                raise UsageError(f"{flag} needs a value")
        params = resolve_params(ns.config, ns.dp_set, ns.set)
        header, rows = ns.rows(params, ns)
        return _emit(out, render(header, rows, ns.format))
    except _Help as listing:
        return _emit("-", str(listing))
    except UsageError as err:
        _diagnose(f"error: {err}")
        return 2
    except (InfeasibleError, SolverError, ValueError) as err:
        _diagnose(f"error: {err}")
        return 1


def main() -> None:
    """The command line's entry point: :func:`run`, then exit with its status."""
    code = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # run has named the failure; a failed buffer keeps its bytes, so point fd 1
        # at the null device or the interpreter's exit flush fails on them again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    # the process is about to exit: its last collections would only walk objects the OS reclaims
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
