"""Correctness gate: every item against references made from the seed code.

The gate compares by tolerance, never by bytes, so a later exact or
closed-form solver that moves digits inside the seed solver's stated
accuracy still passes:

* strain: the crossover solver's bracket tolerance, ``xtol = 1e-9``;
* Ge fraction: that strain tolerance divided by the smallest slope of the
  Vegard strain over [0, 1], plus the 1e-12 of the Vegard inversion;
* energies: two confinement energies, each within the well solver's
  nominal 1e-12 eV, differenced on ~2 eV totals; 1e-11 eV;
* critical thickness: 1e-9 relative (the fixed point stops at 1e-12 nm);
* CLI cells are printed with nine significant digits, so each gets one
  unit in the ninth digit, 1e-8 relative, on top.

Sensitivity bands and CLI outputs are compared with values frozen from the
seed in reference.json; design-window points are new for every seed and
are compared with :mod:`oracle`, which is itself checked against frozen
seed outputs first.
"""

import json
import math
from pathlib import Path

from oracle import Oracle

STRAIN_TOL = 1e-9
ENERGY_TOL_EV = 1e-11
HC_REL_TOL = 1e-9
PRINTED_REL = 1e-8

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference():
    ref = json.loads(REFERENCE.read_text())
    p = ref["params"]
    slope = min(p["a_ge"] - p["a_si"] + p["bowing_b"] * s for s in (1.0, -1.0)) / p["a_si"]
    ref["x_tol"] = STRAIN_TOL / slope + 1e-12
    return ref


def _close(got, want, tol):
    return abs(got - want) <= tol


def parse_records(path):
    """(fields or None, latency_s, error) per line of a child's record file."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("!"):
                lat, _, err = line[1:].partition(",")
                out.append((None, int(lat) * 1e-9, err))
            else:
                fields = line.split(",")
                out.append((fields[:-1], int(fields[-1]) * 1e-9, None))
    return out


def check_sensitivity(fields, ref):
    """Problems with one band record: mode, t, x_low, x_nominal, x_high, clipped."""
    mode = fields[0].strip("'")
    t, lo, nom, hi = map(float, fields[1:5])
    clipped = int(fields[5])
    want = ref["sensitivity"][mode][repr(t)]
    tol = ref["x_tol"]
    problems = []
    for name, got, w in zip(("x_low", "x_nominal", "x_high"), (lo, nom, hi), want):
        if not _close(got, w, tol):
            problems.append(f"{mode} t={t}: {name} {got!r} vs {w!r}")
    if clipped != want[3]:
        problems.append(f"{mode} t={t}: clipped {clipped} vs {want[3]}")
    if not lo <= nom <= hi:
        problems.append(f"{mode} t={t}: x_low <= x_nominal <= x_high violated")
    return problems


def check_design(fields, oracle):
    """Problems with one design record: t, x, d6-l1, l3-l1, h_c, feasible.

    The feasibility flag is derived from d6-l1 and h_c in the same record,
    so the tolerance checks on those two values gate it as well.
    """
    t, x, d6, l3, hc = map(float, fields[:5])
    w_d6, w_l3 = oracle.splitting(t, x)
    w_hc = oracle.critical_thickness(x)
    problems = []
    if not _close(d6, w_d6, ENERGY_TOL_EV):
        problems.append(f"t={t!r} x={x!r}: delta6-l1 {d6!r} vs {w_d6!r}")
    if not _close(l3, w_l3, ENERGY_TOL_EV):
        problems.append(f"t={t!r} x={x!r}: l3-l1 {l3!r} vs {w_l3!r}")
    if not _close(hc, w_hc, HC_REL_TOL * w_hc):
        problems.append(f"x={x!r}: h_c {hc!r} vs {w_hc!r}")
    return problems


def check_oracle(ref):
    """The oracle, and problems where it disagrees with the frozen seed probes."""
    oracle = Oracle(ref["params"])
    problems = []
    for t, x, d6, l3, hc in ref["design_probes"]:
        w_d6, w_l3 = oracle.splitting(t, x)
        w_hc = oracle.critical_thickness(x)
        if not (_close(w_d6, d6, ENERGY_TOL_EV) and _close(w_l3, l3, ENERGY_TOL_EV)
                and _close(w_hc, hc, HC_REL_TOL * hc)):
            problems.append(f"design reference disagrees with the seed at t={t!r} x={x!r}")
    return oracle, problems


def parse_table(text):
    """(header, rows) of a CSV or JSON-lines output; cells as floats."""
    lines = text.splitlines()
    if lines and lines[0].startswith("{"):
        objs = [json.loads(line) for line in lines]
        header = list(objs[0]) if objs else []
        if any(list(o) != header for o in objs):
            raise ValueError("json-lines rows have differing keys")
        return header, [[float(v) for v in o.values()] for o in objs]
    if not lines:
        raise ValueError("empty output")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


# Absolute tolerance per output column, on top of the printed-digit slack.
_COLUMN_TOL = {
    "eps_critical": STRAIN_TOL,
    "e_l1_ev": ENERGY_TOL_EV,
    "e_l3_ev": ENERGY_TOL_EV,
    "e_delta6_ev": ENERGY_TOL_EV,
    "e_q_ev": ENERGY_TOL_EV,
    "delta6_minus_l1_ev": ENERGY_TOL_EV,
    "l3_minus_l1_ev": ENERGY_TOL_EV,
}
_X_COLUMNS = ("x_critical", "x_low", "x_nominal", "x_high")


def check_table(text, want, ref):
    """Problems with one CLI output against its frozen header and rows."""
    try:
        header, rows = parse_table(text)
    except ValueError as err:
        return [f"unparseable output: {err}"]
    if header != want["header"]:
        return [f"header {header} vs {want['header']}"]
    if len(rows) != len(want["rows"]):
        return [f"{len(rows)} rows vs {len(want['rows'])}"]
    problems = []
    for got_row, want_row in zip(rows, want["rows"]):
        for col, got, w in zip(header, got_row, want_row):
            if col == "h_c_nm":
                tol = HC_REL_TOL * abs(w)
            elif col in _X_COLUMNS:
                tol = ref["x_tol"]
            else:
                tol = _COLUMN_TOL.get(col, 0.0)
            if not (math.isfinite(got) and _close(got, w, tol + PRINTED_REL * abs(w))):
                problems.append(f"{col} {got!r} vs {w!r}")
    return problems
