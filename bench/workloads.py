"""Workload definitions shared by the benchmark parent and its child interpreters.

Standard library only: the parent never imports lvalley, and the children
import this module before the timed set-up ends, so it must stay cheap.
"""

import math

WORKLOADS = {
    "sensitivity-both": (
        "fig8/9/10 sensitivity sweeps, one SensitivityBand per item: the crossover "
        "root, corner construction and per-call strain tensors do almost all the work"
    ),
    "design-window": (
        "seeded (t, x) points, log-uniform t: fresh well solves and People-Bean per "
        "item, no crossover root or corners, and t never repeats"
    ),
    "cli-cold": (
        "fixed script of python -m lvalley invocations, each a fresh interpreter: "
        "start-up, numpy import, argparse, render and atomic writes dominate"
    ),
}

# A p90 is reported only with at least ten samples beyond it.
MIN_ITEMS = 100

SENSITIVITY_MODES = ("linear10pct", "quadratic_range", "both")
# The 1-10 nm step 0.5 grid of figures 8-10, built the way the CLI builds it.
T_GRID = [1.0 + i * 0.5 for i in range(19)]

T_RANGE_NM = (0.5, 50.0)  # the supported crossover thickness range
X_RANGE = (0.05, 1.0)     # the Ge fractions the critical-thickness grid accepts

# design-window points per timed batch, about 0.8 s of work: each batch is
# one window between two runs of the speed gauge (calibrate.py).
DESIGN_BATCH = 4000

# design-window items per traced run: a fixed amount of work, so the traced
# counts repeat exactly for a given seed.
TRACE_DESIGN_ITEMS = 1000


def sensitivity_pass(rng):
    """All 57 (mode, t) items of one fig8+fig9+fig10 pass, in seeded order."""
    items = [(mode, t) for mode in SENSITIVITY_MODES for t in T_GRID]
    rng.shuffle(items)
    return items


def design_point(rng):
    """One (t, x) point: t log-uniform over T_RANGE_NM, x uniform over X_RANGE."""
    lo, hi = T_RANGE_NM
    t = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return t, rng.uniform(*X_RANGE)


# The cli-cold script: (name, argv after ``python -m lvalley``, expected exit
# code).  ``{dir}`` is the invocation's own empty directory and ``{conf}`` the
# config file written once per run.  Together the entries cover every
# subcommand, both formats, stdout and atomic file output, a config file with
# a --set override, a --dp-set, one domain error and one usage error.
CLI_SCRIPT = (
    ("energy-sweep", ["energy", "--t", "3", "--eps-min", "0", "--eps-max", "0.05",
                      "--eps-step", "0.0025", "--out", "-"], 0),
    ("energy-x-file", ["energy", "--t", "3", "--x", "0.9", "--format", "json-lines",
                       "--out", "{dir}/energy.jsonl"], 0),
    ("well-sweep", ["well", "--valley", "L1", "--t-min", "1", "--t-max", "10",
                    "--t-step", "0.5", "--out", "-"], 0),
    ("well-point", ["well", "--valley", "Delta6", "--t", "3", "--format", "json-lines",
                    "--out", "-"], 0),
    ("crossover-file", ["crossover", "--t-min", "2", "--t-max", "6", "--t-step", "1",
                        "--out", "{dir}/crossover.csv"], 0),
    ("hc-sweep", ["hc", "--x-min", "0.5", "--x-max", "1", "--x-step", "0.05",
                  "--format", "json-lines", "--out", "-"], 0),
    ("sensitivity-linear", ["sensitivity", "--mode", "linear10pct", "--t-min", "3",
                            "--t-max", "4", "--t-step", "1", "--out", "-"], 0),
    ("splitting-ge", ["splitting", "--t", "3", "--x", "1", "--out", "-"], 0),
    ("figure-fig7", ["figure", "--id", "fig7", "--out", "{dir}/fig7.csv"], 0),
    ("crossover-config", ["crossover", "--t", "3", "--config", "{conf}",
                          "--set", "quadratic.d_L1=-20", "--out", "-"], 0),
    ("splitting-dp-set", ["splitting", "--t", "5", "--x", "0.95", "--dp-set",
                          "fischetti1996", "--format", "json-lines", "--out", "-"], 0),
    ("domain-error", ["crossover", "--t", "0.2", "--out", "-"], 1),
    ("usage-error", ["energy", "--t", "3", "--set", "nosuch.key=1", "--out", "-"], 2),
)

CLI_CONFIG = "# cli-cold config file\ndeformation.xi_u_L = 16.5\nquadratic.d_delta6 = -12.0\n"


def cli_argv(entry, item_dir, conf_path):
    """The concrete argv of one script entry."""
    return [a.format(dir=item_dir, conf=conf_path) for a in entry[1]]
