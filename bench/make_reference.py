"""Regenerate reference.json from the lvalley sources of this checkout.

    python3 bench/make_reference.py

The references define correct behaviour for every later change, so they
are made once from the seed code and checked in.  Regenerating them from
changed code would hide exactly the drift the benchmark exists to catch;
run this only to extend the references, from the seed sources.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import workloads  # noqa: E402
from check import check_oracle, parse_table  # noqa: E402

import lvalley  # noqa: E402
import lvalley.cli  # noqa: E402


def frozen_params():
    p = lvalley.default_params()
    flat = {}
    for group in ("elastic", "deformation", "quadratic", "lattice", "bands", "constants"):
        flat.update({k: v for k, v in asdict(getattr(p, group)).items() if isinstance(v, float)})
    flat["v0"] = flat.pop("v0_offset_111")
    flat["masses"] = {v.value: [p.masses(v).m_in, p.masses(v).m_out] for v in lvalley.Valley}
    flat["misfit_slope"] = lvalley.RelaxationInput(ge_fraction_x=1.0, elastic=p.elastic).misfit_slope
    return flat


def sensitivity_table():
    p = lvalley.default_params()
    table = {}
    for mode in workloads.SENSITIVITY_MODES:
        bands = lvalley.sensitivity_band(p, workloads.T_GRID, mode)
        table[mode] = {repr(b.thickness_t): [b.x_low, b.x_nominal, b.x_high, int(b.clipped)] for b in bands}
    return table


def design_probes():
    rng = random.Random(20260417)
    points = [workloads.design_point(rng) for _ in range(60)]
    points += [(t, x) for t in workloads.T_RANGE_NM for x in workloads.X_RANGE]
    p = lvalley.default_params()
    return [list(child.design_item(lvalley, p, t, x)[:5]) for t, x in points]


def cli_outputs(work):
    conf = os.path.join(work, "params.conf")
    Path(conf).write_text(workloads.CLI_CONFIG)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    table = {}
    for entry in workloads.CLI_SCRIPT:
        name, _, expected = entry
        item_dir = tempfile.mkdtemp(dir=work)
        argv = workloads.cli_argv(entry, item_dir, conf)
        proc = subprocess.run([sys.executable, "-m", "lvalley", *argv], env=env,
                              capture_output=True, text=True, check=False)
        if proc.returncode != expected:
            raise SystemExit(f"{name}: exit {proc.returncode}, expected {expected}")
        if expected == 0:
            out = argv[argv.index("--out") + 1]
            text = proc.stdout if out == "-" else Path(out).read_text()
            header, rows = parse_table(text)
            table[name] = {"header": header, "rows": rows}
    return table


def main():
    with tempfile.TemporaryDirectory(dir=BENCH) as work:
        ref = {
            "made_from": f"lvalley {lvalley.__version__} seed sources",
            "params": frozen_params(),
            "sensitivity": sensitivity_table(),
            "design_probes": design_probes(),
            "cli": cli_outputs(work),
            "figure_counts": child.figure_counts(lvalley.cli, work),
        }
    _, problems = check_oracle(ref)
    if problems:
        raise SystemExit("\n".join(problems))
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
