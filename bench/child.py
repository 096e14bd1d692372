"""Child-interpreter side of the benchmark; run.py starts one per task.

    child.py setup WORKLOAD SEED                 set up, print the ready time
    child.py run WORKLOAD SEED SECONDS RECORDS   timed in-process items
    child.py trace WORKLOAD SEED RECORDS SPANS   fixed items, untraced then traced
    child.py cli SPANS ARGS...                   one traced ``lvalley`` invocation
    child.py anchors ORACLES_PY                  paper anchors and frozen oracles
    child.py kernels                             per-call kernel timings
    child.py figcounts OUTDIR                    traced figure sweeps (work counts)

Only ``sys`` and ``time`` are imported before set-up ends, so the set-up
time is the interpreter's and lvalley's, not the harness's.  Item records
go to a file, one line per item, and the parent checks them after the
child has exited, so neither the check nor the records add to the child's
time or peak memory.  Timed runs gauge the host speed (calibrate.py) between
batches; the summary gives each batch's item count, seconds and the gauge
times around it.  Traced runs write their spans to SPANS when they
end (``Tracer.dump``); the parent computes self times from that file.
"""

import sys
import time


def setup(workload, seed):
    """Everything a fresh interpreter does before the workload's first computation."""
    import random

    import workloads  # noqa: F401  (builds the sensitivity grid)

    import lvalley

    if workload == "cli-cold":
        import lvalley.cli

        params = lvalley.cli.resolve_params(None, None, None)
        lvalley.cli.make_grid(1.0, 10.0, 0.5, "t grid")
    else:
        params = lvalley.default_params()
    return lvalley, params, random.Random(seed)


def sensitivity_item(lv, params, mode, t):
    b = lv.sensitivity_band(params, [t], mode)[0]
    return mode, t, float(b.x_low), float(b.x_nominal), float(b.x_high), int(b.clipped)


def design_item(lv, params, t, x):
    s = lv.splitting_report(params, t, x)
    hc = lv.critical_thickness(
        lv.RelaxationInput(ge_fraction_x=x, elastic=params.elastic, burgers_b=params.constants.burgers_si)
    ).h_c
    feasible = s.delta6_minus_l1 > 0.0 and hc >= t
    return t, x, float(s.delta6_minus_l1), float(s.l3_minus_l1), float(hc), int(feasible)


ITEMS = {"sensitivity-both": sensitivity_item, "design-window": design_item}


def measure(workload, lv, params, batches, out, stop, tracer=None, gauge=None):
    """Run items batch by batch until ``stop(items, elapsed)`` holds after a batch.

    Each item's record is ``fields...,latency_ns``, with the numbers the item
    function made plain floats and ints so that they print as literals; an
    item that raises is recorded as ``!latency_ns,error``.  With ``gauge``
    (calibrate.chunk) the gauge also runs before the first batch and after
    each one, outside the batches' time.  Returns (items, windows) with one
    ``[items, seconds, gauge_before, gauge_after]`` per batch (gauges None
    without ``gauge``).
    """
    item = ITEMS[workload]
    clock, clock_ns = time.perf_counter, time.perf_counter_ns
    n = 0
    windows = []
    gauged = gauge() if gauge else None
    start = clock()
    for batch in batches:
        first, t_batch = n, clock()
        for args in batch:
            if tracer is not None:
                tracer.current_item = n
            t0 = clock_ns()
            try:
                fields = item(lv, params, *args)
            except Exception as err:  # an unexpected raise fails the item
                t1 = clock_ns()
                message = repr(err).replace("\n", " ")
                out.write(f"!{t1 - t0},{message}\n")
            else:
                t1 = clock_ns()
                out.write(",".join(map(repr, fields)) + f",{t1 - t0}\n")
            n += 1
        seconds = clock() - t_batch
        before, gauged = gauged, (gauge() if gauge else None)
        windows.append([n - first, seconds, before, gauged])
        if stop(n, clock() - start):
            break
    return n, windows


def main_setup(workload, seed):
    setup(workload, int(seed))
    print(repr(time.perf_counter()))


def main_run(workload, seed, seconds, records):
    import workloads

    lv, params, rng = setup(workload, int(seed))
    import calibrate

    calibrate.chunk()  # warm the gauge's own code paths once
    if workload == "sensitivity-both":
        batches = iter(lambda: workloads.sensitivity_pass(rng), None)
    else:
        batches = iter(lambda: [workloads.design_point(rng) for _ in range(workloads.DESIGN_BATCH)], None)
    limit = float(seconds)
    with open(records, "w") as out:
        _, windows = measure(
            workload, lv, params, batches, out,
            lambda items, elapsed: elapsed >= limit and items >= workloads.MIN_ITEMS,
            gauge=calibrate.chunk,
        )
    import json

    print(json.dumps({"windows": windows}))


def main_trace(workload, seed, records, spans):
    import workloads
    from tracer import Tracer

    lv, params, rng = setup(workload, int(seed))
    if workload == "sensitivity-both":
        items = workloads.sensitivity_pass(rng)
    else:
        items = [workloads.design_point(rng) for _ in range(workloads.TRACE_DESIGN_ITEMS)]
    never = lambda items, elapsed: False  # noqa: E731
    with open(records, "w") as out:
        n0, (w0,) = measure(workload, lv, params, [items], out, never)
        tracer = Tracer()
        rebound = tracer.install()
        try:
            n1, (w1,) = measure(workload, lv, params, [items], out, never, tracer)
        finally:
            tracer.uninstall()
    tracer.dump(spans)
    import json

    print(json.dumps({
        "rebound": rebound,
        "untraced": {"items": n0, "wall_s": w0[1]},
        "traced": {"items": n1, "wall_s": w1[1]},
    }))


def main_cli(spans, *argv):
    import lvalley.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.current_item = 0
    try:
        code = lvalley.cli.run(list(argv))
    finally:
        tracer.uninstall()
    tracer.dump(spans)
    sys.stdout.flush()
    return code


def main_anchors(oracles_py):
    """Paper anchors and the frozen oracle tables of the test suite, read only."""
    import importlib.util
    import json
    import platform

    import numpy

    import lvalley as lv

    spec = importlib.util.spec_from_file_location("frozen_oracles", oracles_py)
    frozen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frozen)

    p = lv.default_params()
    failures = []

    def check(name, got, want, tol):
        if not abs(got - want) <= tol:
            failures.append(f"{name}: {got!r} not within {tol:g} of {want!r}")

    r = lv.critical_strain(p, 3.0)
    check("eps*(3 nm)", r.eps_critical, 0.0388, 5e-4)
    check("x*(3 nm)", r.x_critical, 0.935, 2e-3)
    s = lv.splitting_report(p, 3.0, 1.0)
    check("Delta6-L1(3 nm, x=1) meV", s.delta6_minus_l1 * 1e3, 71.9, 0.05)
    hc = lambda x: lv.critical_thickness(lv.RelaxationInput(ge_fraction_x=x, elastic=p.elastic)).h_c  # noqa: E731
    check("h_c(0.94) nm", hc(0.94), 4.05, 0.005)
    k = p.constants.hbar2_over_2m0
    for (valley, t), want in frozen.EQ_FROZEN.items():
        got = lv.ground_state(lv.well_config(lv.Valley(valley), p, t), k).energy_eq
        check(f"EQ_FROZEN {valley} {t} nm", got, want, 2e-6)
    for x, want in frozen.HC_FROZEN.items():
        check(f"HC_FROZEN x={x}", hc(x), want, 1e-5)
    print(json.dumps({
        "failures": failures,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lvalley": lv.__version__,
    }))


def kernel_timings(lv, repeats=5, budget_s=0.05):
    """Median per-call time in microseconds of one call of each kernel."""
    p = lv.default_params()
    k = p.constants.hbar2_over_2m0
    cfgs = [lv.well_config(v, p, 3.0) for v in lv.Valley]
    inp = lv.RelaxationInput(ge_fraction_x=0.94, elastic=p.elastic, burgers_b=p.constants.burgers_si)
    cases = {
        "ground_state": (lambda: [lv.ground_state(c, k) for c in cfgs], len(cfgs)),
        "critical_strain": (lambda: lv.critical_strain(p, 3.0), 1),
        "strain_state": (lambda: lv.strain_state(p.elastic, 0.039), 1),
        "strain_to_x": (lambda: lv.strain_to_x(0.039, p.lattice), 1),
        "critical_thickness": (lambda: lv.critical_thickness(inp), 1),
    }
    clock = time.perf_counter
    result = {}
    for name, (fn, calls) in cases.items():
        loops = 1
        while True:
            t0 = clock()
            for _ in range(loops):
                fn()
            if clock() - t0 >= budget_s:
                break
            loops *= 2
        samples = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(loops):
                fn()
            samples.append((clock() - t0) / (loops * calls) * 1e6)
        samples.sort()
        result[name] = samples[len(samples) // 2]
    return result


def main_kernels():
    import json

    import lvalley

    print(json.dumps(kernel_timings(lvalley)))


FIGURE_COUNTS = ("fig10", "fig1", "fig4", "fig7")


def figure_counts(lv_cli, outdir):
    """Work counts of the figure sweeps through ``lvalley figure``, traced."""
    import os

    from tracer import Tracer

    counts = {}
    for fid in FIGURE_COUNTS:
        tracer = Tracer()
        tracer.install()
        try:
            code = lv_cli.run(["figure", "--id", fid, "--out", os.path.join(outdir, fid + ".csv")])
        finally:
            tracer.uninstall()
        agg = tracer.aggregate()
        counts[fid] = {
            "exit": code,
            "rootfind.bisect_root.calls": agg["functions"]["rootfind.bisect_root"]["calls"],
            "rootfind.bisect_root.iterations": agg["counters"]["rootfind.bisect_root.iterations"],
            "relaxation.critical_thickness.iterations": agg["counters"]["relaxation.critical_thickness.iterations"],
        }
    return counts


def main_figcounts(outdir):
    import json

    import lvalley.cli

    print(json.dumps(figure_counts(lvalley.cli, outdir)))


MODES = {
    "setup": main_setup,
    "run": main_run,
    "trace": main_trace,
    "cli": main_cli,
    "anchors": main_anchors,
    "kernels": main_kernels,
    "figcounts": main_figcounts,
}

if __name__ == "__main__":
    sys.exit(MODES[sys.argv[1]](*sys.argv[2:]))
