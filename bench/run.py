"""lvalley benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --workload all --seed N --seconds S   # one table for every workload
    python3 bench/run.py --selfcheck                           # tracer work counts

NAME is one of sensitivity-both, design-window or cli-cold (see
workloads.py for what each runs and why).  All work runs in fresh child
interpreters started one at a time from this process, with lvalley
imported from ``src/`` of this checkout and OMP/OpenBLAS held to one
thread.  Every item is checked against the seed references (check.py),
and every run also checks the paper anchors and the test suite's frozen
oracle tables.

``--trace 0`` measures, with tracing off:
  setup_s      median over fresh interpreters of the time from process
               start to the workload's first computation (import lvalley
               or lvalley.cli, parameters, grid)
  items_per_s  correct items per second of timed windows after set-up
  item_p50_ms  per-item median latency, taken in each window of the run
               and averaged over the windows
  item_p90_ms  per-item 90th-percentile latency over the whole run
  peak_rss_mb  largest peak resident set of the measured child(ren)
and reports failed_frac = failed / attempted beside them.  A window is one
timed batch: a sensitivity pass, DESIGN_BATCH design points or one CLI
script cycle.  A fixed speed gauge (calibrate.py) runs before and after
each in-process batch, each CLI invocation and each set-up probe, and
every time above is scaled by it to the gauge's reference speed.  The raw
figures and the host speed are printed beside the table and written to
``--out``.

``--trace 1`` runs a fixed, seeded amount of work untraced and then with
every public function of the lvalley layer modules wrapped (tracer.py).
Each traced child writes its spans to a file when it ends; the parent
reads them back, checks that every item left spans, and reports per-layer
counts, self times, import times, the tracing overhead and per-call kernel
timings.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
writes the full result with its environment record to FILE.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads
from tracer import Tracer

# The parent runs the speed gauge too; hold numpy's BLAS to one thread here
# as in the children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
import calibrate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = str(BENCH / "child.py")
PY = sys.executable

SETUP_PROBES = 9
# Each workload must finish, checks included, well inside three minutes.
WORKLOAD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_FUNCTIONS = (
    "rootfind.bisect_root", "elasticity.strain_state", "valleys.linear_shift",
    "valleys.bulk_energy", "design.strain_to_x", "design.sensitivity_band",
    "design.splitting_report", "well.ground_state", "well.matching_mismatch",
    "relaxation.critical_thickness", "cli.resolve_params", "cli.render", "cli.write_atomic",
)
KERNELS = ("ground_state", "critical_strain", "strain_state", "strain_to_x", "critical_thickness")
# Per-call kernel times of the seed code in microseconds: medians of five
# ``child.py kernels`` runs on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy
# 2.4.6) whose speed drifts by up to 1.7x over minutes; compare with care.
SEED_KERNEL_US = {
    "ground_state": 29.3,
    "critical_strain": 414.9,
    "strain_state": 8.8,
    "strain_to_x": 27.0,
    "critical_thickness": 8.9,
}

PER_LAYER = {
    "rootfind.bisect_root.calls": "count",
    "rootfind.bisect_root.iterations": "count",
    "rootfind.bisect_root.self_s": "s",
    "elasticity.strain_state.calls": "count",
    "elasticity.strain_state.self_s": "s",
    "valleys.linear_shift.calls": "count",
    "valleys.bulk_energy.calls": "count",
    "valleys.bulk_energy.self_s": "s",
    "design.strain_to_x.calls": "count",
    "design.strain_to_x.self_s": "s",
    "design.sensitivity_band.self_s": "s",
    "design.sensitivity_band.clipped_ratio": "ratio",
    "design.splitting_report.calls": "count",
    "well.ground_state.calls": "count",
    "well.ground_state.self_s": "s",
    "well.ground_state.max_residual": "1",
    "well.matching_mismatch.calls": "count",
    "relaxation.critical_thickness.calls": "count",
    "relaxation.critical_thickness.iterations": "count",
    "relaxation.critical_thickness.self_s": "s",
    "import.lvalley_ms": "ms",
    "import.numpy_ms": "ms",
    "cli.resolve_params.self_s": "s",
    "cli.render.self_s": "s",
    "cli.write_atomic.self_s": "s",
    "cli.write_atomic.bytes": "B",
    "cli.exit_code.0": "count",
    "cli.exit_code.1": "count",
    "cli.exit_code.2": "count",
    **{f"layer.{layer}.self_s": "s" for layer in
       ("elasticity", "valleys", "well", "rootfind", "design", "relaxation", "cli")},
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.items": "count",
    "trace.items_per_s_traced": "1/s",
    "trace.items_per_s_untraced": "1/s",
    **{f"kernel.{k}.us_per_call": "us" for k in KERNELS},
}


class BenchError(Exception):
    """The benchmark could not run to a result."""


def _timeout(signum, frame):
    raise BenchError(f"workload exceeded {WORKLOAD_TIMEOUT_S} s")


@dataclass
class Child:
    code: int
    start: float
    end: float
    rss_mb: float
    stdout: Path
    stderr: Path

    @property
    def wall(self):
        return self.end - self.start

    def out(self):
        return self.stdout.read_text()

    def err(self):
        return self.stderr.read_text()


class Runner:
    """Starts child interpreters one at a time and reaps each with its rusage."""

    def __init__(self, work):
        self.work = work
        self.count = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            LVALLEY_OUTDIR=str(work),
        )

    def spawn(self, argv, cwd=ROOT):
        self.count += 1
        stdout = self.work / f"child{self.count}.out"
        stderr = self.work / f"child{self.count}.err"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, start, end, usage.ru_maxrss / 1024.0, stdout, stderr)

    def json_child(self, *args, importtime=False):
        """Run child.py with args; return its last stdout line as JSON, and the child."""
        argv = [PY, "-X", "importtime", CHILD, *args] if importtime else [PY, CHILD, *args]
        c = self.spawn(argv)
        if c.code != 0:
            raise BenchError(f"child.py {args[0]} exited {c.code}: {c.err()[-2000:]}")
        return json.loads(c.out().splitlines()[-1]), c


@dataclass
class Outcome:
    """Checked items of one run, with their latencies grouped by window.

    Latencies and ``window_s`` are at the gauge's reference speed;
    ``raw_s`` is the measured item time and ``gauges`` the gauge times.
    """

    windows: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    window_s: float = 0.0
    raw_s: float = 0.0
    gauges: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def latencies(self):
        return [lat for w in self.windows for lat in w]

    def open_window(self, raw_s, scaled_s):
        """Start a window of ``raw_s`` measured item time, ``scaled_s`` at reference speed."""
        self.raw_s += raw_s
        self.window_s += scaled_s
        self.windows.append([])

    def add(self, latency, problems):
        self.attempted += 1
        self.windows[-1].append(latency)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# ---------------------------------------------------------------------------
# in-process workloads

def check_records(workload, records, ref, oracle, outcome, windows=None):
    """Check each record; with ``windows`` (from child.measure), scale latencies by window."""
    check_item = check.check_sensitivity if workload == "sensitivity-both" else check.check_design
    against = ref if workload == "sensitivity-both" else oracle
    parsed = check.parse_records(records)
    if windows is None:  # one unscaled window
        windows = [[len(parsed), sum(lat for _, lat, _ in parsed), None, None]]
    if sum(w[0] for w in windows) != len(parsed):
        raise BenchError(f"{sum(w[0] for w in windows)} items run but {len(parsed)} recorded")
    rows = iter(parsed)
    for items, seconds, before, after in windows:
        factor = 1.0 if before is None else calibrate.factor(before, after)
        if after is not None:
            outcome.gauges.append(after)
        outcome.open_window(seconds, seconds * factor)
        for fields, latency, error in (next(rows) for _ in range(items)):
            if error is not None:
                outcome.add(latency * factor, [f"raised {error}"])
                continue
            try:
                problems = check_item(fields, against)
            except (ValueError, KeyError) as err:
                problems = [f"unreadable record {fields}: {err!r}"]
            outcome.add(latency * factor, problems)


def run_inprocess(runner, workload, seed, seconds, ref, oracle):
    records = runner.work / "records.txt"
    summary, c = runner.json_child("run", workload, str(seed), str(seconds), str(records))
    outcome = Outcome(peak_rss_mb=c.rss_mb)
    check_records(workload, records, ref, oracle, outcome, summary["windows"])
    return outcome


# ---------------------------------------------------------------------------
# cli-cold

def check_cli_item(entry, item_dir, child, conf, ref):
    name, _, expected = entry
    if child.code != expected:
        return [f"{name}: exit {child.code}, expected {expected}"]
    files = sorted(p.name for p in item_dir.iterdir())
    stdout = child.out()
    if expected != 0:
        problems = ["output on a failed run"] if stdout else []
        if files:
            problems.append(f"files left by a failed run: {files}")
        return [f"{name}: {p}" for p in problems]
    argv = workloads.cli_argv(entry, str(item_dir), conf)
    out = argv[argv.index("--out") + 1]
    if out == "-":
        text, want_files = stdout, []
    else:
        text, want_files = Path(out).read_text(), [Path(out).name]
    problems = [] if files == want_files else [f"files {files}, expected {want_files}"]
    problems += check.check_table(text, ref["cli"][name], ref)
    return [f"{name}: {p}" for p in problems]


def run_cli(runner, seed, seconds, ref, cycles=None, traced=False):
    """Invoke the script, shuffled by seed, one cold interpreter per item.

    Runs whole script cycles until ``seconds`` have passed and at least
    MIN_ITEMS items are done, or for exactly ``cycles`` cycles.  Untraced
    timed runs gauge the host speed before the first invocation and after
    each one.  Returns the checked outcome and the children.
    """
    conf = runner.work / "params.conf"
    conf.write_text(workloads.CLI_CONFIG)
    rng = random.Random(seed)
    done = []
    gauged = cycles is None
    gauges = [calibrate.chunk()] if gauged else []
    start = time.perf_counter()
    while True:
        order = list(workloads.CLI_SCRIPT)
        rng.shuffle(order)
        for entry in order:
            item_dir = runner.work / f"cli{runner.count + 1}"
            item_dir.mkdir()
            argv = workloads.cli_argv(entry, str(item_dir), str(conf))
            if traced:
                spans = runner.work / f"cli{runner.count + 1}.spans"
                cmd = [PY, "-X", "importtime", CHILD, "cli", str(spans), *argv]
            else:
                spans, cmd = None, [PY, "-m", "lvalley", *argv]
            done.append((entry, item_dir, runner.spawn(cmd, cwd=item_dir), spans))
            if gauged:
                gauges.append(calibrate.chunk())
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if len(done) >= cycles * len(workloads.CLI_SCRIPT):
                break
        elif elapsed >= seconds and len(done) >= workloads.MIN_ITEMS:
            break
    factors = ([calibrate.factor(a, b) for a, b in zip(gauges, gauges[1:])] if gauged
               else [1.0] * len(done))
    outcome = Outcome(gauges=gauges[1:])
    size = len(workloads.CLI_SCRIPT)
    for cycle in range(0, len(done), size):
        batch = list(zip(done[cycle:cycle + size], factors[cycle:cycle + size]))
        outcome.open_window(sum(c.wall for (_, _, c, _), _ in batch),
                            sum(c.wall * f for (_, _, c, _), f in batch))
        for (entry, item_dir, child, _), factor in batch:
            outcome.peak_rss_mb = max(outcome.peak_rss_mb, child.rss_mb)
            outcome.add(child.wall * factor, check_cli_item(entry, item_dir, child, str(conf), ref))
    return outcome, done


# ---------------------------------------------------------------------------
# end-to-end run

def setup_times(runner, workload, seed, probes):
    """Set-up seconds of ``probes`` fresh interpreters, raw and at reference speed."""
    raw, scaled = [], []
    gauge = calibrate.chunk()
    for _ in range(probes):
        ready, c = runner.json_child("setup", workload, str(seed))
        before, gauge = gauge, calibrate.chunk()
        raw.append(ready - c.start)
        scaled.append(raw[-1] * calibrate.factor(before, gauge))
    return raw, scaled


def end_to_end(runner, workload, seed, seconds, ref, oracle):
    # The first probe byte-compiles the sources of a fresh checkout and is
    # dropped; the rest are split around the measured run so that one slow
    # spell of the machine does not set the median.
    runner.json_child("setup", workload, str(seed))
    raw_a, before = setup_times(runner, workload, seed, SETUP_PROBES // 2)
    if workload == "cli-cold":
        outcome, _ = run_cli(runner, seed, seconds, ref)
    else:
        outcome = run_inprocess(runner, workload, seed, seconds, ref, oracle)
    raw_b, after = setup_times(runner, workload, seed, SETUP_PROBES - len(before))
    metrics = {
        "setup_s": statistics.median(before + after),
        "items_per_s": (outcome.attempted - outcome.failed) / outcome.window_s,
        "item_p50_ms": statistics.fmean(statistics.median(w) for w in outcome.windows) * 1e3,
        "item_p90_ms": statistics.quantiles(outcome.latencies, n=10)[-1] * 1e3,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(raw_a + raw_b),
        "items_per_s": (outcome.attempted - outcome.failed) / outcome.raw_s,
        "host_speed": calibrate.REFERENCE_S / statistics.median(outcome.gauges),
    }
    return metrics, raw, outcome


# ---------------------------------------------------------------------------
# traced run

def import_times(stderr_text):
    """Cumulative import milliseconds of lvalley (package and cli) and numpy from -X importtime."""
    lvalley_us = numpy_us = 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        if depth == 0 and (name == "lvalley" or name.startswith("lvalley.")):
            lvalley_us += int(cumulative)
        elif name == "numpy":
            numpy_us += int(cumulative)
    return lvalley_us / 1e3, numpy_us / 1e3


def merge(aggs):
    """Sum per-invocation tracer aggregates."""
    total = {"functions": {}, "layers": {}, "counters": {}, "spans": 0}
    for agg in aggs:
        total["spans"] += agg["spans"]
        for key, entry in agg["functions"].items():
            acc = total["functions"].setdefault(key, dict.fromkeys(entry, 0))
            for k, v in entry.items():
                acc[k] += v
        for layer, v in agg["layers"].items():
            total["layers"][layer] = total["layers"].get(layer, 0.0) + v
        for k, v in agg["counters"].items():
            old = total["counters"].get(k, 0)
            total["counters"][k] = max(old, v) if k.endswith("max_residual") else old + v
    return total


def layer_metrics(agg, wall, items, untraced_wall, imports, exits, kernels):
    fns, counters = agg["functions"], agg["counters"]
    m = {}
    for key in LAYER_FUNCTIONS:
        entry = fns[key]
        m[f"{key}.calls"] = entry["calls"]
        m[f"{key}.self_s"] = entry["self_s"]
    bands = counters["design.sensitivity_band.bands"]
    m["design.sensitivity_band.clipped_ratio"] = (
        counters["design.sensitivity_band.clipped"] / bands if bands else 0.0
    )
    for k in ("rootfind.bisect_root.iterations", "relaxation.critical_thickness.iterations",
              "well.ground_state.max_residual", "cli.write_atomic.bytes"):
        m[k] = counters[k]
    m["import.lvalley_ms"], m["import.numpy_ms"] = imports
    for code in (0, 1, 2):
        m[f"cli.exit_code.{code}"] = exits.get(code, 0)
    for layer, self_s in agg["layers"].items():
        m[f"layer.{layer}.self_s"] = self_s
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(agg["layers"].values())
    m["trace.items"] = items
    m["trace.items_per_s_traced"] = items / wall
    m["trace.items_per_s_untraced"] = items / untraced_wall
    for k in KERNELS:
        m[f"kernel.{k}.us_per_call"] = kernels[k]
    return {k: m[k] for k in PER_LAYER}


def load_spans(path):
    """The spans a traced child wrote when it ended."""
    try:
        return Tracer.load(path)
    except (OSError, EOFError, ValueError) as err:
        raise BenchError(f"unreadable spans {path.name}: {err}") from err


def traced(runner, workload, seed, ref, oracle):
    spans_path = runner.work / "spans.bin"
    if workload == "cli-cold":
        untraced, _ = run_cli(runner, seed, 0, ref, cycles=1)
        outcome, done = run_cli(runner, seed, 0, ref, cycles=1, traced=True)
        outcome.attempted += untraced.attempted
        outcome.failed += untraced.failed
        outcome.problems += untraced.problems
        tracers = [load_spans(spans) for *_, spans in done]
        outcome.problems += [f"{entry[0]}: no spans" for (entry, *_), t in zip(done, tracers)
                             if not len(t.end)]
        agg = merge(t.aggregate() for t in tracers)
        wall = sum(c.wall for _, _, c, _ in done)
        untraced_wall = sum(untraced.latencies)
        imports = [import_times(c.err()) for _, _, c, _ in done]
        imports = tuple(statistics.median(col) for col in zip(*imports))
        exits = {}
        for _, _, c, _ in done:
            exits[c.code] = exits.get(c.code, 0) + 1
        items = len(done)
    else:
        records = runner.work / "records.txt"
        summary, c = runner.json_child("trace", workload, str(seed), str(records),
                                       str(spans_path), importtime=True)
        outcome = Outcome()
        check_records(workload, records, ref, oracle, outcome)
        wall, untraced_wall = summary["traced"]["wall_s"], summary["untraced"]["wall_s"]
        items = summary["traced"]["items"]
        tracer = load_spans(spans_path)
        missing = set(range(items)) - set(tracer.item)
        if missing:
            outcome.problems.append(f"{len(missing)} traced items left no spans")
        agg = tracer.aggregate()
        imports = import_times(c.err())
        exits = {}
    kernels, _ = runner.json_child("kernels")
    return layer_metrics(agg, wall, items, untraced_wall, imports, exits, kernels), outcome


# ---------------------------------------------------------------------------
# environment record

def commit_id():
    """The checked-out commit, read from .git when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lvalley").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed, anchors):
    return {
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "seed": seed,
        "python": anchors["python"],
        "numpy": anchors["numpy"],
        "lvalley": anchors["lvalley"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "child_threads": "OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1",
    }


# ---------------------------------------------------------------------------
# entry points

def run_workload(runner, workload, args, ref, oracle):
    signal.alarm(WORKLOAD_TIMEOUT_S)
    try:
        if args.trace:
            metrics, outcome = traced(runner, workload, args.seed, ref, oracle)
            raw, units = {}, PER_LAYER
        else:
            metrics, raw, outcome = end_to_end(runner, workload, args.seed, args.seconds, ref, oracle)
            units = END_TO_END
        anchors, _ = runner.json_child("anchors", str(ROOT / "tests" / "oracles.py"))
    finally:
        signal.alarm(0)
    outcome.problems += [f"anchor {f}" for f in anchors["failures"]]
    return metrics, raw, units, outcome, anchors


def report(workload, metrics, raw, units, outcome):
    frac = outcome.failed / outcome.attempted
    cells = [f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()]
    cells.append(f"failed_frac {frac:.6g} ({outcome.failed}/{outcome.attempted})")
    print(f"{workload}:")
    for cell in cells:
        print(f"  {cell}")
    if raw:
        print(f"  unscaled: setup_s {raw['setup_s']:.6g} s, items_per_s {raw['items_per_s']:.6g} 1/s"
              f" at host speed {raw['host_speed']:.3f} x reference")
    for p in outcome.problems[:20]:
        print(f"problem: {workload}: {p}", file=sys.stderr)


def selfcheck(runner, ref):
    """Figure-sweep work counts equal the seed's and repeat; so do traced counts."""
    ok = True
    figs = [runner.json_child("figcounts", str(runner.work))[0] for _ in range(2)]
    for fid, want in ref["figure_counts"].items():
        got = [f[fid] for f in figs]
        good = got[0] == got[1] == want
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {fid} counts {got[0]} (seed {want})")
    oracle, _ = check.check_oracle(ref)
    for workload in workloads.WORKLOADS:
        runs = [traced(runner, workload, 1, ref, oracle)[0] for _ in range(2)]
        counts = [{k: v for k, v in r.items() if PER_LAYER[k] in ("count", "B") and
                   not k.startswith("trace.")} for r in runs]
        good = counts[0] == counts[1]
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {workload} traced counts repeat: {counts[0]}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result as JSON to this file")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not args.selfcheck and not args.workload:
        ap.error("--workload is required")
    if not (ROOT / "src" / "lvalley" / "__init__.py").is_file():
        print(f"error: no lvalley sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = check.load_reference()
    oracle, problems = check.check_oracle(ref)
    signal.signal(signal.SIGALRM, _timeout)
    work = BENCH / f".work-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(work)
        if args.selfcheck:
            return selfcheck(runner, ref)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(runner, name, args, ref, oracle)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed, next(iter(results.values()))[4])
    print("env: " + json.dumps(env))
    if args.trace:
        print("seed_kernel_us: " + json.dumps(SEED_KERNEL_US))
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    metrics, attempted, failed = {}, 0, 0
    for name, (m, raw, units, outcome, _) in results.items():
        report(name, m, raw, units, outcome)
        prefix = "" if len(results) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
        attempted += outcome.attempted
        failed += outcome.failed
    correct = failed == 0 and not problems and all(not r[3].problems for r in results.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        full = {
            "env": env,
            "seed_kernel_us": SEED_KERNEL_US,
            "workloads": {
                name: {"metrics": m, "unscaled": raw, "attempted": o.attempted, "failed": o.failed,
                       "failed_frac": o.failed / o.attempted, "problems": o.problems[:100]}
                for name, (m, raw, _, o, _) in results.items()
            },
            **result,
        }
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
