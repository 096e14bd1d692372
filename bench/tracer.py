"""Span tracer that wraps lvalley's public functions from outside the package.

Every public function defined in one of the layer modules is replaced by a
wrapper that records a span: function, start, end, enclosing span and the
item being processed.  Modules import functions from each other by name
(``design`` binds ``bisect_root``, ``ground_state``, ``strain_state`` and
``linear_shift``; ``relaxation`` binds ``bisect_root``), so each name is
rebound in every lvalley module that holds it; patching only the defining
module would count zero calls from those callers.

Spans stay in memory in flat arrays while the run lasts.  When it ends,
:meth:`Tracer.dump` writes them to a file, and the benchmark parent reads
them back with :meth:`Tracer.load` and aggregates them; a span's self time
is its duration minus the durations of its direct children.
"""

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

# ``materials`` and ``errors`` hold data only and are not layers.
LAYERS = ("elasticity", "valleys", "well", "rootfind", "design", "relaxation", "cli")


def _bisect_iterations(tracer, result, args, kwargs):
    tracer.counters["rootfind.bisect_root.iterations"] += result.iterations


def _hc_iterations(tracer, result, args, kwargs):
    tracer.counters["relaxation.critical_thickness.iterations"] += result.iterations


def _ground_state_residual(tracer, result, args, kwargs):
    c = tracer.counters
    c["well.ground_state.max_residual"] = max(c["well.ground_state.max_residual"], result.residual)


def _bands_clipped(tracer, result, args, kwargs):
    tracer.counters["design.sensitivity_band.bands"] += len(result)
    tracer.counters["design.sensitivity_band.clipped"] += sum(b.clipped for b in result)


def _bytes_written(tracer, result, args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counters["cli.write_atomic.bytes"] += len(text.encode())


HOOKS = {
    "rootfind.bisect_root": _bisect_iterations,
    "relaxation.critical_thickness": _hc_iterations,
    "well.ground_state": _ground_state_residual,
    "design.sensitivity_band": _bands_clipped,
    "cli.write_atomic": _bytes_written,
}


class Tracer:
    def __init__(self):
        self.names = []  # function id -> "layer.function"
        self.fn = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_item = -1
        self.counters = dict.fromkeys(
            (
                "rootfind.bisect_root.iterations",
                "relaxation.critical_thickness.iterations",
                "well.ground_state.max_residual",
                "design.sensitivity_band.bands",
                "design.sensitivity_band.clipped",
                "cli.write_atomic.bytes",
            ),
            0,
        )
        self._patched = []

    def _wrap(self, key, fn):
        fid = len(self.names)
        self.names.append(key)
        hook = HOOKS.get(key)
        fn_append, parent_append = self.fn.append, self.parent.append
        item_append, start_append = self.item.append, self.start.append
        end, end_append = self.end, self.end.append
        stack, clock, tracer = self.stack, perf_counter, self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(end)
            fn_append(fid)
            parent_append(stack[-1] if stack else -1)
            item_append(tracer.current_item)
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        return span

    def install(self):
        """Wrap every public layer function and rebind it wherever it is bound.

        Returns the number of rebound names.  Raises RuntimeError if any
        lvalley module still holds an unwrapped layer function afterwards.
        """
        modules = {layer: importlib.import_module(f"lvalley.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        holders = [m for n, m in sorted(sys.modules.items()) if n == "lvalley" or n.startswith("lvalley.")]
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))
        missed = [
            f"{mod.__name__}.{name}"
            for mod in holders
            for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]
        if missed:
            raise RuntimeError(f"unwrapped layer functions remain: {missed}")
        return len(self._patched)

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def aggregate(self):
        """Per-function {calls, total_s, self_s} and per-layer self time."""
        n = len(self.end)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", [0.0]) * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        per_fn = {key: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for key in self.names}
        for i in range(n):
            entry = per_fn[self.names[self.fn[i]]]
            entry["calls"] += 1
            entry["total_s"] += dur[i]
            entry["self_s"] += dur[i] - child[i]
        layers = dict.fromkeys(LAYERS, 0.0)
        for key, entry in per_fn.items():
            layers[key.split(".", 1)[0]] += entry["self_s"]
        return {"functions": per_fn, "layers": layers, "counters": dict(self.counters), "spans": n}

    _ARRAYS = ("fn", "parent", "item", "start", "end")

    def dump(self, path):
        """Write the spans: a JSON header line, then each span array in native layout."""
        header = {"names": self.names, "counters": self.counters, "spans": len(self.end)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for name in self._ARRAYS:
                getattr(self, name).tofile(fh)

    @classmethod
    def load(cls, path):
        """A tracer holding the spans and counters that :meth:`dump` wrote."""
        tracer = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            for name in cls._ARRAYS:
                getattr(tracer, name).fromfile(fh, header["spans"])
        tracer.names = header["names"]
        tracer.counters = header["counters"]
        return tracer
