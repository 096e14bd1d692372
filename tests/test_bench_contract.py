"""The layer names the benchmark looks up must exist in the library.

``bench/run.py --trace 1`` and ``--selfcheck`` read per-function counts by
the names in ``LAYER_FUNCTIONS``, and ``bench/tracer.py`` wraps the public
functions of the modules in ``LAYERS`` and hooks some of them by the keys of
``HOOKS``; a renamed or removed function breaks them.  The names
are read with ``ast``, so neither bench module is imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _assigned(path, name):
    """The literal value assigned to a module-level ``name`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    raise LookupError(f"{path.name} assigns no {name}")


LAYER_FUNCTIONS = ast.literal_eval(_assigned(BENCH / "run.py", "LAYER_FUNCTIONS"))
HOOKED = [ast.literal_eval(key) for key in _assigned(BENCH / "tracer.py", "HOOKS").keys]
TRACED_LAYERS = ast.literal_eval(_assigned(BENCH / "tracer.py", "LAYERS"))


@pytest.mark.parametrize("name", sorted({*LAYER_FUNCTIONS, *HOOKED}))
def test_bench_layer_function_is_public_in_its_module(name):
    layer, function = name.split(".")
    assert layer in TRACED_LAYERS, name
    module = importlib.import_module(f"lvalley.{layer}")
    obj = getattr(module, function, None)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name
    assert not function.startswith("_")
