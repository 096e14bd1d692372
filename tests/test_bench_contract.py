"""The layer names the benchmark looks up must exist in the library.

``bench/run.py --trace 1`` and ``--selfcheck`` read per-function counts by
the names in ``LAYER_FUNCTIONS``, and ``bench/tracer.py`` wraps the public
functions of the modules in ``LAYERS`` and hooks some of them by the keys of
``HOOKS``; a renamed or removed function breaks them.  The names
are read with ``ast``, so neither bench module is imported.

``bench/child.py`` also reads library names directly: the attributes it
takes from ``lvalley`` and ``lvalley.cli`` must exist, and its paper-anchor
mode must run clean against the ``lvalley`` these tests import.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lvalley
import lvalley.cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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


# the names under which bench/child.py holds the library and its CLI module
CHILD_HOLDERS = {"lv": lvalley, "lvalley": lvalley, "lv_cli": lvalley.cli}


def _child_attribute_chains():
    """Every dotted read rooted at a CHILD_HOLDERS name in bench/child.py, e.g. ("lvalley", "cli", "run")."""
    chains = set()
    for node in ast.walk(ast.parse((BENCH / "child.py").read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in CHILD_HOLDERS and chain:
            chains.add((node.id, *reversed(chain)))
    return sorted(chains)


CHILD_CHAINS = _child_attribute_chains()


def test_child_reads_library_names():
    # a scan that finds nothing would pass every chain below vacuously
    assert ("lv", "well_config") in CHILD_CHAINS
    assert ("lvalley", "cli", "resolve_params") in CHILD_CHAINS


@pytest.mark.parametrize("chain", CHILD_CHAINS, ids=".".join)
def test_bench_child_library_name_exists(chain):
    obj = CHILD_HOLDERS[chain[0]]
    for name in chain[1:]:
        assert hasattr(obj, name), ".".join(chain)
        obj = getattr(obj, name)


def test_bench_child_anchors_run_clean():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "anchors", str(ROOT / "tests" / "oracles.py")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(Path(lvalley.__file__).resolve().parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["failures"] == []
