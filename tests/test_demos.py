"""Each narrative demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lvalley

ROOT = Path(__file__).resolve().parents[1]
# the tree whose lvalley these tests imported, for the demos to import too
SRC = str(Path(lvalley.__file__).resolve().parents[1])
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the demos write their CSV (and PNG) files to the working directory
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path, MPLBACKEND="Agg"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# A stand-in for the few matplotlib calls the demos make: pyplot.subplots
# hands out axes that record each call, and savefig writes those records.
_STUB_PYPLOT = '''
class _Recorder:
    def __init__(self, calls):
        self._calls = calls

    def __getattr__(self, name):
        return lambda *args, **kwargs: self._calls.append(name)


class _Figure(_Recorder):
    def savefig(self, path, **kwargs):
        with open(path, "w") as fh:
            fh.write("\\n".join(self._calls) + "\\n")


def subplots(nrows=1, ncols=1, **kwargs):
    calls = []
    axes = [_Recorder(calls) for _ in range(nrows * ncols)]
    return _Figure(calls), axes[0] if len(axes) == 1 else tuple(axes)
'''

PLOTTING_DEMOS = {
    "02_confinement_energies": "confinement_vs_thickness.png",
    "03_crossover_design_map": "crossover_map.png",
    "05_sensitivity_envelopes": "sensitivity_envelopes.png",
}


@pytest.mark.parametrize("stem, png", sorted(PLOTTING_DEMOS.items()))
def test_demo_plots_with_matplotlib(stem, png, tmp_path):
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("def use(backend):\n    pass\n")
    (stub / "pyplot.py").write_text(_STUB_PYPLOT)
    work = tmp_path / "work"
    work.mkdir()
    parts = [str(stub.parent), SRC, os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{stem}.py")],
        cwd=work,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, parts))),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"wrote {png}" in proc.stdout
    # the axes were drawn on before the figure was saved
    assert "set_xlabel" in (work / png).read_text().split()
