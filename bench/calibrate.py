"""A fixed piece of reference work that gauges how fast the host core runs.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores drifts by up to 2x over seconds to minutes: a pass of
the same lvalley work takes anywhere from 0.8 to 2 s.  Longer runs do not
average that away (one-minute means still spread by 15 %), so every timed
metric is measured next to this fixed work and scaled to the speed at
which the work takes ``REFERENCE_S``:

    time at reference speed = time measured * REFERENCE_S / chunk time

The chunk is run right before and after each measured window, and the
window is scaled by the mean of the two.  Its work mirrors lvalley's own
mix (scalar transcendental root solves in pure Python, 3x3 numpy tensor
products, small object churn) but imports nothing from lvalley, so a
change to the library never changes the yardstick.  The garbage collector
is paused while it runs, so objects the library keeps alive do not slow it.

Standard library and numpy only; import it only after the timed set-up.
"""

import gc
import math
import time

import numpy as np

# A chunk's typical time on the 2-vCPU Intel Xeon VM the benchmark was tuned
# on (Python 3.11.7, numpy 2.4.6), where it ranged over 0.05-0.12 s.  Scaled
# figures therefore read as seconds on that machine at its usual speed.
REFERENCE_S = 0.09

_ROOTS = 4000
_TENSORS = 2500
_STIFFNESS = np.array([[165.8, 63.9, 63.9], [63.9, 165.8, 63.9], [63.9, 63.9, 165.8]])


def _well_root(u0, r):
    """Even ground state z of z sin z = r sqrt(u0^2 - z^2) cos z by bisection."""
    lo, hi = 0.0, min(u0, 0.5 * math.pi)
    for _ in range(48):
        z = 0.5 * (lo + hi)
        if z * math.sin(z) - r * math.sqrt(u0 * u0 - z * z) * math.cos(z) > 0.0:
            hi = z
        else:
            lo = z
    return 0.5 * (lo + hi)


def _work():
    acc = 0.0
    for i in range(_ROOTS):
        acc += _well_root(0.5 + 0.001 * i, 0.3 + 0.0001 * i)
    for i in range(_TENSORS):
        eps = 1e-4 * (i % 97)
        strain = np.diag([eps, eps, -0.77 * eps])
        stress = _STIFFNESS @ np.diag(strain)
        acc += float(stress.sum()) + float(np.trace(strain))
    return acc


def chunk():
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(before, after):
    """Factor from time measured between chunks ``before`` and ``after`` to reference speed."""
    return REFERENCE_S * 2.0 / (before + after)
