"""The per-point kernels, frozen bit for bit.

One design point runs ``splitting_report`` (``bulk_levels`` and three
``solve_well`` calls) and ``critical_thickness`` (with ``RelaxationInput``
validation).  Each outcome below is the ``repr`` of a result, or the type,
reason tag and message of an error, over a seeded set of points that reaches
every error of these kernels.  The sha256 of all of them is frozen, so any
change to these kernels must keep every float, iteration count and message;
the figure digests see only the points the figures sample, and the
benchmark's reference only to 1e-11 eV.
"""

import hashlib
import math
import random

from lvalley import (
    BURGERS_SI_NM,
    HBAR2_OVER_2M0,
    RelaxationInput,
    bulk_levels,
    critical_thickness,
    default_params,
    replace,
    solve_well,
    splitting_report,
    table1_labels,
    table1_set,
)

P = default_params()
PARAM_SETS = (
    P,
    *(replace(P, deformation=table1_set(label)) for label in table1_labels()),
    replace(P, bands=replace(P.bands, v0_offset_111=0.05)),
)

KERNEL_POINTS = 2000
KERNEL_SEED = 22
# sha256 over KERNEL_POINTS outcomes from KERNEL_SEED, and the fixed cases
KERNEL_DIGEST = "37d596eda64893fa48afc03db1e97e33b999348fcc19f19339dff76000d07ade"


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _or_special(rng, value, specials, share=0.1):
    """``value``, or one of ``specials`` with probability ``share``."""
    if rng.random() < share:
        return specials[int(rng.random() * len(specials))]
    return value


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as err:  # every error is an outcome to freeze
        return f"{type(err).__name__}({getattr(err, 'reason', None)!r}): {err}"


def _splitting_point(rng):
    params = PARAM_SETS[int(rng.random() * len(PARAM_SETS))]
    t = _or_special(rng, _log_uniform(rng, 0.1, 60.0), (0.0, -1.0, math.nan, math.inf, 1e-9, 1e7))
    x = _or_special(rng, rng.random(), (-0.1, 1.1, math.nan, 0.0, 1.0))
    return _outcome(splitting_report, params, t, x)


def _relaxation_point(rng):
    x = _or_special(rng, rng.random(), (-0.1, 1.1, math.nan, math.inf, 0.0, 1.0))
    b = _or_special(
        rng, BURGERS_SI_NM * _log_uniform(rng, 1e-3, 1e3),
        (0.0, -0.384, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e300),
    )
    slope = _or_special(
        rng, _log_uniform(rng, 1e-4, 10.0),
        (0.0, -0.0418, math.nan, math.inf, -math.inf, 1e-200, 1e200),
    )

    def solve():
        return critical_thickness(RelaxationInput(x, P.elastic, b, slope))

    return _outcome(solve)


def _well_point(rng):
    t = _or_special(rng, _log_uniform(rng, 1e-8, 1e8), (0.0, -1.0, math.nan, math.inf))
    v0 = _log_uniform(rng, 1e-4, 1e4)
    masses = (5e-324, 1e-300, 1e300)
    m_in = _or_special(rng, _log_uniform(rng, 1e-3, 1e2), masses, share=0.03)
    m_out = _or_special(rng, _log_uniform(rng, 1e-3, 1e2), masses, share=0.03)
    return _outcome(solve_well, t, v0, m_in, m_out)


def _bulk_point(rng):
    params = PARAM_SETS[int(rng.random() * len(PARAM_SETS))]
    eps = _or_special(
        rng, rng.uniform(-0.12, 0.12),
        (math.nan, math.inf, -math.inf, 0.1, -0.1, math.nextafter(0.1, 1.0), -0.0, 0.0),
    )
    return _outcome(bulk_levels, params, eps)


POINTS = (_splitting_point, _relaxation_point, _well_point, _bulk_point)


def kernel_outcomes(seed, n):
    """The outcomes of ``n`` seeded points, the kernels in turn, then the fixed cases."""
    rng = random.Random(seed)
    for i in range(n):
        yield POINTS[i % len(POINTS)](rng)
    # u0 is exactly pi/2, so both ends of the first branch are the same float
    yield _outcome(solve_well, 0.5 * math.pi, 4.0 * HBAR2_OVER_2M0, 1.0, 1.59)
    # the default design point of the CLI
    yield _outcome(splitting_report, P, 3.0, 1.0)


def kernel_digest(seed, n):
    h = hashlib.sha256()
    for line in kernel_outcomes(seed, n):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_every_kind_of_outcome_is_reached():
    lines = list(kernel_outcomes(KERNEL_SEED, KERNEL_POINTS))
    for prefix in (
        "Splitting(", "CriticalThickness(", "(", "ValueError(None): Ge fraction",
        "ValueError(None): Burgers vector and misfit slope must be finite",
        "ValueError(None): Burgers vector must be positive",
        "ValueError(None): misfit slope must be positive",
        "ValueError(None): well thickness", "ValueError(None): strain must be finite",
        "ValueError(None): |eps_par|",
        *(f"InfeasibleError('{reason}')" for reason in (
            "thin_well", "hard_wall_limit", "mass_ratio", "subnormal", "no_root", "unbounded",
        )),
    ):
        assert any(line.startswith(prefix) for line in lines), prefix


def test_kernel_outputs_are_frozen():
    assert kernel_digest(KERNEL_SEED, KERNEL_POINTS) == KERNEL_DIGEST
