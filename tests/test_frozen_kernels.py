"""The per-point kernels, frozen bit for bit.

One design point runs ``splitting_report`` (``bulk_levels`` and three well
solves) and ``critical_thickness`` (with ``RelaxationInput``
validation).  Each outcome below is the ``repr`` of a result, or the type,
reason tag and message of an error, over a seeded set of points that reaches
every error of these kernels.  The sha256 of all of them is frozen, so any
change to these kernels must keep every float, iteration count and message;
the figure digests see only the points the figures sample, and the
benchmark's reference only to 1e-11 eV.

One sensitivity band point runs the band kernels: ``_gap_root`` for the
nominal gap and each corner, ``strain_to_x`` for each crossover that stays
below pure Ge, and ``sensitivity_curve`` around them.  ``BAND_DIGEST``
freezes their outcomes the same way, over the edges of each: non-finite and
zero coefficients, discriminants that overflow or fall below the normal
range, strains at and next to the pure-Ge ceiling, and parameter sets whose
corner slopes straddle zero or overflow.
"""

import hashlib
import math
import random

from lvalley import (
    BURGERS_SI_NM,
    HBAR2_OVER_2M0,
    DeformationPotentials,
    LatticeParams,
    RelaxationInput,
    bulk_levels,
    critical_thickness,
    default_params,
    design,
    replace,
    sensitivity_curve,
    solve_well,
    splitting_report,
    strain_to_x,
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


BAND_POINTS = 3000
BAND_SEED = 25
# sha256 over BAND_POINTS outcomes from BAND_SEED, and the fixed cases
BAND_DIGEST = "c3c98d4a6b0d5b56042799eabbe320ac7e0989f9a60f226d8b989a580d48c3e5"

_COEFFICIENTS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e160, -1e160, 1.7e308, 5e-324)
_OFFSETS = (math.nan, -math.inf, 0.0, -0.0, 1.0, -5e-324, -1e-310, -1.7e308)


def _signed_log_uniform(rng, lo, hi):
    return (1.0 if rng.random() < 0.5 else -1.0) * _log_uniform(rng, lo, hi)


def _gap_point(rng):
    c0 = _or_special(rng, -_log_uniform(rng, 1e-320, 1e300), _OFFSETS, share=0.15)
    if rng.random() < 0.5:
        c1, c2 = rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)
    else:
        c1 = _signed_log_uniform(rng, 1e-300, 1e300)
        c2 = _signed_log_uniform(rng, 1e-300, 1e300)
    c1 = _or_special(rng, c1, _COEFFICIENTS, share=0.15)
    c2 = _or_special(rng, c2, _COEFFICIENTS, share=0.15)
    return _outcome(design._gap_root, c0, c1, c2)


def _lattice(rng):
    if rng.random() < 0.3:
        return P.lattice
    a_si = rng.uniform(5.0, 6.0)
    diff = rng.uniform(0.01, 0.6)
    return LatticeParams(a_si, a_si + diff, rng.uniform(-0.99, 0.99) * diff)


def _strain_point(rng):
    lat = _lattice(rng)
    ceiling = design._pure_ge_strain(lat)
    eps = _or_special(
        rng, rng.uniform(0.0, ceiling) if rng.random() < 0.7 else rng.uniform(-0.1, 0.2),
        (
            -0.0, 0.0, 5e-324, 1e-300, ceiling, math.nextafter(ceiling, math.inf),
            math.nextafter(ceiling, -math.inf), 2.0 * ceiling, math.nan, math.inf,
            -math.inf, -5e-324, -0.01,
        ),
        share=0.3,
    )
    return _outcome(strain_to_x, eps, lat)


# linear slopes that straddle zero under a dominant curvature, one corner
# slope that overflows, and an L edge just above Delta6 (crossed at zero strain)
_STRADDLE = DeformationPotentials(1.0, -7.38905609893065, 1.0, -7.38905609893065)
BAND_SETS = (
    *PARAM_SETS,
    *(
        replace(P, deformation=_STRADDLE, quadratic=replace(P.quadratic, d_L1=-1.0, d_delta6=d))
        for d in (1.8445513014941297e150, 1.675997586012831e123, 1.2057950493594587e63, 50.0)
    ),
    replace(P, deformation=replace(P.deformation, xi_d_delta=5.6e307, xi_d_L=-5.6e307)),
    replace(P, bands=replace(P.bands, e0_L=1.2)),
)


def _random_set(rng):
    dp = table1_set(table1_labels()[int(rng.random() * len(table1_labels()))])
    scale = _log_uniform(rng, 0.1, 10.0)
    return replace(
        P,
        deformation=DeformationPotentials(
            dp.xi_u_delta * scale, dp.xi_d_delta * rng.uniform(-3.0, 3.0),
            dp.xi_u_L * _log_uniform(rng, 0.1, 10.0), dp.xi_d_L * rng.uniform(-3.0, 3.0),
        ),
        quadratic=replace(
            P.quadratic, d_L1=rng.uniform(-60.0, 10.0), d_delta6=rng.uniform(-40.0, 10.0)
        ),
        bands=replace(P.bands, e0_L=P.bands.e0_L + rng.uniform(-0.92, 0.8)),
    )


def _curve(params, grid, mode):
    """Bands and (t, error type, reason, message) failures of one sweep."""
    bands, failures = sensitivity_curve(params, grid, mode)
    return bands, [
        (t, type(err).__name__, getattr(err, "reason", None), str(err)) for t, err in failures
    ]


def _curve_point(rng):
    if rng.random() < 0.5:
        params = BAND_SETS[int(rng.random() * len(BAND_SETS))]
    else:
        params = _random_set(rng)
    ends = (0.5, 50.0, 0.4999, 50.0001, math.nan, math.inf)
    grid = [_or_special(rng, _log_uniform(rng, 0.3, 80.0), ends) for _ in range(3)]
    mode = design.SENSITIVITY_MODES[int(rng.random() * len(design.SENSITIVITY_MODES))]
    return _outcome(_curve, params, grid, mode)


BAND_KERNELS = (_gap_point, _strain_point, _gap_point, _strain_point, _curve_point)


def band_outcomes(seed, n):
    """The outcomes of ``n`` seeded band points, the kernels in turn, then the fixed cases."""
    rng = random.Random(seed)
    for i in range(n):
        yield BAND_KERNELS[i % len(BAND_KERNELS)](rng)
    lat = P.lattice
    ceiling = design._pure_ge_strain(lat)
    for eps in (-0.0, 5e-324, ceiling, math.nextafter(ceiling, 1.0), math.nextafter(ceiling, 0.0)):
        yield _outcome(strain_to_x, eps, lat)
    for c0, c1, c2 in (
        # a discriminant below the normal range, and one that underflows to zero
        (-1e-310, 0.0, 1.0), (-5e-324, 0.0, 0.125), (-1e-310, -0.0, 1.0),
        # discriminants that overflow: through the slope, and through the curvature
        (-0.5, 1e160, 1.0), (-0.5, -1e160, 1e300), (-1.0, 1.0, 1.7e308),
        # c1 = +-0 with a regular curvature
        (-0.9, 0.0, 10.0), (-0.9, -0.0, 10.0),
    ):
        yield _outcome(design._gap_root, c0, c1, c2)
    for params in BAND_SETS:
        for mode in design.SENSITIVITY_MODES:
            yield _outcome(_curve, params, [0.5, 3.0, 4.0, 10.0, 50.0], mode)
    yield _outcome(_curve, P, [3.0], "no_such_mode")


def band_digest(seed, n):
    h = hashlib.sha256()
    for line in band_outcomes(seed, n):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_every_kind_of_band_outcome_is_reached():
    lines = list(band_outcomes(BAND_SEED, BAND_POINTS))
    for prefix in (
        "None", "InfeasibleError('below_at_zero')", "InfeasibleError('requires_x_gt_1')",
        "ValueError(None): gap slope and curvature must be finite",
        "ValueError(None): compressive strain", "ValueError(None): strain must be a number",
        "ValueError(None): unknown sensitivity mode",
    ):
        assert any(line.startswith(prefix) for line in lines), prefix
    for part in (
        "'no_crossing'", "'below_at_zero'", "'requires_x_gt_1'", "clipped=True", "clipped=False",
        "gap slope and curvature must be finite", "outside the supported range",
    ):
        assert any(line.startswith("([") and part in line for line in lines), part


def test_band_outputs_are_frozen():
    assert band_digest(BAND_SEED, BAND_POINTS) == BAND_DIGEST
