"""Crossover design engine.

Combines strained bulk valley energies with the confinement energy of each
valley, locates the critical in-plane strain where the L1 level drops below
Delta6, maps strain to the Ge fraction of the barrier alloy through the
Vegard rule, and evaluates deformation-potential sensitivity envelopes from
the corners of the perturbed box that bound the crossover.

Both roots are closed-form.  The Delta6 - L1 gap is exactly the quadratic
c0 + c1 eps + c2 eps**2 in the in-plane strain, and the Vegard strain is
exactly quadratic in x, so each is solved with the cancellation-free
quadratic formula (Press et al., Numerical Recipes, section 5.6).
"""

from __future__ import annotations

import math
from itertools import product

from .errors import InfeasibleError
from .materials import LatticeParams, MaterialParams, Record, Valley, replace
from .valleys import bulk_levels, valley_coefficients
from .well import _level

# Crossover search bracket: slightly above the strain of pure-Ge barriers,
# so "no crossing at all" is distinguishable from "requires x > 1".
EPS_BRACKET_MAX = 0.06

# Thickness range with a supported crossover search.
T_MIN_NM = 0.5
T_MAX_NM = 50.0

SENSITIVITY_MODES = ("linear10pct", "quadratic_range", "both")

# Scale factors (low, high) applied independently to each first-order
# deformation potential in the linear10pct corner set.
LINEAR_VARIATION_FACTORS = (0.9, 1.1)

# Literature spread of the reduced quadratic coefficients, eV.
QUADRATIC_COEFF_RANGES = {
    Valley.L1: (-30.0, -15.0),
    Valley.L3: (-20.0, -10.0),
    Valley.DELTA6: (-15.0, -5.0),
}


class CrossoverResult(Record):
    """Critical strain and Ge fraction where L1 and Delta6 intersect."""

    __slots__ = ("thickness_t", "eps_critical", "x_critical")


class SensitivityBand(Record):
    """Envelope of the critical Ge fraction over a perturbed-parameter box.

    ``clipped`` marks bands where at least one corner has no crossover below
    x = 1; such corners are recorded at x = 1.  A clip is a value of the
    band, not an error of its thickness.
    """

    __slots__ = ("thickness_t", "x_low", "x_nominal", "x_high", "clipped")
    _defaults = {"clipped": False}


class Splitting(Record):
    """Delta6 - L1 and L3 - L1 at one (thickness, Ge fraction) point, eV."""

    __slots__ = ("delta6_minus_l1", "l3_minus_l1")


# ---------------------------------------------------------------------------
# Vegard mapping between Ge fraction and in-plane strain

def x_to_strain(x: float, lat: LatticeParams) -> float:
    """In-plane strain of the Si well on a relaxed Si(1-x)Ge(x) barrier.

    a(x) / a_si - 1 for the Vegard alloy lattice a(x) = (1 - x) a_si +
    x a_ge + bowing_b x (1 - x), with the a_si terms cancelled by hand, so
    the strain keeps full relative precision down to the smallest x.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"Ge fraction must lie in [0, 1], got {x}")
    return x * ((lat.a_ge - lat.a_si) + lat.bowing_b * (1.0 - x)) / lat.a_si


def _pure_ge_strain(lat: LatticeParams) -> float:
    """x_to_strain(1.0, lat) bit for bit: its bowing term b * (1 - 1) is a signed zero."""
    return (lat.a_ge - lat.a_si) / lat.a_si


def strain_to_x(eps_par: float, lat: LatticeParams) -> float:
    """Ge fraction producing a given in-plane strain (monotone inversion).

    The Vegard relation gives -b x**2 + B x - a_si eps = 0 with
    B = a_ge - a_si + b, which is positive because |b| < a_ge - a_si.  The
    root in [0, 1] is x = 2 a_si eps / (B + sqrt(B**2 - 4 b a_si eps)): one
    formula for either sign of b, free of cancellation even for tiny strains.
    """
    if not eps_par >= 0.0:
        if math.isnan(eps_par):
            raise ValueError("strain must be a number, got nan")
        raise ValueError("compressive strain has no Ge-barrier realization")
    ceiling = _pure_ge_strain(lat)
    if eps_par == 0.0:
        return 0.0
    if eps_par == ceiling:
        return 1.0
    if eps_par > ceiling:
        raise InfeasibleError(
            f"strain {eps_par:.6g} exceeds the pure-Ge value {ceiling:.6g}: "
            "requires x > 1",
            reason="requires_x_gt_1",
        )
    a_si, b = lat.a_si, lat.bowing_b
    a_eps = a_si * eps_par
    lin = (lat.a_ge - a_si) + b
    # the discriminant is at least (a_ge - a_si - b)**2 > 0 below the ceiling
    disc = max(lin * lin - 4.0 * b * a_eps, 0.0)
    return min(2.0 * a_eps / (lin + math.sqrt(disc)), 1.0)


# ---------------------------------------------------------------------------
# Combined energies and the L1/Delta6 crossover

def confinement_energies(params: MaterialParams, thickness_t: float) -> tuple[float, float, float]:
    """Confinement energies (L1, L3, Delta6) at one thickness as plain floats, eV."""
    return (
        _level(params, params.masses_l1, thickness_t),
        _level(params, params.masses_l3, thickness_t),
        _level(params, params.masses_delta6, thickness_t),
    )


def _gap_offset(params: MaterialParams, t: float) -> float:
    """Delta6 - L1 gap at zero strain and thickness t, confinement included, eV.

    Solves the L1 and the Delta6 well only: the gap never reads L3.
    """
    q_l1 = _level(params, params.masses_l1, t)
    q_d6 = _level(params, params.masses_delta6, t)
    return params.bands.e0_delta - params.bands.e0_L + q_d6 - q_l1


def _gap_root(c0: float, c1: float, c2: float) -> float | None:
    """Strain in [0, EPS_BRACKET_MAX] where c0 + c1 eps + c2 eps**2 turns positive.

    None if the gap is still negative at EPS_BRACKET_MAX: no crossing.  The
    two guards leave exactly one sign change inside the bracket.  With
    q = -(c1 + sgn(c1) sqrt(c1**2 - 4 c2 c0)) / 2 the roots are c0 / q and
    q / c2, and neither subtracts nearly equal numbers.  For c1 >= 0 the
    crossing is c0 / q, which also covers c2 == 0; for c1 < 0 the guards
    force c2 > 0 and the crossing is q / c2.  A non-finite slope or
    curvature is a domain error; a discriminant that overflows (a slope
    above about 1e154, or a curvature near the float limit) takes
    :func:`_scaled_root` instead.
    """
    if c0 >= 0.0:
        raise InfeasibleError(
            "L1 already lies below Delta6 at zero strain", reason="below_at_zero"
        )
    disc = c1 * c1 - 4.0 * c2 * c0
    # with c0 < 0, an infinite or nan c1 or c2 always makes disc non-finite
    overflow = not math.isfinite(disc)
    if overflow and not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError("gap slope and curvature must be finite")
    if c0 + (c1 + c2 * EPS_BRACKET_MAX) * EPS_BRACKET_MAX < 0.0:
        return None
    if overflow:
        root = _scaled_root(c0, c1, c2)
    else:
        sq = math.sqrt(max(disc, 0.0))
        root = -2.0 * c0 / (c1 + sq) if c1 >= 0.0 else (sq - c1) / (2.0 * c2)
    # both forms are positive; rounding can only push a root at the bracket end past it
    return min(root, EPS_BRACKET_MAX)


def _scaled_root(c0: float, c1: float, c2: float) -> float:
    """:func:`_gap_root`'s two forms for a discriminant that overflows.

    With h = c1 / 2 and m = sqrt|c2| sqrt|c0|, the discriminant is
    4 (h**2 + sgn(c2) m**2) because c0 < 0.  Dividing h, m and sqrt(disc) / 2
    by s = max(|h|, m) bounds each square by 1, and the guards of
    :func:`_gap_root` keep s / c2 below 0.06 on the c1 < 0 side.
    """
    half = 0.5 * c1
    m = math.sqrt(abs(c2)) * math.sqrt(-c0)
    s = max(abs(half), m)
    h, r = half / s, m / s
    w = math.sqrt(max(h * h + r * r if c2 > 0.0 else h * h - r * r, 0.0))
    return (-c0 / s) / (h + w) if c1 >= 0.0 else (w - h) * (s / c2)


def _crossing(params: MaterialParams, t: float, c1: float, c2: float) -> tuple[float, float]:
    """(c0, eps*) of the gap with slope c1 and curvature c2 at a supported thickness t."""
    if not T_MIN_NM <= t <= T_MAX_NM:
        raise ValueError(
            f"thickness {t} nm outside the supported range [{T_MIN_NM}, {T_MAX_NM}] nm"
        )
    c0 = _gap_offset(params, t)
    eps = _gap_root(c0, c1, c2)
    if eps is None:
        raise InfeasibleError(
            f"L1 never drops below Delta6 for strain up to {EPS_BRACKET_MAX}",
            reason="no_crossing",
        )
    return c0, eps


def _nominal_gap(params: MaterialParams) -> tuple[float, float]:
    """(c1, c2) of the nominal gap, Delta6 - L1, from the set's kept valley table."""
    (_, c1_l1, c2_l1), _, (_, c1_d6, c2_d6) = params._derive(valley_coefficients)
    return c1_d6 - c1_l1, c2_d6 - c2_l1


def critical_strain(params: MaterialParams, thickness_t: float) -> CrossoverResult:
    """Critical strain and Ge fraction at which L1 and Delta6 intersect."""
    _, eps = _crossing(params, thickness_t, *_nominal_gap(params))
    return CrossoverResult(thickness_t, eps, strain_to_x(eps, params.lattice))


def _at_thickness(t: float, err: InfeasibleError | ValueError) -> InfeasibleError | ValueError:
    """``err`` of one sweep point, its message prefixed ``t = <t> nm:``, reason kept."""
    message = f"t = {t:g} nm: {err}"
    named = (
        InfeasibleError(message, reason=err.reason)
        if isinstance(err, InfeasibleError)
        else ValueError(message)
    )
    named.__cause__ = err
    return named


def crossover_curve(
    params: MaterialParams, t_grid: list[float]
) -> tuple[list[CrossoverResult], list[tuple[float, Exception]]]:
    """Crossover over a thickness grid.

    A failing thickness is collected as (t, error), named as in
    :func:`sensitivity_curve`; the other points still get their crossover.
    """
    results: list[CrossoverResult] = []
    failures: list[tuple[float, Exception]] = []
    for t in t_grid:
        try:
            results.append(critical_strain(params, t))
        except (InfeasibleError, ValueError) as err:
            failures.append((t, _at_thickness(t, err)))
    return results, failures


def splitting_report(params: MaterialParams, thickness_t: float, x: float) -> Splitting:
    """Valley splittings relative to L1 at a (thickness, Ge fraction) point."""
    b_l1, b_l3, b_d6 = bulk_levels(params, x_to_strain(x, params.lattice))
    q_l1, q_l3, q_d6 = confinement_energies(params, thickness_t)
    # (e0 + de1 + de2) + eq, the order of ValleyEnergy.total
    e_l1 = b_l1 + q_l1
    return Splitting(delta6_minus_l1=(b_d6 + q_d6) - e_l1, l3_minus_l1=(b_l3 + q_l3) - e_l1)


# ---------------------------------------------------------------------------
# Sensitivity envelopes from the extreme corners

def _extreme_corners(
    params: MaterialParams, mode: str
) -> tuple[tuple[float, float], tuple[tuple[float, float], ...]]:
    """(c1, c2) gap coefficients of the nominal set, and the corners that bound the box.

    Every corner is a parameter set whose gap :func:`_nominal_gap` reads, so
    :func:`~lvalley.valleys.linear_shift` stays the one first-order formula.
    The linear box scales each first-order potential by either factor of
    LINEAR_VARIATION_FACTORS (16 sets); the quadratic box takes the two ends
    of the literature ranges of d_L1 and d_delta6, each widened to hold the
    nominal coefficient.  The up corner has the largest slope and curvature
    of its box, the down corner the smallest.  A box with a negative slope
    gives every (slope, curvature) pair and the nominal curvature instead:
    the two forms of :func:`_gap_root` meet only to a few ulp at c1 = 0.  A
    scaled potential that overflows is rejected as the parameter set
    rejects a non-finite one.  If any slope is not finite, both corner
    slopes are nan, which fails every thickness: ``max`` over a list holding
    nan depends on its order.  ``mode`` is one of SENSITIVITY_MODES, which
    :func:`sensitivity_curve` checks.
    """
    dp, q = params.deformation, params.quadratic
    factors = (1.0,) if mode == "quadratic_range" else LINEAR_VARIATION_FACTORS
    slopes = [
        _nominal_gap(replace(params, deformation=replace(
            dp, xi_u_delta=dp.xi_u_delta * a, xi_d_delta=dp.xi_d_delta * b,
            xi_u_L=dp.xi_u_L * c, xi_d_L=dp.xi_d_L * d,
        )))[0]
        for a, b, c, d in product(factors, repeat=4)
    ]
    if not all(map(math.isfinite, slopes)):
        slopes = [math.nan]
    quads = [q]
    if mode != "linear10pct":
        ranges = QUADRATIC_COEFF_RANGES
        (l1_lo, l1_hi), (d6_lo, d6_hi) = ranges[Valley.L1], ranges[Valley.DELTA6]
        quads = [
            replace(q, d_L1=min(l1_lo, q.d_L1), d_delta6=max(d6_hi, q.d_delta6)),
            replace(q, d_L1=max(l1_hi, q.d_L1), d_delta6=min(d6_lo, q.d_delta6)),
        ]
    curvatures = [_nominal_gap(replace(params, quadratic=quad))[1] for quad in quads]
    # the nominal is read last, so a call that raises above keeps nothing
    nominal = _nominal_gap(params)
    if any(s < 0.0 for s in slopes):
        return nominal, tuple(product(slopes, [*curvatures, nominal[1]]))
    return nominal, ((max(slopes), max(curvatures)), (min(slopes), min(curvatures)))


def _corner_x(
    c0: float, c1: float, c2: float, lat: LatticeParams, ceiling: float
) -> tuple[float, bool]:
    """Critical Ge fraction of one corner and whether it was clipped to x = 1.

    A clip is a value, not an error: no crossing in the bracket, or one above
    the pure-Ge strain ``ceiling``, the comparisons on which :func:`_crossing`
    and :func:`strain_to_x` raise.  below_at_zero and non-finite c1 or c2 raise.
    """
    eps = _gap_root(c0, c1, c2)
    if eps is None or eps > ceiling:
        return 1.0, True
    return strain_to_x(eps, lat), False


def sensitivity_curve(
    params: MaterialParams, t_grid: list[float], mode: str
) -> tuple[list[SensitivityBand], list[tuple[float, Exception]]]:
    """Envelope of the critical Ge fraction over the perturbed-parameter box.

    The crossing is the first upward zero of c0 + c1 eps + c2 eps**2 with
    c0 < 0, so it falls as c1 or c2 rises, the no-crossing guard moves the
    same way and strain_to_x is increasing.  x_low is therefore the
    crossover of the (max c1, max c2) corner and x_high that of the
    (min c1, min c2) corner, unless the slopes straddle zero (see
    :func:`_extreme_corners`).  A corner whose crossover would need x > 1,
    or none at all, enters at x = 1 and sets the ``clipped`` flag.  The
    corners come from the parameter sets of :func:`_extreme_corners`, which
    the set enumerates once per mode and keeps from its first call on.

    A thickness whose nominal crossover fails, which lies outside the
    supported range, or where a corner's slope or curvature overflows, is
    collected as (t, error) with the error's message prefixed
    ``t = <t> nm:`` and its reason tag kept; the other points still get
    their bands.
    """
    if mode not in SENSITIVITY_MODES:
        raise ValueError(f"unknown sensitivity mode {mode!r}; valid: {SENSITIVITY_MODES}")
    (c1_nom, c2_nom), corners = params._derive(_extreme_corners, mode)
    lat = params.lattice
    ceiling = _pure_ge_strain(lat)
    bands: list[SensitivityBand] = []
    failures: list[tuple[float, Exception]] = []
    for t in t_grid:
        # corners perturb only c1 and c2, so c0 and its below_at_zero check
        # are shared by the whole box
        try:
            c0, eps = _crossing(params, t, c1_nom, c2_nom)
            x_nom = strain_to_x(eps, lat)
            if len(corners) == 2:
                up, down = corners
                x_low, _ = _corner_x(c0, *up, lat, ceiling)
                x_high, clipped = _corner_x(c0, *down, lat, ceiling)
            else:
                # a clipped corner is (1.0, True), so max also finds any clip
                xs = [_corner_x(c0, c1, c2, lat, ceiling) for c1, c2 in corners]
                x_low, (x_high, clipped) = min(xs)[0], max(xs)
        except (InfeasibleError, ValueError) as err:
            failures.append((t, _at_thickness(t, err)))
            continue
        bands.append(SensitivityBand(t, x_low, x_nom, x_high, clipped))
    return bands, failures


def sensitivity_band(
    params: MaterialParams, t_grid: list[float], mode: str
) -> list[SensitivityBand]:
    """Bands of :func:`sensitivity_curve`; raises its first failure, if any."""
    bands, failures = sensitivity_curve(params, t_grid, mode)
    if failures:
        raise failures[0][1]
    return bands
