import math
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import bisect_crossover, bisect_vegard, crossover_gap, vegard_a

from lvalley import (
    DeformationPotentials,
    ElasticConstants,
    InfeasibleError,
    LatticeParams,
    QuadraticCoefficients,
    RelaxationInput,
    SensitivityBand,
    Splitting,
    Valley,
    bulk_energy,
    bulk_levels,
    confinement_energies,
    critical_strain,
    critical_thickness,
    crossover_curve,
    default_params,
    design,
    ground_state,
    linear_shift,
    materials,
    perp_strain_ratio,
    replace,
    sensitivity_band,
    sensitivity_curve,
    splitting_report,
    strain_to_x,
    valley_coefficients,
    valleys,
    well,
    well_config,
    x_to_strain,
)

PARAMS = default_params()
LAT = PARAMS.lattice


# --- combined energies ------------------------------------------------------

def _levels(params, t, eps):
    """Total levels (L1, L3, Delta6) at thickness t and strain eps: bulk plus confinement, eV."""
    return tuple(b + q for b, q in zip(bulk_levels(params, eps), confinement_energies(params, t)))


def _breakdown(valley, params, t, eps):
    """One valley's (e0, de1, de2, eq): edge, first- and second-order shifts, confinement, eV."""
    i = list(Valley).index(valley)
    e0, c1, c2 = valley_coefficients(params)[i]
    return e0, c1 * eps, c2 * eps * eps, confinement_energies(params, t)[i]


def test_total_energy_reference_point():
    # 1.17 plus the t = 3 nm confinement energy of Delta6
    total = _levels(PARAMS, 3.0, 0.0)[2]
    assert total == pytest.approx(1.210, abs=3e-3)
    assert _breakdown(Valley.DELTA6, PARAMS, 3.0, 0.0)[3] == pytest.approx(0.0398, abs=1e-3)


def test_total_energy_confinement_vanishes_for_wide_well():
    wide = _levels(PARAMS, 1e4, 0.02)[0]
    assert wide == pytest.approx(bulk_energy(Valley.L1, PARAMS, 0.02), abs=1e-5)


def test_near_crossing_at_t10():
    e_l1, _, e_d6 = _levels(PARAMS, 10.0, 0.0395)
    assert abs(e_l1 - e_d6) < 3e-3


def test_total_energy_breakdown_sums():
    total = _levels(PARAMS, 4.0, 0.03)[1]
    e0, de1, de2, eq = _breakdown(Valley.L3, PARAMS, 4.0, 0.03)
    assert abs(total - (e0 + de1 + de2 + eq)) < 1e-12


# --- Vegard mapping ----------------------------------------------------------

def test_vegard_endpoints():
    assert vegard_a(0.0, LAT) == 5.4307
    assert vegard_a(1.0, LAT) == 5.6575


def test_vegard_hand_value():
    assert vegard_a(0.935, LAT) == pytest.approx(5.6411, abs=5e-4)


def test_vegard_domain():
    with pytest.raises(ValueError):
        vegard_a(1.2, LAT)
    with pytest.raises(ValueError):
        vegard_a(-0.1, LAT)
    for x in (1.2, -0.1, math.nan):
        with pytest.raises(ValueError):
            x_to_strain(x, LAT)


def test_x_to_strain_values():
    assert x_to_strain(0.0, LAT) == 0.0
    assert x_to_strain(1.0, LAT) == pytest.approx(0.04176, abs=2e-4)
    assert x_to_strain(0.935, LAT) == pytest.approx(0.0387, abs=5e-4)


def test_x_to_strain_full_precision_at_every_scale():
    # exact rational vegard_a(x)/a_si - 1 of the float inputs; the rounded
    # difference form is 0 at x = 1e-16 and loses digits at every small x
    a_si, a_ge, b = Fraction(LAT.a_si), Fraction(LAT.a_ge), Fraction(LAT.bowing_b)
    for x in (1e-300, 1e-16, 1e-6, 1e-3, 0.5, 0.935, 1.0):
        fx = Fraction(x)
        exact = ((1 - fx) * a_si + fx * a_ge + b * fx * (1 - fx)) / a_si - 1
        assert abs(Fraction(x_to_strain(x, LAT)) - exact) <= Fraction(4e-16) * exact, x


def test_strain_to_x_endpoints_and_inverse():
    assert strain_to_x(0.0, LAT) == 0.0
    assert strain_to_x(x_to_strain(1.0, LAT), LAT) == 1.0
    # full relative precision for tiny strains, where x ~ a_si eps / (a_ge - a_si + b)
    tiny = LAT.a_si * 1e-300 / (LAT.a_ge - LAT.a_si + LAT.bowing_b)
    assert strain_to_x(1e-300, LAT) == pytest.approx(tiny, rel=1e-12)


def test_strain_to_x_keeps_the_sign_of_zero():
    # the Vegard formula itself maps zero strain to zero, either sign kept
    assert repr(strain_to_x(0.0, LAT)) == "0.0"
    assert repr(strain_to_x(-0.0, LAT)) == "-0.0"


def test_strain_to_x_infeasible_above_pure_ge():
    with pytest.raises(InfeasibleError) as exc:
        strain_to_x(0.045, LAT)
    assert exc.value.reason == "requires_x_gt_1"


def test_strain_to_x_rejects_compression():
    with pytest.raises(ValueError):
        strain_to_x(-0.01, LAT)
    with pytest.raises(ValueError, match="nan"):
        strain_to_x(math.nan, LAT)


def test_vegard_round_trip_1000():
    rng = np.random.default_rng(17)
    for x in rng.uniform(0.0, 1.0, size=1000):
        assert abs(strain_to_x(x_to_strain(float(x), LAT), LAT) - x) < 1e-8


@settings(max_examples=300, deadline=None)
@given(x=st.floats(0.0, 1.0), bowing=st.floats(-0.2, 0.2))
@example(x=1.0, bowing=0.2)
@example(x=1.0, bowing=-0.2)
def test_vegard_round_trip_either_bowing_sign(x, bowing):
    lat = LatticeParams(a_si=5.4307, a_ge=5.6575, bowing_b=bowing)
    back = strain_to_x(x_to_strain(x, lat), lat)
    if x == 1.0:
        # the pure-Ge strain is the ceiling itself
        assert back == 1.0
    assert abs(back - x) <= 1e-12


# --- crossover ----------------------------------------------------------------

def test_crossover_t3():
    r = critical_strain(PARAMS, 3.0)
    assert r.eps_critical == pytest.approx(0.0388, abs=5e-4)
    assert r.x_critical == pytest.approx(0.935, abs=2e-3)


def test_crossover_t4():
    assert critical_strain(PARAMS, 4.0).x_critical == pytest.approx(0.939, abs=2e-3)


def test_crossover_t10():
    assert critical_strain(PARAMS, 10.0).eps_critical == pytest.approx(0.0395, abs=5e-4)


def test_crossover_thickness_domain():
    with pytest.raises(ValueError):
        critical_strain(PARAMS, 0.2)
    with pytest.raises(ValueError):
        critical_strain(PARAMS, 60.0)


def test_crossing_is_a_true_root():
    for t in (1.0, 3.0, 10.0):
        r = critical_strain(PARAMS, t)
        e_l1, _, e_d6 = _levels(PARAMS, t, r.eps_critical)
        assert abs(e_d6 - e_l1) <= 1e-6


def _gap_changes_sign_at(c0, c1, c2, eps):
    """Whether the float gap c0 + (c1 + c2 eps) eps is negative just below eps, positive above."""
    def gap(e):
        return c0 + (c1 + c2 * e) * e

    return gap(eps * (1.0 - 1e-9)) < 0.0 < gap(eps * (1.0 + 1e-9))


# a slope whose square overflows (true root 2.07e-300) and a curvature whose
# product with c0 does (true root 7.3e-155): the discriminant is infinite
@pytest.mark.parametrize("section, field, value", [
    ("deformation", "xi_u_L", 1e300),
    ("quadratic", "d_delta6", 1.7e308),
])
def test_crossing_with_an_overflowing_discriminant_is_a_true_root(section, field, value):
    params = replace(PARAMS, **{section: replace(getattr(PARAMS, section), **{field: value})})
    gap = params._derive(design._gap_table)
    c1, c2 = gap[3:]
    c0, _ = design._crossing(gap, 3.0)
    assert not math.isfinite(c1 * c1 - 4.0 * c2 * c0)
    eps = critical_strain(params, 3.0).eps_critical
    assert eps > 0.0
    assert _gap_changes_sign_at(c0, c1, c2, eps)


def test_gap_root_with_an_overflowing_discriminant_is_a_true_root():
    rng = random.Random(5)
    checked = 0
    for _ in range(3000):
        c0 = -(10.0 ** rng.uniform(-2.0, 2.0))
        c1 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(100.0, 300.0)
        c2 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 308.0)
        if math.isfinite(c1 * c1 - 4.0 * c2 * c0):
            continue
        eps = design._gap_root(c0, c1, c2)
        if eps is None:
            continue
        checked += 1
        assert eps > 0.0, (c0, c1, c2)
        assert _gap_changes_sign_at(c0, c1, c2, eps), (c0, c1, c2, eps)
    assert checked > 500


def _exact_gap_changes_sign_at(c0, c1, c2, eps):
    """:func:`_gap_changes_sign_at` in exact arithmetic, for a gap too small for floats."""
    def gap(e):
        return Fraction(c0) + (Fraction(c1) + Fraction(c2) * e) * e

    nudge = Fraction(1, 10**9)
    return gap(Fraction(eps) * (1 - nudge)) < 0 < gap(Fraction(eps) * (1 + nudge))


@pytest.mark.parametrize("c0, c1, c2", [
    # the discriminant rounds to zero (true root 6.29e-162), or keeps a few
    # subnormal bits while the slope's square underflows
    (-5e-324, 0.0, 0.125),
    (-5e-324, 1e-170, 0.125),
    (-5e-324, -1e-170, 0.125),
    (-1e-310, 1e-160, 3.0),
    (-1e-310, 2e-155, -1e-160),
])
def test_gap_root_with_an_underflowing_discriminant_is_a_true_root(c0, c1, c2):
    assert abs(c1 * c1 - 4.0 * c2 * c0) < sys.float_info.min
    eps = design._gap_root(c0, c1, c2)
    assert eps is not None and eps > 0.0
    assert _exact_gap_changes_sign_at(c0, c1, c2, eps), eps


def test_gap_root_with_a_random_underflowing_discriminant_is_a_true_root():
    rng = random.Random(7)
    checked = 0
    for _ in range(2000):
        c0 = -(10.0 ** rng.uniform(-323.0, -308.0))
        c1 = rng.choice((-1.0, 1.0, 0.0)) * 10.0 ** rng.uniform(-200.0, -154.0)
        c2 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, 10.0)
        if abs(c1 * c1 - 4.0 * c2 * c0) >= sys.float_info.min:
            continue
        eps = design._gap_root(c0, c1, c2)
        if eps is None:
            continue
        checked += 1
        assert eps > 0.0, (c0, c1, c2)
        assert _exact_gap_changes_sign_at(c0, c1, c2, eps), (c0, c1, c2, eps)
    assert checked > 200


@pytest.mark.parametrize("c1, c2", [
    (math.inf, 12.5), (-math.inf, 12.5), (math.nan, 12.5),
    (15.0, math.inf), (15.0, -math.inf), (15.0, math.nan),
])
def test_non_finite_gap_coefficient_is_a_domain_error(c1, c2):
    with pytest.raises(ValueError, match="gap slope and curvature must be finite"):
        design._gap_root(-0.9, c1, c2)


@pytest.mark.parametrize("c0, c1, c2", [
    # once a ZeroDivisionError, a ZeroDivisionError and a nan root
    (math.nan, 0.0, 1.0), (math.nan, -0.0, -3.0), (math.nan, 1.0, 1.0),
])
def test_nan_gap_offset_is_a_domain_error(c0, c1, c2):
    with pytest.raises(ValueError, match="gap offset must be a number"):
        design._gap_root(c0, c1, c2)


def test_a_derived_error_does_not_carry_the_memo_miss():
    # 1.1 x 1.7e308 overflows while the set enumerates its linear box
    params = replace(PARAMS, deformation=replace(PARAMS.deformation, xi_u_L=1.7e308))
    with pytest.raises(ValueError, match="deformation potentials must be finite") as info:
        sensitivity_curve(params, [3.0], "both")
    assert info.value.__context__ is None
    assert params._memo == {}


def test_overflowing_corner_slope_fails_its_point():
    # 1.1 x 1.1e308 stays finite, but its slope term overflows in the up
    # corner only: the nominal crossover exists, the band does not
    dp = replace(PARAMS.deformation, xi_d_delta=1.1e308)
    params = replace(PARAMS, deformation=dp)
    assert critical_strain(params, 3.0).eps_critical > 0.0
    bands, failures = sensitivity_curve(params, [3.0], "linear10pct")
    assert bands == []
    [(t, err)] = failures
    assert t == 3.0 and str(err) == "t = 3 nm: gap slope and curvature must be finite"


def test_sides_of_the_boundary():
    # below the critical strain the minimum sits in Delta6, above it in L1
    for t in range(1, 11):
        r = critical_strain(PARAMS, float(t))
        lo, hi = r.eps_critical - 0.001, r.eps_critical + 0.001
        e_l1, _, e_d6 = _levels(PARAMS, t, lo)
        assert e_l1 > e_d6
        e_l1, _, e_d6 = _levels(PARAMS, t, hi)
        assert e_l1 < e_d6


def test_crossover_curve_matches_pointwise():
    results, failures = crossover_curve(PARAMS, [3.0])
    assert not failures
    assert results[0] == critical_strain(PARAMS, 3.0)


def test_crossover_curve_pair():
    results, _ = crossover_curve(PARAMS, [3.0, 10.0])
    assert results[0].eps_critical == pytest.approx(0.0388, abs=5e-4)
    assert results[1].eps_critical == pytest.approx(0.0395, abs=5e-4)


def test_crossover_curve_x_below_one_everywhere():
    grid = [float(t) for t in np.arange(1.0, 10.01, 0.5)]
    results, failures = crossover_curve(PARAMS, grid)
    assert not failures
    assert all(r.x_critical <= 1.0 for r in results)


def test_crossover_curve_upturn_toward_thin_films():
    grid = [float(t) for t in np.arange(1.0, 3.01, 0.1)]
    results, _ = crossover_curve(PARAMS, grid)
    eps = [r.eps_critical for r in results]
    # interior minimum around 1.4 nm: the boundary rises again toward 1 nm
    i_min = eps.index(min(eps))
    assert 0 < i_min < len(eps) - 1
    assert eps[0] > eps[i_min]
    # and the large-thickness trend is increasing
    assert critical_strain(PARAMS, 3.0).eps_critical < critical_strain(PARAMS, 10.0).eps_critical


def test_crossover_curve_collects_out_of_range_points():
    results, failures = crossover_curve(PARAMS, [3.0, 99.0])
    assert len(results) == 1 and len(failures) == 1
    assert failures[0][0] == 99.0
    assert type(failures[0][1]) is ValueError
    assert str(failures[0][1]).startswith("t = 99 nm: thickness 99.0 nm outside")


# --- splittings -----------------------------------------------------------------

def test_splitting_at_pure_ge():
    s = splitting_report(PARAMS, 3.0, 1.0)
    assert s.delta6_minus_l1 * 1e3 == pytest.approx(72.1, abs=2.0)
    assert s.l3_minus_l1 > 0.8


def test_splitting_vanishes_at_crossover():
    s = splitting_report(PARAMS, 3.0, 0.935)
    assert abs(s.delta6_minus_l1) * 1e3 < 1.0


def test_splitting_validation():
    with pytest.raises(ValueError):
        splitting_report(PARAMS, -3.0, 0.9)
    with pytest.raises(ValueError):
        splitting_report(PARAMS, 3.0, 1.5)


def _repr_or_error(fn):
    """repr of the result, or the raised error's type, reason and message."""
    try:
        return repr(fn())
    except (InfeasibleError, ValueError) as err:
        return type(err), getattr(err, "reason", None), str(err)


_scale = st.floats(0.2, 5.0)


@settings(max_examples=300, deadline=None)
@given(
    t=st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
    x=st.floats(0.0, 1.0),
    v0_scale=_scale,
    l1_scale=_scale,
    l3_scale=_scale,
    d6_scale=_scale,
)
# the failing paths: a thin well, a well at the hard-wall limit, an infinite thickness
@example(t=1e-9, x=0.5, v0_scale=1.0, l1_scale=1.0, l3_scale=1.0, d6_scale=1.0)
@example(t=1e13, x=0.5, v0_scale=1.0, l1_scale=1.0, l3_scale=1.0, d6_scale=1.0)
@example(t=math.inf, x=0.5, v0_scale=1.0, l1_scale=1.0, l3_scale=1.0, d6_scale=1.0)
def test_float_well_path_is_bit_identical_to_object_path(
    t, x, v0_scale, l1_scale, l3_scale, d6_scale
):
    # confinement_energies and splitting_report call the float well kernel;
    # ground_state(well_config(...)) builds the objects, and each level is
    # bulk_energy plus confinement
    params = replace(
        PARAMS,
        bands=replace(PARAMS.bands, v0_offset_111=PARAMS.bands.v0_offset_111 * v0_scale),
        masses_l1=replace(PARAMS.masses_l1, m_in=PARAMS.masses_l1.m_in * l1_scale),
        masses_l3=replace(PARAMS.masses_l3, m_in=PARAMS.masses_l3.m_in * l3_scale),
        masses_delta6=replace(PARAMS.masses_delta6, m_in=PARAMS.masses_delta6.m_in * d6_scale),
    )
    k = params.constants.hbar2_over_2m0

    def object_eqs():
        return tuple(ground_state(well_config(v, params, t), k).energy_eq for v in Valley)

    def object_splitting():
        eps = x_to_strain(x, params.lattice)
        e = {}
        for v in Valley:
            eq = ground_state(well_config(v, params, t), k).energy_eq
            e[v] = bulk_energy(v, params, eps) + eq
        return Splitting(
            delta6_minus_l1=e[Valley.DELTA6] - e[Valley.L1],
            l3_minus_l1=e[Valley.L3] - e[Valley.L1],
        )

    # repr tells 0.0 from -0.0 and shows every bit of each float
    assert _repr_or_error(lambda: confinement_energies(params, t)) == _repr_or_error(object_eqs)
    assert _repr_or_error(lambda: splitting_report(params, t, x)) == _repr_or_error(
        object_splitting
    )


def test_confinement_energies_are_keyed_in_valley_order():
    eqs = confinement_energies(PARAMS, 3.0)
    v0, k = PARAMS.bands.v0_offset_111, PARAMS.constants.hbar2_over_2m0
    expected = tuple(
        well.solve_well(3.0, v0, m.m_in, m.m_out, k)[0] for m in map(PARAMS.masses, Valley)
    )
    assert repr(eqs) == repr(expected)


@pytest.mark.parametrize("t", [0.0, -0.0, -1.0, math.nan, math.inf])
def test_a_bad_thickness_is_reported_before_anything_else(t):
    # the thickness is checked before a well row is built, so a negative or
    # nan barrier or mass cannot turn its error into a math domain error
    bad = "^well thickness must be positive and finite$"
    for v0, m_in, m_out in [
        (0.28, -1.0, 1.59), (0.28, 0.19, -1.59), (-0.28, 0.19, 1.59),
        (math.nan, 0.19, 1.59), (0.28, math.nan, 1.59), (0.28, 0.19, math.nan),
    ]:
        with pytest.raises(ValueError, match=bad):
            well.solve_well(t, v0, m_in, m_out)
    with pytest.raises(ValueError, match=bad):
        confinement_energies(PARAMS, t)
    with pytest.raises(ValueError, match=bad):
        splitting_report(PARAMS, t, 0.5)


# --- sensitivity envelopes -------------------------------------------------------

def test_sensitivity_nominal_matches_crossover():
    band = sensitivity_band(PARAMS, [3.0], "linear10pct")[0]
    assert band.x_nominal == critical_strain(PARAMS, 3.0).x_critical


def test_sensitivity_band_ordering():
    for mode in ("linear10pct", "quadratic_range", "both"):
        for band in sensitivity_band(PARAMS, [1.0, 3.0, 7.0], mode):
            assert band.x_low <= band.x_nominal <= band.x_high


def test_quadratic_band_inside_linear_band():
    grid = [float(t) for t in range(1, 11)]
    lin = sensitivity_band(PARAMS, grid, "linear10pct")
    quad = sensitivity_band(PARAMS, grid, "quadratic_range")
    for bl, bq in zip(lin, quad):
        assert bl.x_low < bq.x_low
        assert bq.x_high < bl.x_high


def test_both_band_reaches_pure_ge_or_less_at_4nm_and_below():
    for band in sensitivity_band(PARAMS, [1.0, 2.0, 3.0, 4.0], "both"):
        assert band.x_high <= 1.0


def test_clipped_corners_are_flagged():
    # the unfavourable 10% corners need x > 1 and must be clipped
    band = sensitivity_band(PARAMS, [3.0], "linear10pct")[0]
    assert band.clipped
    assert band.x_high == 1.0
    # the quadratic spread alone keeps every corner below pure Ge
    band_q = sensitivity_band(PARAMS, [3.0], "quadratic_range")[0]
    assert not band_q.clipped
    assert band_q.x_high < 1.0


def _raise_and_catch_corner(c0, c1, c2, lat):
    """A corner decided by raising and catching: strain_to_x of the root, any InfeasibleError at x = 1.

    The reference for ``design._corners_x``, which compares instead.  A root
    of None (no crossing) is raised here as ``_gap_root`` once raised it.
    """
    try:
        eps = design._gap_root(c0, c1, c2)
        if eps is None:
            raise InfeasibleError("no crossing", reason="no_crossing")
        return strain_to_x(eps, lat), False
    except InfeasibleError:
        return 1.0, True


_gap_coefficient = st.one_of(
    st.floats(-100.0, 100.0),
    st.floats(-1e300, 1e300),
    st.sampled_from((math.inf, -math.inf, math.nan)),
)


@st.composite
def _lattices(draw):
    """Lattices with either bowing sign, pure-Ge strain from about 0.002 to 0.12."""
    a_si = draw(st.floats(5.0, 6.0))
    diff = draw(st.floats(0.01, 0.6))
    return LatticeParams(a_si=a_si, a_ge=a_si + diff, bowing_b=draw(st.floats(-0.99, 0.99)) * diff)


@settings(max_examples=1000, deadline=None)
@given(
    c0=st.floats(-2.0, 0.0, exclude_max=True) | st.floats(-1e300, 0.0, exclude_max=True),
    c1=_gap_coefficient, c2=_gap_coefficient, lat=_lattices(),
)
# no crossing below 0.06, a crossing above the pure-Ge strain (0.05 > 0.0418),
# one below it, and a non-finite slope
@example(c0=-1.0, c1=10.0, c2=0.0, lat=LAT)
@example(c0=-0.5, c1=10.0, c2=0.0, lat=LAT)
@example(c0=-0.1, c1=10.0, c2=0.0, lat=LAT)
@example(c0=-0.1, c1=math.inf, c2=0.0, lat=LAT)
# a discriminant that underflows to zero, where the plain formula divided by zero
@example(c0=-5e-324, c1=0.0, c2=0.125, lat=LAT)
def test_compared_clip_matches_raise_and_catch(c0, c1, c2, lat):
    ceiling = design._pure_ge_strain(lat)
    assert ceiling == x_to_strain(1.0, lat)
    box = ((c1, c2),)
    try:
        want = _raise_and_catch_corner(c0, c1, c2, lat)
    except ValueError as err:
        with pytest.raises(ValueError) as info:
            design._corners_x(c0, box, lat, ceiling)
        assert str(info.value) == str(err)
    else:
        x_low, x_high, clipped = design._corners_x(c0, box, lat, ceiling)
        # a one-corner box is its own least and greatest corner
        assert x_low == x_high
        # repr tells 0.0 from -0.0 and shows every bit of x
        assert repr((x_high, clipped)) == repr(want)


def _corner_pair(c0, c1, c2, lat, ceiling):
    """One corner as the (x, clipped) pair, a clip at (1.0, True)."""
    eps = design._gap_root(c0, c1, c2)
    return (1.0, True) if eps is None or eps > ceiling else (strain_to_x(eps, lat), False)


_CEILING = design._pure_ge_strain(LAT)


@settings(max_examples=500, deadline=None)
@given(
    c0=st.floats(-2.0, 0.0, exclude_max=True),
    box=st.lists(
        st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)), min_size=1, max_size=8
    ),
    lat=_lattices(),
)
# a corner whose crossing is exactly the pure-Ge strain (x = 1.0, not
# clipped) tied with a clipped one, whose crossing lies at 1.25 times the
# ceiling, in either order
@example(c0=-_CEILING, box=[(1.0, 0.0), (0.8, 0.0)], lat=LAT)
@example(c0=-_CEILING, box=[(0.8, 0.0), (1.0, 0.0)], lat=LAT)
@example(c0=-0.9, box=[(20.0, 5.0)], lat=LAT)
def test_corners_x_is_the_least_x_and_the_greatest_pair(c0, box, lat):
    ceiling = design._pure_ge_strain(lat)
    pairs = [_corner_pair(c0, c1, c2, lat, ceiling) for c1, c2 in box]
    # repr tells 0.0 from -0.0 and shows every bit of x
    assert repr(design._corners_x(c0, tuple(box), lat, ceiling)) == repr(
        (min(pairs)[0], *max(pairs))
    )


def test_a_corner_at_the_ceiling_ties_with_a_clipped_one():
    assert _corner_pair(-_CEILING, 1.0, 0.0, LAT, _CEILING) == (1.0, False)
    assert _corner_pair(-_CEILING, 0.8, 0.0, LAT, _CEILING) == (1.0, True)
    for box in (((1.0, 0.0), (0.8, 0.0)), ((0.8, 0.0), (1.0, 0.0))):
        assert design._corners_x(-_CEILING, box, LAT, _CEILING) == (1.0, 1.0, True)


def _assert_vegard_of_the_fields(lat, x, u):
    """The three Vegard kernels equal their formulas written from the fields, every bit compared."""
    a_si, a_ge, b = lat.a_si, lat.a_ge, lat.bowing_b
    ceiling = (a_ge - a_si) / a_si
    assert repr(design._pure_ge_strain(lat)) == repr(ceiling)
    assert repr(x_to_strain(x, lat)) == repr(x * ((a_ge - a_si) + b * (1.0 - x)) / a_si)
    eps = u * ceiling
    if eps == ceiling:
        assert strain_to_x(eps, lat) == 1.0
        return
    a_eps = a_si * eps
    lin = (a_ge - a_si) + b
    disc = lin * lin - 4.0 * b * a_eps
    want = min(2.0 * a_eps / (lin + math.sqrt(max(disc, 0.0))), 1.0)
    assert repr(strain_to_x(eps, lat)) == repr(want)


@settings(max_examples=500, deadline=None)
@given(lat=_lattices(), x=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0), v=st.floats(-0.99, 0.99))
# zero bowing of either sign, and a lattice at extreme scales with a pure-Ge strain of 1e300
@example(lat=LatticeParams(a_si=5.4307, a_ge=5.6575, bowing_b=-0.0), x=0.0, u=0.0, v=0.0)
@example(lat=LatticeParams(a_si=5.4307, a_ge=5.6575, bowing_b=0.0), x=1.0, u=1.0, v=-0.0)
@example(lat=LatticeParams(a_si=1e-150, a_ge=1e150, bowing_b=-1e149), x=1e-300, u=0.5, v=0.9)
def test_a_lattice_keeps_the_vegard_constants_of_its_own_fields(lat, x, u, v):
    diff = lat.a_ge - lat.a_si
    twins = (
        lat,
        pickle.loads(pickle.dumps(lat)),
        replace(lat, bowing_b=v * diff),
        replace(lat, a_ge=lat.a_ge + diff, bowing_b=-lat.bowing_b),
    )
    for twin in twins:
        _assert_vegard_of_the_fields(twin, x, u)
    # the kept constants are no field: a record with other constants is still equal
    stale = LatticeParams(lat.a_si, lat.a_ge, lat.bowing_b)
    materials._set_memo(stale, twins[-1]._memo)
    assert stale == lat and hash(stale) == hash(lat) and repr(stale) == repr(lat)
    assert stale.__reduce__() == (LatticeParams, (lat.a_si, lat.a_ge, lat.bowing_b))


@pytest.mark.parametrize("mode", ["linear10pct", "both"])
def test_clipped_corners_build_no_error(monkeypatch, mode):
    # with the defaults every down corner of these boxes needs x > 1
    built = []
    init = InfeasibleError.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(InfeasibleError, "__init__", counting)
    grid = [1.0 + 0.5 * i for i in range(19)]
    bands, failures = sensitivity_curve(default_params(), grid, mode)
    assert failures == [] and built == []
    assert len(bands) == 19 and all(band.clipped for band in bands)


def test_sensitivity_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        sensitivity_band(PARAMS, [3.0], "bogus")
    # the mode is checked before, not inside, the thickness loop, and before
    # the memo is read: an unhashable mode is the same ValueError, and the
    # set keeps nothing
    for mode in ("bogus", None, ["both"]):
        params = replace(PARAMS)
        with pytest.raises(ValueError) as info:
            sensitivity_curve(params, [], mode)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            f"unknown sensitivity mode {mode!r}; valid: ('linear10pct', 'quadratic_range', 'both')"
        )
        assert params._memo == {}


def test_sensitivity_error_keeps_reason_and_names_thickness():
    params = replace(PARAMS, deformation=replace(PARAMS.deformation, xi_d_L=-3.0))
    with pytest.raises(InfeasibleError, match=r"^t = 1 nm: strain ") as info:
        sensitivity_band(params, [1.0, 2.0], "linear10pct")
    assert info.value.reason == "requires_x_gt_1"


def test_sensitivity_curve_keeps_feasible_points():
    params = replace(PARAMS, deformation=replace(PARAMS.deformation, xi_d_L=-5.0))
    grid = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 99.0]
    bands, failures = sensitivity_curve(params, grid, "quadratic_range")
    assert [b.thickness_t for b in bands] == [1.0, 2.0, 3.0, 4.0]
    assert bands == [sensitivity_band(params, [t], "quadratic_range")[0] for t in grid[:4]]
    assert [t for t, _ in failures] == [5.0, 6.0, 99.0]
    for t, err in failures[:2]:
        assert isinstance(err, InfeasibleError) and err.reason == "requires_x_gt_1"
        assert str(err).startswith(f"t = {t:.9g} nm: strain ")
    assert type(failures[2][1]) is ValueError
    assert str(failures[2][1]).startswith("t = 99 nm: thickness 99.0 nm outside")
    # the band list raises the first failure
    with pytest.raises(InfeasibleError, match=r"^t = 5 nm: ") as info:
        sensitivity_band(params, grid, "quadratic_range")
    assert info.value.reason == "requires_x_gt_1"


def _counting(monkeypatch, module, name):
    """Route ``module.name`` through a wrapper; returns the list of its argument tuples."""
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _counting_solves(monkeypatch, params):
    """Route the well solves through a wrapper; returns the valley each call solves.

    Each is a call of the well core, ``_solve(t, row)``, and its row must be
    one of the set's own rows: the very object that
    ``params._derive(well._well_table)`` holds, not an equal copy.
    """
    rows = params._derive(well._well_table)
    valleys_solved = []
    solve = design._solve

    def counting(t, row):
        own = [v for v, r in zip(Valley, rows) if r is row]
        assert own, f"{row!r} is not one of the set's well rows"
        valleys_solved.append(own[0])
        return solve(t, row)

    monkeypatch.setattr(design, "_solve", counting)
    return valleys_solved


@pytest.mark.parametrize("mode", design.SENSITIVITY_MODES)
def test_sensitivity_point_solves_the_l1_and_delta6_wells_only(monkeypatch, mode):
    params = replace(PARAMS)
    calls = _counting_solves(monkeypatch, params)
    grid = [1.0, 3.0, 7.0, 20.0]
    for t in grid:
        sensitivity_band(params, [t], mode)
    assert calls == [Valley.L1, Valley.DELTA6] * len(grid)


def test_crossover_point_solves_two_wells(monkeypatch):
    params = replace(PARAMS)
    calls = _counting_solves(monkeypatch, params)
    grid = [0.5, 1.0, 3.0, 10.0, 50.0]
    results, failures = crossover_curve(params, grid)
    assert len(results) == len(grid) and not failures
    assert len(calls) == 2 * len(grid)


def test_design_point_solves_one_well_per_valley(monkeypatch):
    params = replace(PARAMS)
    calls = _counting_solves(monkeypatch, params)
    splitting_report(params, 3.0, 0.5)
    assert calls == list(Valley)


def test_a_set_computes_its_corner_boxes_and_valley_table_once(monkeypatch):
    corners = _counting(monkeypatch, design, "_extreme_corners")
    tables = _counting(monkeypatch, valleys, "valley_coefficients")
    wells = _counting(monkeypatch, design, "_well_table")
    gaps = _counting(monkeypatch, design, "_gap_table")
    grid = [1.0 + 0.5 * i for i in range(19)]
    params = replace(PARAMS)
    for mode in design.SENSITIVITY_MODES:
        for t in grid:
            sensitivity_band(params, [t], mode)
    crossover_curve(params, grid)
    # one box per mode, not one per call; the memo holds those three, the
    # gap table every crossing reads, the valley table it reads for the
    # nominal gap and the well rows it shares
    assert sorted(args[1] for args in corners) == sorted(design.SENSITIVITY_MODES)
    assert len(params._memo) == 6
    assert len(gaps) == 1
    assert len(wells) == 1
    params = replace(PARAMS)
    for t in grid:
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            splitting_report(params, t, x)
    assert len(tables) == 1
    assert len(wells) == 2


def test_the_memo_holds_per_set_constants_only():
    # no entry per thickness or Ge fraction: after 1,000 seeded design points
    # and every band of the three figure sweeps the set keeps its six constants
    rng = random.Random(26)
    params = replace(PARAMS)
    for _ in range(1000):
        t = math.exp(rng.uniform(math.log(design.T_MIN_NM), math.log(design.T_MAX_NM)))
        x = rng.uniform(0.05, 1.0)
        splitting_report(params, t, x)
        critical_thickness(RelaxationInput(ge_fraction_x=x, elastic=params.elastic))
    assert len(params._memo) == 2
    for mode in design.SENSITIVITY_MODES:
        sensitivity_curve(params, [1.0 + 0.5 * i for i in range(19)], mode)
    # a function without arguments is its own key
    assert sorted((key if callable(key) else key[0]).__name__ for key in params._memo) == [
        "_extreme_corners", "_extreme_corners", "_extreme_corners",
        "_gap_table", "_well_table", "valley_coefficients",
    ]


def _enumerated_band(params, t, mode):
    """The band from every corner of the box (16, 18 or 288), each from its own valley_coefficients.

    Corners are clipped as the exhaustive enumeration did: below_at_zero
    enters at x = 0, no crossing or x > 1 at x = 1 with the clipped flag.
    """
    def gap(corner):
        (_, c1_l1, c2_l1), _, (_, c1_d6, c2_d6) = valley_coefficients(corner)
        return c1_d6 - c1_l1, c2_d6 - c2_l1

    dp = params.deformation
    c1_nom, c2_nom = gap(params)
    slopes = [c1_nom]
    if mode != "quadratic_range":
        slopes = [
            gap(replace(params, deformation=replace(
                dp, xi_d_delta=dp.xi_d_delta * a, xi_u_delta=dp.xi_u_delta * b,
                xi_d_L=dp.xi_d_L * c, xi_u_L=dp.xi_u_L * d,
            )))[0]
            for a, b, c, d in product(design.LINEAR_VARIATION_FACTORS, repeat=4)
        ]
    q = params.quadratic
    curvatures = [c2_nom]
    if mode != "linear10pct":
        # the literature ranges, each widened to hold the nominal coefficient
        ranges = design.QUADRATIC_COEFF_RANGES
        curvatures = [
            gap(replace(params, quadratic=QuadraticCoefficients(d_L1=d1, d_L3=d3, d_delta6=d6)))[1]
            for d1, d3, d6 in product(
                (*ranges[Valley.L1], q.d_L1),
                ranges[Valley.L3],
                (*ranges[Valley.DELTA6], q.d_delta6),
            )
        ]
    c0, eps_nom = design._crossing(params._derive(design._gap_table), t)
    x_nom = strain_to_x(eps_nom, params.lattice)
    xs, clipped = [], False
    for c1, c2 in product(slopes, curvatures):
        try:
            eps = design._gap_root(c0, c1, c2)
            if eps is not None:
                xs.append(strain_to_x(eps, params.lattice))
                continue
        except InfeasibleError as err:
            if err.reason == "below_at_zero":
                xs.append(0.0)
                continue
        # no crossing, or one that requires x > 1
        xs.append(1.0)
        clipped = True
    return SensitivityBand(t, min(xs), x_nom, max(xs), clipped)


def _band_or_error(fn, t):
    """repr of fn()'s band, or the type, reason and message of its domain error.

    A message is compared without the ``t = <t> nm:`` prefix of a sweep point.
    """
    try:
        return repr(fn())
    except (InfeasibleError, ValueError) as err:
        message = str(err).removeprefix(f"t = {t:.9g} nm: ")
        return type(err).__name__, getattr(err, "reason", None), message


_dilatational = st.floats(-12.0, 12.0)
_uniaxial = st.floats(0.5, 25.0)


@settings(max_examples=300, deadline=None)
@given(
    xi_u_delta=_uniaxial, xi_d_delta=_dilatational, xi_u_L=_uniaxial, xi_d_L=_dilatational,
    c12=st.floats(20.0, 120.0), c11_over_c12=st.floats(1.05, 4.0), c44=st.floats(20.0, 120.0),
)
def test_gap_slope_is_bit_identical_to_the_linear_shift_difference(
    xi_u_delta, xi_d_delta, xi_u_L, xi_d_L, c12, c11_over_c12, c44
):
    # each c1 of valley_coefficients and the nominal gap slope must stay the
    # very floats the per-valley shifts give at unit in-plane strain
    dp = DeformationPotentials(xi_u_delta, xi_d_delta, xi_u_L, xi_d_L)
    elastic = ElasticConstants(c11_over_c12 * c12, c12, c44)
    params = replace(PARAMS, deformation=dp, elastic=elastic)
    unit = (1.0, perp_strain_ratio(elastic))
    for v, (_, c1, _) in zip(Valley, valley_coefficients(params)):
        assert c1 == linear_shift(v, dp, *unit), v
    expected = linear_shift(Valley.DELTA6, dp, *unit) - linear_shift(Valley.L1, dp, *unit)
    q = params.quadratic
    assert design._nominal_gap(params) == (expected, q.d_delta6 - q.d_L1)


@settings(max_examples=300, deadline=None)
@given(
    xi_u_delta=_uniaxial, xi_d_delta=_dilatational, xi_u_L=_uniaxial, xi_d_L=_dilatational,
    # down to just above E0(Delta6), where thin wells start out crossed
    e0_L_shift=st.floats(-0.92, 0.8),
    # nominal curvatures outside the literature box, where even the up
    # corner can be clipped
    d_L1=st.floats(-60.0, 10.0),
    d_delta6=st.floats(-40.0, 10.0),
    t=st.floats(0.5, 20.0),
)
# a nominal curvature of 50 eV, far outside the literature box: the widened
# box's up corner (55 eV) crosses below the nominal, its down corner (0 eV)
# needs x > 1 and is clipped
@example(
    xi_u_delta=9.16, xi_d_delta=1.1, xi_u_L=16.14, xi_d_L=-6.0,
    e0_L_shift=0.1, d_L1=-60.0, d_delta6=-10.0, t=3.0,
)
def test_two_corner_band_is_bit_identical_to_enumeration(
    xi_u_delta, xi_d_delta, xi_u_L, xi_d_L, e0_L_shift, d_L1, d_delta6, t
):
    params = replace(
        PARAMS,
        deformation=DeformationPotentials(xi_u_delta, xi_d_delta, xi_u_L, xi_d_L),
        quadratic=replace(PARAMS.quadratic, d_L1=d_L1, d_delta6=d_delta6),
        bands=replace(PARAMS.bands, e0_L=PARAMS.bands.e0_L + e0_L_shift),
    )
    _assert_two_corners_match_enumeration(params, t)


def _assert_two_corners_match_enumeration(params, t):
    for mode in design.SENSITIVITY_MODES:
        want = _band_or_error(lambda: _enumerated_band(params, t, mode), t)
        got = _band_or_error(lambda: sensitivity_band(params, [t], mode)[0], t)
        # repr tells 0.0 from -0.0 and shows every bit of each float
        assert got == want, mode


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_huge_positive = _log_uniform(1e-3, 1.7e308)
_huge_signed = st.tuples(st.sampled_from((-1.0, 1.0)), _huge_positive).map(lambda p: p[0] * p[1])
_DEFAULTS = dict(
    xi_u_delta=9.16, xi_d_delta=1.1, xi_u_L=16.14, xi_d_L=-6.0, d_L1=-22.5, d_delta6=-10.0, t=3.0
)
_STRADDLE = dict(
    xi_u_delta=1.0, xi_d_delta=-7.38905609893065, xi_u_L=1.0, xi_d_L=-7.38905609893065, d_L1=-1.0
)


@settings(max_examples=300, deadline=None)
@given(
    xi_u_delta=_huge_positive, xi_d_delta=_huge_signed, xi_u_L=_huge_positive,
    xi_d_L=_huge_signed, d_L1=_huge_signed, d_delta6=_huge_signed, t=st.floats(0.5, 20.0),
)
# only the up corner's slope overflows, in one term
@example(**{**_DEFAULTS, "xi_d_delta": 1.1e308})
# a finite nominal slope of 1.75e308: the up corner's two finite terms
# overflow in their difference
@example(**{**_DEFAULTS, "xi_d_delta": 5.6e307, "xi_d_L": -5.6e307})
# 1.1 x 1.7e308 overflows: the scaled potential itself is rejected
@example(**{**_DEFAULTS, "xi_u_L": 1.7e308})
# linear slopes that straddle zero under a dominant curvature: the two forms
# of the gap root meet only to a few ulp there, and the down corner's
# crossover came out below the up corner's, an inverted band
@example(**{**_STRADDLE, "d_delta6": 1.8445513014941297e+150, "t": 1.75})
@example(**{**_STRADDLE, "d_delta6": 1.675997586012831e+123, "t": 4.0})
@example(**{**_STRADDLE, "d_delta6": 1.2057950493594587e+63, "t": 4.25})
def test_two_corner_band_matches_enumeration_up_to_the_float_limit(
    xi_u_delta, xi_d_delta, xi_u_L, xi_d_L, d_L1, d_delta6, t
):
    params = replace(
        PARAMS,
        deformation=DeformationPotentials(xi_u_delta, xi_d_delta, xi_u_L, xi_d_L),
        quadratic=replace(PARAMS.quadratic, d_L1=d_L1, d_delta6=d_delta6),
    )
    _assert_two_corners_match_enumeration(params, t)


@settings(max_examples=300, deadline=None)
@given(d_L1=st.floats(-60.0, 10.0), d_delta6=st.floats(-40.0, 10.0), t=st.floats(0.5, 20.0))
# the nominal curvature 40 - 10 = 30 eV lies above the literature box's 25 eV
@example(d_L1=-40.0, d_delta6=-10.0, t=3.0)
def test_sensitivity_band_holds_the_nominal(d_L1, d_delta6, t):
    params = replace(PARAMS, quadratic=replace(PARAMS.quadratic, d_L1=d_L1, d_delta6=d_delta6))
    for mode in design.SENSITIVITY_MODES:
        bands, _ = sensitivity_curve(params, [t], mode)
        for band in bands:
            assert band.x_low <= band.x_nominal <= band.x_high, (mode, band)


def _outcome(fn):
    """repr of fn()'s result, or the type, message and reason of its domain error."""
    try:
        return repr(fn())
    except (InfeasibleError, ValueError) as err:
        return type(err).__name__, str(err), getattr(err, "reason", None)


def _answers(params, t, x):
    """Every band, the crossover and the splittings of one (t, x) point, as outcomes.

    ``params()`` gives the set for each call.
    """
    outcomes = [
        _outcome(lambda: sensitivity_band(params(), [t], mode))
        for mode in design.SENSITIVITY_MODES
    ]
    outcomes.append(_outcome(lambda: critical_strain(params(), t)))
    outcomes.append(_outcome(lambda: splitting_report(params(), t, x)))
    return outcomes


@settings(max_examples=200, deadline=None)
@given(
    xi_u_delta=_uniaxial, xi_d_delta=_dilatational, xi_u_L=_uniaxial, xi_d_L=_dilatational,
    d_L1=st.floats(-60.0, 10.0), d_delta6=st.floats(-40.0, 10.0),
    t=st.floats(0.5, 20.0), t_first=st.floats(0.5, 20.0), x=st.floats(0.0, 1.0),
)
def test_a_used_set_answers_as_a_fresh_one(
    xi_u_delta, xi_d_delta, xi_u_L, xi_d_L, d_L1, d_delta6, t, t_first, x
):
    params = replace(
        PARAMS,
        deformation=DeformationPotentials(xi_u_delta, xi_d_delta, xi_u_L, xi_d_L),
        quadratic=replace(PARAMS.quadratic, d_L1=d_L1, d_delta6=d_delta6),
    )
    # the first use, at another point, fills the memo
    _answers(lambda: params, t_first, 1.0 - x)
    assert _answers(lambda: params, t, x) == _answers(lambda: replace(params), t, x)


def test_a_raising_call_keeps_nothing():
    params = replace(PARAMS, deformation=replace(PARAMS.deformation, xi_u_L=1.7e308))
    for mode, match in (
        ("bogus", "unknown sensitivity mode"),
        (["both"], "unknown sensitivity mode"),  # checked before the memo hashes it
        ("linear10pct", "must be finite"),
    ):
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match=match) as info:
                sensitivity_band(params, [3.0], mode)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    assert params._memo == {}
    band = sensitivity_band(params, [3.0], "quadratic_range")
    assert repr(band) == repr(sensitivity_band(replace(params), [3.0], "quadratic_range"))


def test_threads_sharing_one_fresh_set_get_the_single_threaded_bands():
    grid = [1.0 + 0.5 * i for i in range(19)]

    def fig8_to_10(params):
        return [
            repr(sensitivity_band(params, [t], mode))
            for mode in design.SENSITIVITY_MODES
            for t in grid
        ]

    reference = fig8_to_10(replace(PARAMS))
    shared = replace(PARAMS)
    results = [None] * 8

    def work(i):
        results[i] = fig8_to_10(shared)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [reference] * len(results)


# --- closed forms against plain-math bisection oracles ---------------------------

ORACLE_T = (1.0, 3.0, 7.0, 10.0)


def _corners(mode):
    """(deformation, quadratic) pairs at every corner of one sensitivity mode."""
    dp = PARAMS.deformation
    lin = [
        replace(dp, xi_d_delta=dp.xi_d_delta * a, xi_u_delta=dp.xi_u_delta * b,
                xi_d_L=dp.xi_d_L * c, xi_u_L=dp.xi_u_L * d)
        for a, b, c, d in product((0.9, 1.1), repeat=4)
    ]
    quad = [
        QuadraticCoefficients(d_L1=d1, d_L3=d3, d_delta6=d6)
        for d1, d3, d6 in product((-30.0, -15.0), (-20.0, -10.0), (-15.0, -5.0))
    ]
    if mode == "linear10pct":
        return [(d, PARAMS.quadratic) for d in lin]
    if mode == "quadratic_range":
        return [(dp, q) for q in quad]
    return [(d, q) for d in lin for q in quad]


def _oracle_root(params, t):
    q_l1, _, q_d6 = confinement_energies(params, t)
    b, el, dp, q = params.bands, params.elastic, params.deformation, params.quadratic
    offset = b.e0_delta - b.e0_L + q_d6 - q_l1
    return bisect_crossover(
        lambda eps: crossover_gap(
            eps, offset, (el.c11, el.c12, el.c44),
            (dp.xi_u_delta, dp.xi_d_delta, dp.xi_u_L, dp.xi_d_L), q.d_L1, q.d_delta6,
        )
    )


def _library_root(params, t):
    try:
        return critical_strain(params, t).eps_critical, ""
    except InfeasibleError as err:
        return None, err.reason


def test_closed_form_crossover_matches_oracle_bisection():
    # the crossover strain does not depend on the lattice; this one puts the
    # pure-Ge strain (0.068) above the 0.06 search bracket, so strain_to_x
    # never hides a root behind "requires x > 1"
    wide = LatticeParams(a_si=5.4307, a_ge=5.80, bowing_b=0.0)
    base = replace(PARAMS, lattice=wide)
    cases = [
        replace(base, deformation=dp, quadratic=q)
        for mode in ("linear10pct", "quadratic_range", "both")
        for dp, q in _corners(mode)
    ]
    # the gap is linear (c2 == 0) at the quadratic_range corner d_L1 = d_delta6
    flat = QuadraticCoefficients(d_L1=-15.0, d_L3=-20.0, d_delta6=-15.0)
    assert any(c.quadratic == flat for c in cases)
    cases += [
        # a high L edge never comes down far enough
        replace(base, bands=replace(PARAMS.bands, e0_L=3.0)),
        # nearly degenerate edges start out crossed once confinement is added
        replace(base, bands=replace(PARAMS.bands, e0_L=1.18)),
        # a gap that first falls (c1 < 0) until a strong curvature turns it
        replace(
            base,
            deformation=replace(PARAMS.deformation, xi_d_L=10.0),
            quadratic=QuadraticCoefficients(d_L1=-400.0, d_L3=-15.0, d_delta6=-10.0),
        ),
        # a concave gap (c2 < 0)
        replace(base, quadratic=QuadraticCoefficients(d_L1=-5.0, d_L3=-15.0, d_delta6=-15.0)),
    ]
    reasons = set()
    for params in cases:
        for t in ORACLE_T:
            want, want_reason = _oracle_root(params, t)
            got, reason = _library_root(params, t)
            assert reason == want_reason, (params, t)
            reasons.add(reason)
            if want is not None:
                assert abs(got - want) <= 1e-9, (params, t)
    assert reasons == {"", "below_at_zero", "no_crossing"}


def test_sensitivity_band_matches_oracle_envelope():
    lat = PARAMS.lattice
    ceiling = lat.a_ge / lat.a_si - 1.0
    for mode in ("linear10pct", "quadratic_range", "both"):
        bands = sensitivity_band(PARAMS, list(ORACLE_T), mode)
        for band, t in zip(bands, ORACLE_T):
            xs, clipped = [], False
            for dp, q in _corners(mode):
                eps, reason = _oracle_root(replace(PARAMS, deformation=dp, quadratic=q), t)
                if reason == "below_at_zero":
                    xs.append(0.0)
                elif reason == "no_crossing" or eps > ceiling:
                    xs.append(1.0)
                    clipped = True
                else:
                    xs.append(bisect_vegard(eps, lat.a_si, lat.a_ge, lat.bowing_b))
            assert band.clipped == clipped, (mode, t)
            # 1e-9 in strain is at most 3e-8 in x: dx/deps <= 27 on [0, 1]
            assert band.x_low == pytest.approx(min(xs), abs=3e-8)
            assert band.x_high == pytest.approx(max(xs), abs=3e-8)
