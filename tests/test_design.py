import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import bisect_crossover, bisect_vegard, crossover_gap

from lvalley import (
    DeformationPotentials,
    ElasticConstants,
    InfeasibleError,
    LatticeParams,
    QuadraticCoefficients,
    SensitivityBand,
    Splitting,
    StrainState,
    Valley,
    bulk_energy,
    bulk_levels,
    confinement_energies,
    critical_strain,
    crossover_curve,
    default_params,
    design,
    ground_state,
    linear_shift,
    perp_strain_ratio,
    replace,
    sensitivity_band,
    sensitivity_curve,
    splitting_report,
    strain_to_x,
    valley_coefficients,
    vegard_a,
    well,
    well_config,
    x_to_strain,
)
from lvalley.valleys import ValleyEnergy

PARAMS = default_params()
LAT = PARAMS.lattice


# --- combined energies ------------------------------------------------------

def _levels(params, t, eps):
    """Total levels (L1, L3, Delta6) at thickness t and strain eps: bulk plus confinement, eV."""
    return tuple(b + q for b, q in zip(bulk_levels(params, eps), design._confinement(params, t)))


def _total_energy(valley, params, t, eps):
    """One valley's breakdown with its confinement energy at thickness t."""
    b = bulk_energy(valley, params, eps)
    return ValleyEnergy(valley, b.e0, b.de1, b.de2, confinement_energies(params, t)[valley])


def test_total_energy_reference_point():
    # 1.17 plus the t = 3 nm confinement energy of Delta6
    e = _total_energy(Valley.DELTA6, PARAMS, 3.0, 0.0)
    assert e.total == pytest.approx(1.210, abs=3e-3)
    assert e.eq == pytest.approx(0.0398, abs=1e-3)


def test_total_energy_confinement_vanishes_for_wide_well():
    wide = _total_energy(Valley.L1, PARAMS, 1e4, 0.02).total
    assert wide == pytest.approx(bulk_energy(Valley.L1, PARAMS, 0.02).total, abs=1e-5)


def test_near_crossing_at_t10():
    e_l1, _, e_d6 = _levels(PARAMS, 10.0, 0.0395)
    assert abs(e_l1 - e_d6) < 3e-3


def test_total_energy_breakdown_sums():
    e = _total_energy(Valley.L3, PARAMS, 4.0, 0.03)
    assert abs(e.total - (e.e0 + e.de1 + e.de2 + e.eq)) < 1e-12


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
    c1, c2 = design._nominal_gap(params)
    c0 = design._gap_offset(params, 3.0)
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
        try:
            eps = design._gap_root(c0, c1, c2)
        except InfeasibleError:
            continue
        checked += 1
        assert eps > 0.0, (c0, c1, c2)
        assert _gap_changes_sign_at(c0, c1, c2, eps), (c0, c1, c2, eps)
    assert checked > 500


@pytest.mark.parametrize("c1, c2", [
    (math.inf, 12.5), (-math.inf, 12.5), (math.nan, 12.5),
    (15.0, math.inf), (15.0, -math.inf), (15.0, math.nan),
])
def test_non_finite_gap_coefficient_is_a_domain_error(c1, c2):
    with pytest.raises(ValueError, match="gap slope and curvature must be finite"):
        design._gap_root(-0.9, c1, c2)


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
    # ground_state(well_config(...)), bulk_energy and ValleyEnergy build the objects
    params = replace(
        PARAMS,
        bands=replace(PARAMS.bands, v0_offset_111=PARAMS.bands.v0_offset_111 * v0_scale),
        masses_l1=replace(PARAMS.masses_l1, m_in=PARAMS.masses_l1.m_in * l1_scale),
        masses_l3=replace(PARAMS.masses_l3, m_in=PARAMS.masses_l3.m_in * l3_scale),
        masses_delta6=replace(PARAMS.masses_delta6, m_in=PARAMS.masses_delta6.m_in * d6_scale),
    )
    k = params.constants.hbar2_over_2m0

    def object_eqs():
        return {v: ground_state(well_config(v, params, t), k).energy_eq for v in Valley}

    def object_splitting():
        eps = x_to_strain(x, params.lattice)
        e = {}
        for v in Valley:
            b = bulk_energy(v, params, eps)
            eq = ground_state(well_config(v, params, t), k).energy_eq
            e[v] = ValleyEnergy(v, b.e0, b.de1, b.de2, eq).total
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
    assert list(eqs) == list(Valley)
    assert repr(tuple(eqs.values())) == repr(design._confinement(PARAMS, 3.0))


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


def test_sensitivity_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        sensitivity_band(PARAMS, [3.0], "bogus")
    # the mode is checked before, not inside, the thickness loop
    with pytest.raises(ValueError, match="mode"):
        sensitivity_band(PARAMS, [], "bogus")


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
        assert str(err).startswith(f"t = {t:g} nm: strain ")
    assert type(failures[2][1]) is ValueError
    assert str(failures[2][1]).startswith("t = 99 nm: thickness 99.0 nm outside")
    # the band list raises the first failure
    with pytest.raises(InfeasibleError, match=r"^t = 5 nm: ") as info:
        sensitivity_band(params, grid, "quadratic_range")
    assert info.value.reason == "requires_x_gt_1"


def _counting_solve_well(monkeypatch):
    """Route the parameter-set well solves through a wrapper; returns their argument tuples."""
    calls = []
    solve = well.solve_well

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(well, "solve_well", counting)
    return calls


@pytest.mark.parametrize("mode", design.SENSITIVITY_MODES)
def test_sensitivity_point_solves_the_l1_and_delta6_wells_only(monkeypatch, mode):
    calls = _counting_solve_well(monkeypatch)
    grid = [1.0, 3.0, 7.0, 20.0]
    for t in grid:
        sensitivity_band(PARAMS, [t], mode)
    assert len(calls) == 2 * len(grid)
    l1, d6 = PARAMS.masses_l1, PARAMS.masses_delta6
    assert {args[2:4] for args in calls} == {(l1.m_in, l1.m_out), (d6.m_in, d6.m_out)}


def test_crossover_point_solves_two_wells(monkeypatch):
    calls = _counting_solve_well(monkeypatch)
    grid = [0.5, 1.0, 3.0, 10.0, 50.0]
    results, failures = crossover_curve(PARAMS, grid)
    assert len(results) == len(grid) and not failures
    assert len(calls) == 2 * len(grid)


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
    c0 = design._gap_offset(params, t)
    x_nom = strain_to_x(design._gap_root(c0, c1_nom, c2_nom), params.lattice)
    xs, clipped = [], False
    for c1, c2 in product(slopes, curvatures):
        try:
            xs.append(strain_to_x(design._gap_root(c0, c1, c2), params.lattice))
        except InfeasibleError as err:
            if err.reason == "below_at_zero":
                xs.append(0.0)
            else:
                xs.append(1.0)
                clipped = True
    return SensitivityBand(t, min(xs), x_nom, max(xs), clipped)


def _band_or_error(fn):
    try:
        return fn()
    except InfeasibleError as err:
        return err


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
    # each c1 of valley_coefficients, the nominal gap slope and the corners'
    # loose-float slope must stay the very floats the per-valley shifts give
    # at unit in-plane strain
    dp = DeformationPotentials(xi_u_delta, xi_d_delta, xi_u_L, xi_d_L)
    elastic = ElasticConstants(c11_over_c12 * c12, c12, c44)
    params = replace(PARAMS, deformation=dp, elastic=elastic)
    unit = StrainState(1.0, perp_strain_ratio(elastic))
    for v, (_, c1, _) in zip(Valley, valley_coefficients(params)):
        assert c1 == linear_shift(v, dp, unit), v
    expected = linear_shift(Valley.DELTA6, dp, unit) - linear_shift(Valley.L1, dp, unit)
    q = params.quadratic
    assert design._nominal_gap(params) == (expected, q.d_delta6 - q.d_L1)
    assert design._gap_slope_of(unit.eps_perp, xi_u_delta, xi_d_delta, xi_u_L, xi_d_L) == expected


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
    for mode in design.SENSITIVITY_MODES:
        want = _band_or_error(lambda: _enumerated_band(params, t, mode))
        got = _band_or_error(lambda: sensitivity_band(params, [t], mode)[0])
        if isinstance(want, InfeasibleError):
            assert type(got) is type(want), (mode, got)
            assert got.reason == want.reason, (mode, got)
        else:
            # repr tells 0.0 from -0.0 and shows every bit of each float
            assert repr(got) == repr(want), mode


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
    eqs = confinement_energies(params, t)
    b, el, dp, q = params.bands, params.elastic, params.deformation, params.quadratic
    offset = b.e0_delta - b.e0_L + eqs[Valley.DELTA6] - eqs[Valley.L1]
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
