import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import strain_tensors, valley_level

from lvalley import (
    DeformationPotentials,
    Valley,
    bulk_energy,
    bulk_levels,
    default_params,
    replace,
    table1_labels,
    table1_set,
    linear_shift,
    perp_strain_ratio,
    strain_state,
    valley_coefficients,
)
from lvalley.valleys import ValleyEnergy

PARAMS = default_params()


def state(eps):
    return strain_state(PARAMS.elastic, eps)


def test_linear_shift_vanishes_at_zero():
    for v in Valley:
        assert linear_shift(v, PARAMS.deformation, state(0.0)) == 0.0


def test_linear_shift_composite_values():
    assert linear_shift(Valley.L1, PARAMS.deformation, state(0.01)) == pytest.approx(
        -0.1646, abs=5e-4
    )
    assert linear_shift(Valley.DELTA6, PARAMS.deformation, state(0.01)) == pytest.approx(
        0.0648, abs=5e-4
    )
    assert linear_shift(Valley.L3, PARAMS.deformation, state(0.01)) == pytest.approx(
        0.0420, abs=5e-4
    )


def test_linear_shift_exactly_linear():
    for v in Valley:
        one = linear_shift(v, PARAMS.deformation, state(0.004))
        two = linear_shift(v, PARAMS.deformation, state(0.008))
        assert two / one == pytest.approx(2.0, rel=1e-12)


def test_composite_coefficient_reconstruction():
    # L1 slope assembled by hand from the deformation potentials and the
    # out-of-plane ratio: xi_d_L * (2 + r) + xi_u_L * r with r = -0.439
    r = perp_strain_ratio(PARAMS.elastic)
    by_hand = PARAMS.deformation.xi_d_L * (2.0 + r) + PARAMS.deformation.xi_u_L * r
    assert by_hand == pytest.approx(-16.46, abs=0.02)
    slope = linear_shift(Valley.L1, PARAMS.deformation, state(1e-3)) / 1e-3
    assert slope == pytest.approx(by_hand, rel=1e-9)


def test_linear_shift_matches_crystal_frame_projection():
    # Xi_d tr(eps) + Xi_u n^T eps n with eps on the cubic axes from the
    # oracle: L1 along the film normal, L3 on the three oblique <111> axes,
    # Delta6 on a cubic axis
    axes = {
        Valley.L1: [(1, 1, 1)],
        Valley.L3: [(-1, 1, 1), (1, -1, 1), (1, 1, -1)],
        Valley.DELTA6: [(0, 0, 1)],
    }
    rng = np.random.default_rng(17)
    for _ in range(500):
        dp = DeformationPotentials(
            xi_u_delta=rng.uniform(1.0, 20.0),
            xi_d_delta=rng.uniform(-20.0, 20.0),
            xi_u_L=rng.uniform(1.0, 30.0),
            xi_d_L=rng.uniform(-20.0, 20.0),
        )
        s = state(float(rng.uniform(-0.05, 0.05)))
        _, crystal = strain_tensors(s.eps_par, s.eps_perp)
        for v, dirs in axes.items():
            if v is Valley.DELTA6:
                xi_d, xi_u = dp.xi_d_delta, dp.xi_u_delta
            else:
                xi_d, xi_u = dp.xi_d_L, dp.xi_u_L
            shift = linear_shift(v, dp, s)
            for d in dirs:
                n = np.array(d) / math.sqrt(np.dot(d, d))
                dil, uni = xi_d * np.trace(crystal), xi_u * (n @ crystal @ n)
                assert abs(shift - (dil + uni)) <= 1e-12 * (abs(dil) + abs(uni)), (v, d)


def test_quadratic_shift_values():
    # the c2 eps**2 term of each valley's polynomial
    (_, _, c2_l1), (_, _, c2_l3), (_, _, c2_d6) = valley_coefficients(PARAMS)
    assert c2_l3 * 0.0 * 0.0 == 0.0
    assert c2_l1 * 0.04 * 0.04 == pytest.approx(-0.036)
    assert c2_d6 * 0.05 * 0.05 == pytest.approx(-0.025)


def test_bulk_energy_unstrained_edges():
    assert bulk_energy(Valley.L1, PARAMS, 0.0).total == pytest.approx(2.10)
    assert bulk_energy(Valley.DELTA6, PARAMS, 0.0).total == pytest.approx(1.17)


def test_bulk_energy_hand_value():
    # 2.10 - 0.688 - 0.0393 at 4.18% strain
    assert bulk_energy(Valley.L1, PARAMS, 0.0418).total == pytest.approx(1.373, abs=2e-3)


def test_l_valleys_degenerate_at_zero_strain():
    assert bulk_energy(Valley.L1, PARAMS, 0.0).total == bulk_energy(Valley.L3, PARAMS, 0.0).total


def test_l1_below_l3_under_tension():
    for eps in np.linspace(1e-4, 0.06, 40):
        e1 = bulk_energy(Valley.L1, PARAMS, float(eps)).total
        e3 = bulk_energy(Valley.L3, PARAMS, float(eps)).total
        assert e1 < e3


def test_bulk_energy_matches_published_closed_forms():
    # the three published closed forms, within 1 meV over the fit range
    for eps in np.linspace(0.0, 0.05, 11):
        eps = float(eps)
        assert bulk_energy(Valley.L1, PARAMS, eps).total == pytest.approx(
            2.10 - 16.46 * eps - 22.5 * eps**2, abs=1e-3
        )
        assert bulk_energy(Valley.L3, PARAMS, eps).total == pytest.approx(
            2.10 + 4.20 * eps - 15.0 * eps**2, abs=1e-3
        )
        assert bulk_energy(Valley.DELTA6, PARAMS, eps).total == pytest.approx(
            1.17 + 6.48 * eps - 10.0 * eps**2, abs=1e-3
        )


def test_bulk_energy_rejects_unsupported_strain():
    with pytest.raises(ValueError, match="supported range"):
        bulk_energy(Valley.L1, PARAMS, 0.11)
    with pytest.raises(ValueError):
        bulk_energy(Valley.L1, PARAMS, -0.2)
    # NaN slips past a plain range comparison
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            bulk_energy(Valley.L1, PARAMS, bad)


def _error_or_repr(fn):
    try:
        return repr(fn())
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(
    eps=st.floats(-0.1, 0.1) | st.sampled_from((0.0, -0.0, 0.11, math.nan, math.inf)),
    dp_set=st.sampled_from(("vandewalle1986", "fischetti1996", "friedel1989")),
    c44=st.floats(20.0, 400.0),
    d_L1=st.floats(-40.0, 0.0),
)
def test_bulk_levels_are_the_bulk_energy_totals(eps, dp_set, c44, d_L1):
    # repr shows every bit of each float; an unsupported strain raises the same error
    params = replace(
        PARAMS,
        deformation=table1_set(dp_set),
        elastic=replace(PARAMS.elastic, c44=c44),
        quadratic=replace(PARAMS.quadratic, d_L1=d_L1),
    )
    assert _error_or_repr(lambda: bulk_levels(params, eps)) == _error_or_repr(
        lambda: tuple(bulk_energy(v, params, eps).total for v in Valley)
    )


def test_valley_energy_total_is_component_sum():
    ve = ValleyEnergy(valley=Valley.L1, e0=2.10, de1=-0.5, de2=-0.03, eq=0.02)
    assert abs(ve.total - (2.10 - 0.5 - 0.03 + 0.02)) < 1e-12


def test_breakdown_fields_populated():
    ve = bulk_energy(Valley.DELTA6, PARAMS, 0.02)
    assert ve.eq == 0.0
    assert ve.e0 == 1.17
    assert abs(ve.total - (ve.e0 + ve.de1 + ve.de2 + ve.eq)) < 1e-12


# the strain grid of the fig2/fig3 sweeps, eps = 0, 1e-4, ..., 0.05
_FIGURE_STRAINS = [i * 1e-4 for i in range(501)]


@settings(max_examples=500, deadline=None)
@given(
    eps=st.floats(-0.1, 0.1) | st.sampled_from(_FIGURE_STRAINS),
    dp_set=st.sampled_from(table1_labels()),
    c44=st.floats(20.0, 400.0),
)
@example(eps=0.05, dp_set="vandewalle1986", c44=PARAMS.elastic.c44)
def test_bulk_levels_are_within_a_few_ulp_of_the_per_strain_oracle(eps, dp_set, c44):
    # the levels are e0 + c1 eps + c2 eps**2 with c1 the unit-strain shift,
    # while the oracle shifts the strain state at eps itself: the two may
    # round differently, but only in the last bits of the largest term
    params = replace(PARAMS, deformation=table1_set(dp_set), elastic=replace(PARAMS.elastic, c44=c44))
    c, dp, q, bands = params.elastic, params.deformation, params.quadratic, params.bands
    potentials = (dp.xi_u_delta, dp.xi_d_delta, dp.xi_u_L, dp.xi_d_L)
    edges = {"L1": bands.e0_L, "L3": bands.e0_L, "Delta6": bands.e0_delta}
    curvatures = {"L1": q.d_L1, "L3": q.d_L3, "Delta6": q.d_delta6}
    for v, level in zip(Valley, bulk_levels(params, eps)):
        expected, terms = valley_level(
            v.value, eps, (c.c11, c.c12, c.c44), potentials, edges[v.value], curvatures[v.value]
        )
        assert abs(level - expected) <= 4.0 * math.ulp(max(map(abs, terms))), (v, eps)
