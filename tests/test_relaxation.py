import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import HC_FROZEN, fixed_point_hc

from lvalley import (
    ElasticConstants,
    InfeasibleError,
    RelaxationInput,
    cli,
    critical_thickness,
    default_params,
    poisson_111,
    x_to_strain,
)

ELASTIC = default_params().elastic
LATTICE = default_params().lattice


def make_input(x, **kw):
    return RelaxationInput(ge_fraction_x=x, elastic=ELASTIC, **kw)


def vegard_input(x):
    """The Vegard misfit at x, given as the slope x_to_strain(x) / x."""
    return make_input(x, misfit_slope=x_to_strain(x, LATTICE) / x)


def test_poisson_111_default_values():
    nu, r = poisson_111(ELASTIC)
    assert r == pytest.approx(0.439, abs=1e-3)
    assert nu == pytest.approx(0.180, abs=1e-3)


def test_poisson_111_isotropic_reduction():
    # with C44 = (C11 - C12)/2 the crystal is isotropic and the [111]
    # ratio must reduce to the textbook nu = C12/(C11 + C12)
    rng = np.random.default_rng(9)
    for _ in range(50):
        c11 = rng.uniform(80.0, 300.0)
        c12 = rng.uniform(10.0, c11 - 10.0)
        c = ElasticConstants(c11=c11, c12=c12, c44=(c11 - c12) / 2.0)
        nu, _ = poisson_111(c)
        assert nu == pytest.approx(c12 / (c11 + c12), rel=1e-12)


def test_hc_pure_ge_against_fixed_point_oracle():
    nu, _ = poisson_111(ELASTIC)
    oracle = fixed_point_hc(1.0, nu)
    got = critical_thickness(make_input(1.0)).h_c
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(HC_FROZEN[1.0], abs=1e-5)


def test_hc_matches_fixed_point_oracle_over_x():
    nu, _ = poisson_111(ELASTIC)
    worst = 0.0
    for i in range(191):
        x = 0.05 + 0.005 * i
        got = critical_thickness(make_input(x)).h_c
        worst = max(worst, abs(got - fixed_point_hc(x, nu)) / got)
    assert worst <= 1e-12


def test_hc_near_w_branch_edge():
    # A = e b (1 + 1e-6): the two roots sit either side of h = A, about
    # sqrt(2u) A apart with u = ln(A/b) - 1; fixed-point iteration crawls here
    nu, _ = poisson_111(ELASTIC)
    b = 0.384
    amp = math.e * b * (1.0 + 1e-6)
    slope = math.sqrt(b / (32.0 * math.pi * amp) * (1.0 - nu) / (1.0 + nu))
    r = critical_thickness(make_input(1.0, misfit_slope=slope))
    assert r.iterations <= 8
    assert abs(r.h_c - amp * math.log(r.h_c / b)) <= 1e-15 * r.h_c
    # larger root: inside the bounds 1 + sqrt(2u) + 2u/3 < h/A < 1 + sqrt(2u) + u
    u = math.log(amp / b) - 1.0
    assert 1.0 + math.sqrt(2.0 * u) + 2.0 * u / 3.0 < r.h_c / amp < 1.0 + math.sqrt(2.0 * u) + u


def test_hc_at_094():
    r = critical_thickness(make_input(0.94))
    assert r.h_c > 3.0
    assert r.h_c == pytest.approx(4.1, abs=0.2)
    assert r.h_c == pytest.approx(HC_FROZEN[0.94], abs=1e-5)


def test_hc_residual_and_root_character():
    for x in (0.3, 0.7, 1.0):
        r = critical_thickness(make_input(x))
        b = 0.384
        amp = b / (32.0 * math.pi * r.misfit_f**2) * (1 - r.nu_111) / (1 + r.nu_111)
        assert abs(r.h_c - amp * math.log(r.h_c / b)) < 1e-9
        # larger root: the log side falls below the line just above the root
        assert amp * math.log((r.h_c * 0.99) / b) - r.h_c * 0.99 > 0.0
        assert amp * math.log((r.h_c * 1.01) / b) - r.h_c * 1.01 < 0.0
        assert r.h_c > b


def test_hc_monotone_in_misfit():
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.uniform(0.2, 0.5)
        lo = critical_thickness(make_input(x)).h_c
        hi = critical_thickness(make_input(2.0 * x)).h_c
        assert hi < lo


def test_hc_unbounded_at_zero_misfit():
    with pytest.raises(InfeasibleError) as exc:
        critical_thickness(make_input(0.0))
    assert exc.value.reason == "unbounded"


def test_hc_unbounded_when_nu_rounds_to_minus_one():
    # c44 = 1e154 rounds the [111] Poisson ratio to -1, so (1 - nu)/(1 + nu) is infinite
    elastic = ElasticConstants(c11=165.7, c12=63.9, c44=1e154)
    assert poisson_111(elastic)[0] == -1.0
    with pytest.raises(InfeasibleError, match="Poisson ratio -1") as exc:
        critical_thickness(RelaxationInput(ge_fraction_x=0.94, elastic=elastic))
    assert exc.value.reason == "unbounded"


def test_hc_unbounded_when_prefactor_overflows():
    # A overflows from b ~ 4e307, and e b too at b = 1e308; an infinite A is
    # unbounded either way, never rootless
    for b in (5e307, 1e308):
        with pytest.raises(InfeasibleError, match="overflow") as exc:
            critical_thickness(make_input(0.94, burgers_b=b))
        assert exc.value.reason == "unbounded"


def test_hc_subnormal_burgers_vector_is_tagged():
    # h_c / b is 8.4379 at x = 1; a subnormal b would print digits it does not have
    for b in (5e-324, 1e-310, math.nextafter(2.2250738585072014e-308, 0.0)):
        with pytest.raises(InfeasibleError, match="Burgers vector .* is too small") as exc:
            critical_thickness(make_input(1.0, burgers_b=b))
        assert exc.value.reason == "subnormal"
    # the smallest normal b keeps its digits
    b = 2.2250738585072014e-308
    assert critical_thickness(make_input(1.0, burgers_b=b)).h_c / b == pytest.approx(
        critical_thickness(make_input(1.0, burgers_b=1.0)).h_c, rel=1e-12
    )


def test_hc_no_root_when_misfit_too_large():
    # c44 = 1 GPa lifts the [111] Poisson ratio so that A < e b at x = 1
    elastic = ElasticConstants(c11=165.7, c12=63.9, c44=1.0)
    with pytest.raises(InfeasibleError, match="no critical-thickness root") as exc:
        critical_thickness(RelaxationInput(ge_fraction_x=1.0, elastic=elastic))
    assert exc.value.reason == "no_root"


def test_hc_finite_for_tiny_vegard_misfit():
    # the Vegard misfit at x = 1e-16 is ~4e-18, not rounded to zero, so the
    # critical thickness is large but finite
    r = critical_thickness(vegard_input(1e-16))
    assert r.misfit_f > 0.0
    assert math.isfinite(r.h_c) and r.h_c > 0.0


@settings(max_examples=500, deadline=None)
@given(log_x=st.floats(min_value=math.log10(5e-324), max_value=0.0))
def test_hc_finite_or_tagged_over_all_x(log_x):
    # x log-uniform over [5e-324, 1]: f^2 underflows and A overflows at the
    # small end, which must read as an unbounded critical thickness
    x = min(max(10.0**log_x, 5e-324), 1.0)
    try:
        h_c = critical_thickness(make_input(x)).h_c
    except InfeasibleError as err:
        assert err.reason == "unbounded"
        return
    assert math.isfinite(h_c) and h_c > 0.0


def hc_rows(*argv):
    """The (x, f, nu_111, h_c) rows of the hc command with the default parameters."""
    ns = cli._parse(["hc", *argv])
    return ns.rows(default_params(), ns)[1]


def test_hc_curve_decreasing():
    grid = [round(0.5 + 0.05 * i, 2) for i in range(11)]
    values = [critical_thickness(make_input(x)).h_c for x in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_hc_curve_feasibility_window():
    assert all(critical_thickness(make_input(x)).h_c > 3.0 for x in (0.94, 1.0))


def test_hc_curve_single_point_matches():
    r = critical_thickness(make_input(0.8))
    assert hc_rows("--x", "0.8") == [(0.8, r.misfit_f, r.nu_111, r.h_c)]


def test_hc_curve_grid_validation():
    # the hc command's grid [0.01, 0.5] leaves the supported [0.05, 1]
    with pytest.raises(ValueError, match=r"within \[0.05, 1\]"):
        hc_rows("--x-min", "0.01", "--x-max", "0.5", "--x-step", "0.49")


def test_vegard_misfit_option():
    linear = critical_thickness(make_input(1.0)).misfit_f
    vegard = critical_thickness(vegard_input(1.0)).misfit_f
    assert linear == pytest.approx(0.0418)
    assert vegard == pytest.approx(0.04176, abs=2e-5)
    # the two conventions stay within a fraction of a percent of each other
    assert vegard == pytest.approx(linear, rel=2e-3)


def test_relaxation_input_validation():
    with pytest.raises(ValueError):
        make_input(1.2)
    with pytest.raises(ValueError):
        make_input(0.5, burgers_b=-0.1)
    with pytest.raises(ValueError):
        make_input(0.5, misfit_slope=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            make_input(0.5, burgers_b=bad)
        with pytest.raises(ValueError, match="must be finite"):
            make_input(0.5, misfit_slope=bad)


FINITE = "Burgers vector and misfit slope must be finite"


@pytest.mark.parametrize("field", ["burgers_b", "misfit_slope"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_burgers_vector_or_slope_names_both(field, bad):
    with pytest.raises(ValueError) as info:
        make_input(0.5, **{field: bad})
    assert str(info.value) == FINITE


@pytest.mark.parametrize("field, message", [
    ("burgers_b", "Burgers vector must be positive"),
    ("misfit_slope", "misfit slope must be positive"),
])
@pytest.mark.parametrize("bad", [0.0, -0.0, -1e-300, -0.384])
def test_a_non_positive_burgers_vector_or_slope_is_named(field, message, bad):
    with pytest.raises(ValueError) as info:
        make_input(0.5, **{field: bad})
    assert str(info.value) == message


@pytest.mark.parametrize("x", [-1e-300, -0.1, 1.0000000000000002, 1.5, math.nan, math.inf, -math.inf])
def test_a_ge_fraction_outside_zero_one_is_named(x):
    with pytest.raises(ValueError) as info:
        make_input(x)
    assert str(info.value) == "Ge fraction must lie in [0, 1]"


@pytest.mark.parametrize("x, b, slope, message", [
    # the Ge fraction is checked first, then finiteness of both, then each sign
    (1.5, math.nan, 0.0, "Ge fraction must lie in [0, 1]"),
    (math.nan, -1.0, math.inf, "Ge fraction must lie in [0, 1]"),
    (0.5, -1.0, math.nan, FINITE),
    (0.5, math.inf, -1.0, FINITE),
    (0.5, 0.0, math.nan, FINITE),
    (0.5, 0.0, 0.0, "Burgers vector must be positive"),
    (0.5, -0.384, -0.0418, "Burgers vector must be positive"),
])
def test_the_first_bad_field_names_the_error(x, b, slope, message):
    with pytest.raises(ValueError) as info:
        make_input(x, burgers_b=b, misfit_slope=slope)
    assert str(info.value) == message


def test_the_edges_of_the_ge_fraction_are_accepted():
    for x in (0.0, -0.0, 1.0):
        assert make_input(x).ge_fraction_x == x
