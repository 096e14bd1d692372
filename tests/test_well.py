import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import EQ_FROZEN, bisect_well_energy, grid_scan_ground_state, infinite_well_reference

from lvalley import (
    HBAR2_OVER_2M0,
    EffectiveMasses,
    InfeasibleError,
    Valley,
    WellConfig,
    cli,
    confinement_energies,
    default_params,
    ground_state,
    matching_mismatch,
    replace,
    solve_well,
    well,
    well_config,
)
from lvalley.rootfind import bisect_root
from lvalley.well import _newton_start

PARAMS = default_params()
V0 = 0.28


def cfg(valley, t):
    return well_config(valley, PARAMS, t)


def test_ground_state_against_live_grid_scan():
    # fresh brute-force oracle runs, not just frozen numbers
    for mi, mo, t in ((0.26, 1.59, 3.0), (1.70, 1.59, 3.0), (0.13, 1.59, 5.0)):
        expected = grid_scan_ground_state(t, V0, mi, mo)
        got = ground_state(WellConfig(t, V0, mi, mo)).energy_eq
        assert got == pytest.approx(expected, abs=1e-6)


def test_ground_state_matches_bisection_oracle():
    # 1000 seeded configurations around and beyond the design range,
    # against a machine-precision bisection of the original tan form
    rng = random.Random(4)
    worst = 0.0
    for _ in range(1000):
        t, v0, mi, mo = (
            math.exp(rng.uniform(math.log(lo), math.log(hi)))
            for lo, hi in ((0.3, 100.0), (0.01, 5.0), (0.02, 5.0), (0.02, 5.0))
        )
        expected = bisect_well_energy(t, v0, mi, mo)
        got = ground_state(WellConfig(t, v0, mi, mo)).energy_eq
        worst = max(worst, abs(got - expected) / expected)
    assert worst <= 1e-13


def test_ground_state_against_frozen_oracle_values():
    for (name, t), expected in EQ_FROZEN.items():
        got = ground_state(cfg(Valley(name), t)).energy_eq
        assert got == pytest.approx(expected, abs=2e-6)


def test_reference_configurations():
    assert ground_state(WellConfig(3.0, 0.28, 0.26, 1.59)).energy_eq == pytest.approx(
        0.040, abs=2e-3
    )
    assert ground_state(WellConfig(3.0, 0.28, 1.70, 1.59)).energy_eq == pytest.approx(
        0.018, abs=2e-3
    )


def test_wide_well_limit():
    sol = ground_state(WellConfig(1e4, 0.28, 0.26, 1.59))
    assert 0.0 < sol.energy_eq < 1e-6


def test_solution_fields_consistent():
    sol = ground_state(cfg(Valley.DELTA6, 3.0))
    k = PARAMS.constants.hbar2_over_2m0
    assert sol.k_in == pytest.approx(math.sqrt(sol.energy_eq * 0.26 / k))
    assert sol.k_out == pytest.approx(math.sqrt((V0 - sol.energy_eq) * 1.59 / k))
    assert sol.residual < 1e-10


def test_infinite_well_reference_values():
    assert infinite_well_reference(3.0, 0.26) == pytest.approx(0.1607, abs=1e-3)
    assert infinite_well_reference(1.0, 1.0) == pytest.approx(0.376, abs=2e-3)


def test_infinite_well_reference_scaling():
    assert infinite_well_reference(2.0, 0.5) == infinite_well_reference(1.0, 0.5) / 4.0


def level(valley, t):
    """Confinement energy of one valley at thickness t, eV, as confinement_energies computes it.

    The set's well row for the valley, ``(v0, a, r, m_in, m_out)``, solved
    by the core as ``well._solve(t, row)``.
    """
    return well._solve(t, PARAMS._derive(well._well_table)[list(Valley).index(valley)])[0]


def test_eq_vs_thickness_sharp_rise_below_3nm():
    assert level(Valley.DELTA6, 2.0) > 1.5 * level(Valley.DELTA6, 3.0)


def test_l1_below_delta6_at_every_thickness():
    for t in np.arange(1.0, 10.01, 0.5):
        assert level(Valley.L1, float(t)) < level(Valley.DELTA6, float(t))


def test_bound_state_range():
    for v in Valley:
        for t in (1.0, 2.0, 5.0, 10.0):
            assert 0.0 < level(v, t) < V0


def test_eq_strictly_decreasing_in_thickness():
    for v in Valley:
        values = [level(v, t) for t in np.arange(1.0, 10.01, 0.25)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_monotonic_in_thickness_and_inner_mass():
    rng = np.random.default_rng(42)
    for _ in range(100):
        t = rng.uniform(0.8, 15.0)
        v0 = rng.uniform(0.1, 1.0)
        mi = rng.uniform(0.08, 1.8)
        mo = rng.uniform(0.08, 1.8)
        base = ground_state(WellConfig(t, v0, mi, mo)).energy_eq
        wider = ground_state(WellConfig(t * 1.3, v0, mi, mo)).energy_eq
        heavier = ground_state(WellConfig(t, v0, mi * 1.3, mo)).energy_eq
        assert wider < base
        assert heavier < base


def test_interface_matching_continuity():
    # rebuild psi from the solution and check value and (1/m) psi'
    # continuity at z = t/2 to 1e-8 relative
    for valley, t in ((Valley.L1, 3.0), (Valley.L3, 2.0), (Valley.DELTA6, 5.0)):
        c = cfg(valley, t)
        sol = ground_state(c)
        half = 0.5 * c.thickness_t
        b_coeff = math.cos(sol.k_in * half) * math.exp(sol.k_out * half)
        assert b_coeff == pytest.approx(
            math.cos(sol.k_in * half) / math.exp(-sol.k_out * half), rel=1e-12
        )
        dpsi_in = -sol.k_in * math.sin(sol.k_in * half) / c.m_in
        dpsi_out = -sol.k_out * b_coeff * math.exp(-sol.k_out * half) / c.m_out
        assert dpsi_out == pytest.approx(dpsi_in, rel=1e-8)


def test_mismatch_changes_sign_across_root():
    for valley, t in ((Valley.L1, 3.0), (Valley.DELTA6, 1.0), (Valley.L3, 10.0)):
        c = cfg(valley, t)
        e = ground_state(c).energy_eq
        h = max(1e-12, 1e-6 * e)
        assert matching_mismatch(c, e - h) < 0.0 < matching_mismatch(c, e + h)


def test_infinite_barrier_convergence():
    # the solver approaches the hard-wall limit as the barrier grows; the
    # leading relative error scales like sqrt(E/V0), so errors must fall
    # roughly tenfold per 100x barrier increase
    for valley in Valley:
        m = PARAMS.masses(valley)
        errs = []
        for scale in (1e3, 1e5, 1e7):
            sol = ground_state(WellConfig(3.0, V0 * scale, m.m_in, m.m_out))
            ref = infinite_well_reference(3.0, m.m_in)
            errs.append(abs(ref - sol.energy_eq) / ref)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2
        for hi, lo in zip(errs, errs[1:]):
            assert 8.0 <= hi / lo <= 11.0, (valley, errs)


def test_residual_on_random_configs():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(200):
        c = WellConfig(
            thickness_t=rng.uniform(1.0, 20.0),
            barrier_v0=rng.uniform(0.05, 1.0),
            m_in=rng.uniform(0.05, 2.0),
            m_out=rng.uniform(0.05, 2.0),
        )
        worst = max(worst, ground_state(c).residual)
    assert worst < 1e-10


def test_residual_is_scale_free_for_wide_wells():
    # near the tangent pole (t of 1e3 to 1e4 nm) the tan-form mismatch of a
    # correct root can read 1e-4; the reported residual is relative to r u0
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(2000):
        c = WellConfig(
            thickness_t=10.0 ** rng.uniform(3.0, 4.0),
            barrier_v0=rng.uniform(0.05, 1.0),
            m_in=rng.uniform(0.05, 2.0),
            m_out=rng.uniform(0.05, 2.0),
        )
        worst = max(worst, ground_state(c).residual)
    assert worst <= 1e-10


def test_thin_well_limit_is_a_tagged_domain_error():
    # (V0 - E)/V0 ~ m_out V0 t^2 / (4K) is ~3e-18 here, below double precision
    with pytest.raises(InfeasibleError) as exc:
        ground_state(WellConfig(1e-9, 0.28, 1.70, 1.59))
    assert exc.value.reason == "thin_well"
    assert "thicker well" in str(exc.value)
    # just above the resolvable binding the level is still returned
    t = 2.0 * math.sqrt(4.0 * PARAMS.constants.hbar2_over_2m0 * 1e-12 / (1.59 * V0))
    sol = ground_state(WellConfig(t, V0, 1.70, 1.59))
    assert 0.0 < sol.energy_eq < V0 and sol.k_out > 0.0


def test_hard_wall_limit_is_a_tagged_domain_error():
    # at 1e17 nm the level is 1e-17 below the hard-wall one, past fl(pi/2)
    # in z; at 1e160 nm the hard-wall level itself underflows
    for t in (1e17, 1e160):
        with pytest.raises(InfeasibleError) as exc:
            ground_state(WellConfig(t, 0.28, 1.70, 1.59))
        assert exc.value.reason == "hard_wall_limit"
    sol = ground_state(WellConfig(1e12, 0.28, 1.70, 1.59))
    ref = infinite_well_reference(1e12, 1.70, HBAR2_OVER_2M0)
    assert 0.0 < sol.energy_eq <= ref
    assert sol.energy_eq == pytest.approx(ref, rel=1e-11)


def test_mass_ratio_underflow_is_a_tagged_domain_error():
    # r u0 underflows to 0 in the first well and u0**2 in the second, where a
    # bare solve would return E = 0; in the third u0**2 overflows.  In the
    # next two 4 (u0/r)**2 overflows, which leaves Newton no start near its
    # tiny root, and in the last r itself underflows to 0
    for args in ((1e-4, 0.28, 1e-320, 1.59), (1e-3, 0.28, 1e-320, 1.59),
                 (1e302, 0.28, 1e-290, 1.0), (3.0, 0.28, 1.70, 1e308),
                 (0.5, 0.28, 0.13, 1e308), (3.0, 0.28, 1e-154, 1e300)):
        with pytest.raises(InfeasibleError) as exc:
            solve_well(*args)
        assert exc.value.reason == "mass_ratio"
        assert f"m_in = {args[2]:.3g}" in str(exc.value)


def _bisect_root_well(t, v0, m_in, m_out, x0=None):
    """(energy, z, residual, iterations) of a guarded well from rootfind.bisect_root.

    The start is x0, or else the well's own ``_newton_start``.
    """
    k = PARAMS.constants.hbar2_over_2m0
    u0 = t * math.sqrt(m_in * v0 / (4.0 * k))
    r = math.sqrt(m_in / m_out)
    hi = min(u0, 0.5 * math.pi)

    def g_and_slope(z):
        s, c = math.sin(z), math.cos(z)
        w = math.sqrt((u0 - z) * (u0 + z))
        g = z * s - r * w * c
        if w == 0.0:
            return g, 0.0
        return g, s + z * c + r * (z * c / w + w * s)

    if x0 is None:
        x0 = _newton_start(u0, r * u0, (u0 / r) * (u0 / r), hi)
    root = bisect_root(g_and_slope, 0.0, hi, x0=x0)
    z = root.root
    return v0 * (z / u0) * (z / u0), z, abs(root.value) / (r * u0), root.iterations


@settings(max_examples=1000, deadline=None)
@given(
    t=st.floats(min_value=-6.0, max_value=4.0).map(lambda e: 10.0**e),
    v0=st.floats(min_value=-1.0, max_value=1.0).map(lambda e: V0 * 10.0**e),
    m_in=st.floats(min_value=0.03, max_value=5.0),
    m_out=st.floats(min_value=0.03, max_value=5.0),
)
@example(t=1.0, v0=V0, m_in=0.26, m_out=1.59)  # bracket end u0 < pi/2
@example(t=5.0, v0=V0, m_in=1.70, m_out=1.59)  # bracket end pi/2, Newton only
@example(t=10.0, v0=V0, m_in=1.70, m_out=1.59)  # deep-well start, Newton only
@example(t=0.1, v0=0.1, m_in=5.0, m_out=0.03)  # deep start above u0: small-z start
@example(t=1e-5, v0=V0, m_in=0.26, m_out=1.59)  # binding 3e-10: one step from next to u0
@example(t=1e-6, v0=0.1 * V0, m_in=1.0, m_out=0.03)  # thin_well
@example(t=1e17, v0=V0, m_in=1.70, m_out=1.59)  # hard_wall_limit
def test_solve_well_matches_bisect_root_reference(t, v0, m_in, m_out):
    # from the same start, the in-place loop takes the iterates of
    # rootfind.bisect_root exactly, and counts them the same way
    try:
        got = solve_well(t, v0, m_in, m_out)
    except InfeasibleError as err:
        assert err.reason in ("thin_well", "hard_wall_limit")
        return
    assert repr(got) == repr(_bisect_root_well(t, v0, m_in, m_out))


def test_deep_start_above_u0_falls_back_to_the_small_z_start():
    # r u0 > 1.5, but the deep-well estimate lies above u0 = hi; the midpoint
    # start this used to fall back to took 17 iterations, 11 of them bisections
    t, v0, m_in, m_out = 0.1, 0.1, 5.0, 0.03
    u0 = t * math.sqrt(m_in * v0 / (4.0 * PARAMS.constants.hbar2_over_2m0))
    ru0 = math.sqrt(m_in / m_out) * u0
    assert ru0 > 1.5 and 0.5 * math.pi * ru0 / (1.0 + ru0) >= u0
    got = solve_well(t, v0, m_in, m_out)
    assert got[3] <= 3
    assert repr(got) == repr(_bisect_root_well(t, v0, m_in, m_out))


def test_bracket_fallback_bisects_as_bisect_root_does(monkeypatch):
    # a start at 1e-9 of the bracket (0, pi/2) throws the first Newton steps
    # out of it, so the loop bisects twice, which the closed-form start never needs
    t, v0, m_in, m_out = 10.0, V0, 1.70, 1.59
    default = solve_well(t, v0, m_in, m_out)
    monkeypatch.setattr(well, "_newton_start", lambda u0, ru0, binding, hi: 1e-9 * hi)
    got = solve_well(t, v0, m_in, m_out)
    assert got[3] > default[3]
    assert repr(got) == repr(_bisect_root_well(t, v0, m_in, m_out, x0=1e-9 * 0.5 * math.pi))
    assert got[0] == default[0]


def _outcome(fn):
    """repr of fn()'s result, or the type, reason tag and message of the error it raises."""
    try:
        return repr(fn())
    except Exception as err:  # every error is an outcome to compare
        return type(err).__name__, getattr(err, "reason", None), str(err)


def _set_levels(params, t):
    """(L1, L3, Delta6) energies of ``params`` at t, one public solve_well call per valley."""
    v0, k = params.bands.v0_offset_111, params.constants.hbar2_over_2m0
    return tuple(
        solve_well(t, v0, m.m_in, m.m_out, k)[0]
        for m in (params.masses_l1, params.masses_l3, params.masses_delta6)
    )


# physical masses, or any positive float from subnormal up, which reaches the
# mass_ratio limit when m_in / m_out underflows or overflows
_mass = st.floats(0.01, 10.0) | st.floats(-320.0, 308.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    m_l1=_mass, m_l3=_mass, m_d6=_mass, m_out=_mass,
    v0=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    k=st.floats(0.0381 * (1.0 - 9e-4), 0.0381 * (1.0 + 9e-4)),
    t=st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
    | st.sampled_from((0.0, -1.0, math.nan, math.inf)),
)
@example(m_l1=1.70, m_l3=0.13, m_d6=0.26, m_out=1.59, v0=V0, k=HBAR2_OVER_2M0, t=1e-8)  # thin_well
@example(m_l1=1e5, m_l3=1e5, m_d6=1e5, m_out=1.59, v0=V0, k=HBAR2_OVER_2M0, t=1e8)  # hard_wall_limit
@example(m_l1=1e-320, m_l3=0.13, m_d6=0.26, m_out=1.59, v0=V0, k=HBAR2_OVER_2M0, t=1e-3)  # mass_ratio
def test_confinement_energies_are_the_public_kernel_per_valley(m_l1, m_l3, m_d6, m_out, v0, k, t):
    # the per-set well table and the core give solve_well's floats and errors
    params = replace(
        PARAMS,
        bands=replace(PARAMS.bands, v0_offset_111=v0),
        constants=replace(PARAMS.constants, hbar2_over_2m0=k),
        masses_l1=EffectiveMasses(m_l1, m_out),
        masses_l3=EffectiveMasses(m_l3, m_out),
        masses_delta6=EffectiveMasses(m_d6, m_out),
    )
    assert _outcome(lambda: confinement_energies(params, t)) == _outcome(lambda: _set_levels(params, t))
    # a set derived after the first call keeps its own table, never the parent's
    for derived in (
        replace(params, masses_l3=EffectiveMasses(0.5 * m_l3, m_out)),
        replace(params, **{f"masses_{v}": EffectiveMasses(m, 0.5 * m_out)
                           for v, m in (("l1", m_l1), ("l3", m_l3), ("delta6", m_d6))}),
        replace(params, bands=replace(params.bands, v0_offset_111=0.5 * v0)),
    ):
        assert _outcome(lambda: confinement_energies(derived, t)) == _outcome(
            lambda: _set_levels(derived, t)
        )


def _log_grid(lo, hi, n):
    step = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(i * step) for i in range(n)]


@pytest.mark.parametrize("valley", list(Valley))
def test_newton_start_bounds_the_iteration_count(valley):
    # the midpoint start took a mean of 5.1 and up to 7 iterations on the
    # design range, and up to 24 on the wide range
    m = PARAMS.masses(valley)
    k = PARAMS.constants.hbar2_over_2m0

    def iterations(lo, hi):
        return [solve_well(t, V0, m.m_in, m.m_out, k)[3] for t in _log_grid(lo, hi, 1001)]

    design_range = iterations(0.5, 50.0)
    assert sum(design_range) / len(design_range) <= 4.0
    assert max(design_range) <= 5
    assert max(iterations(1e-3, 1e3)) <= 6


@settings(max_examples=500, deadline=None)
@given(
    t=st.floats(min_value=-12.0, max_value=4.0),
    v0=st.floats(min_value=-3.0, max_value=1.0),
    m_in=st.floats(min_value=-2.0, max_value=1.0),
    m_out=st.floats(min_value=-2.0, max_value=1.0),
)
def test_ground_state_bounds_or_thin_well(t, v0, m_in, m_out):
    # decades: t in [1e-12, 1e4] nm, V0 in [1e-3, 10] eV, masses in [0.01, 10]
    t, v0, m_in, m_out = 10.0**t, 10.0**v0, 10.0**m_in, 10.0**m_out
    try:
        sol = ground_state(WellConfig(t, v0, m_in, m_out))
    except InfeasibleError as err:
        assert err.reason == "thin_well"
        return
    assert 0.0 < sol.energy_eq < v0
    assert sol.energy_eq <= infinite_well_reference(t, m_in, HBAR2_OVER_2M0)
    assert sol.k_out > 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        WellConfig(-1.0, 0.28, 0.26, 1.59)
    with pytest.raises(ValueError):
        WellConfig(3.0, 0.0, 0.26, 1.59)
    with pytest.raises(ValueError):
        WellConfig(3.0, 0.28, 0.26, -1.59)
    for bad in (math.inf, math.nan):
        for args in ((bad, 0.28, 0.26, 1.59), (3.0, bad, 0.26, 1.59),
                     (3.0, 0.28, bad, 1.59), (3.0, 0.28, 0.26, bad)):
            with pytest.raises(ValueError, match="finite"):
                WellConfig(*args)


_BAD_BARRIER = "^barrier height must be positive and finite$"
_BAD_MASSES = "^effective masses must be positive and finite$"


@pytest.mark.parametrize("args, message", [
    # a zero barrier mass divided by zero, a negative mass or barrier took a
    # square root of a negative number, a zero or nan barrier read as thin_well
    ((3.0, 0.28, 1.7, 0.0), _BAD_MASSES),
    ((3.0, 0.28, -1.7, 1.59), _BAD_MASSES),
    ((3.0, 0.28, 1.7, -1.59), _BAD_MASSES),
    ((3.0, 0.28, math.inf, 1.59), _BAD_MASSES),
    ((3.0, -0.28, 1.7, 1.59), _BAD_BARRIER),
    ((3.0, 0.0, 1.7, 1.59), _BAD_BARRIER),
    ((3.0, math.nan, 1.7, 1.59), _BAD_BARRIER),
    ((3.0, math.inf, 1.7, 1.59), _BAD_BARRIER),
    # the barrier is checked before the masses, and the thickness before both
    ((3.0, -0.28, -1.7, 0.0), _BAD_BARRIER),
    ((-3.0, -0.28, -1.7, 0.0), "^well thickness must be positive and finite$"),
    # hbar^2 / 2 m0 last
    ((3.0, 0.28, 1.7, 1.59, 0.0), "^hbar2_over_2m0 must be positive and finite$"),
    ((3.0, 0.28, 1.7, 1.59, -1.0), "^hbar2_over_2m0 must be positive and finite$"),
    ((3.0, 0.28, 1.7, 1.59, math.nan), "^hbar2_over_2m0 must be positive and finite$"),
    ((3.0, 0.28, 1.7, 1.59, math.inf), "^hbar2_over_2m0 must be positive and finite$"),
    ((3.0, 0.28, 0.0, 1.59, math.inf), _BAD_MASSES),
], ids=["zero-m_out", "negative-m_in", "negative-m_out", "inf-m_in", "negative-v0", "zero-v0",
        "nan-v0", "inf-v0", "v0-before-masses", "t-first", "zero-k", "negative-k", "nan-k",
        "inf-k", "masses-before-k"])
def test_solve_well_rejects_a_bad_input_as_well_config_does(args, message):
    with pytest.raises(ValueError, match=message) as exc:
        solve_well(*args)
    assert type(exc.value) is ValueError
    if len(args) == 4:
        with pytest.raises(ValueError, match=message):
            WellConfig(*args)


def test_grid_validation(capsys):
    # the well command's grid [-1, 2] nm: its negative point is a domain
    # error, warned about by thickness, and the 2 nm row is still written
    ns = cli._parse(["well", "--valley", "L1", "--t-min", "-1", "--t-max", "2", "--t-step", "3"])
    assert cli._grid(ns, "t") == [-1.0, 2.0]
    assert [row[0] for row in ns.rows(PARAMS, ns)[1]] == [2.0]
    assert capsys.readouterr().err == "warning: t = -1 nm: well thickness must be positive and finite\n"
    # a grid of bad points only raises the first, named
    ns = cli._parse(["well", "--valley", "L1", "--t", "-1"])
    with pytest.raises(ValueError, match="^t = -1 nm: well thickness must be positive"):
        ns.rows(PARAMS, ns)
