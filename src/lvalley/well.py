"""Even ground state of a finite square well with position-dependent mass.

The interface matching uses the BenDaniel-Duke condition (continuity of psi
and of psi'/m*), which reduces the even ground state to a single
transcendental equation

    tan(k_in t / 2) = sqrt((m_in / m_out) (V0 - E) / E),
    k_in = sqrt(2 m_in E) / hbar.

It is solved in z = k_in t/2, with E = 4 K z**2 / (m_in t**2) and
K = hbar**2 / 2 m0, as

    g(z) = z sin z - r sqrt(u0**2 - z**2) cos z = 0,
    r = sqrt(m_in / m_out),  u0**2 = m_in V0 t**2 / (4 K).

On the first branch, z in (0, min(u0, pi/2)), g has no tangent pole and
rises strictly from -r u0 to a positive value, so exactly one root exists
and a bracket-safeguarded Newton iteration (``rtsafe``) reaches it.  The
iteration is a plain loop over floats inside :func:`_solve`: the signs
at both bracket ends are known, so neither end is evaluated, and each step
computes g and g' together, sharing sin z, cos z and sqrt(u0**2 - z**2).
It starts near the root, from the closed-form estimate of
:func:`_newton_start`, and its iterates are those of
:func:`rootfind.bisect_root` on the same bracket from the same start, which
the tests use as the reference.

:func:`solve_well` is the float kernel: thickness, barrier and masses in,
(energy, z, residual, iterations) out, with no configuration or solution
object.  A well is one row of :func:`_row`, (v0, a, r, m_in, m_out) with
a = sqrt(m_in v0 / (4 K)); ``_solve(t, row)`` checks t, forms u0 = t a and
holds the one copy of the guards and the loop, which the sweeps call with
the set's rows of :func:`_well_table`.  :func:`ground_state` wraps
solve_well for a validated :class:`WellConfig`.
"""

from __future__ import annotations

import math
import sys
from math import cos, sin, sqrt

from .errors import STEP_RTOL, InfeasibleError, SolverError
from .materials import HBAR2_OVER_2M0, MaterialParams, Record, Valley

# Smallest relative gap the solver resolves at either end of the first
# branch: the binding (V0 - E)/V0 of a thin well, where z nears u0, and the
# distance (E_inf - E)/E_inf below the hard-wall level of a wide or deep
# well, where z nears pi/2.  z converges to a few ulp, so at this gap the
# gap itself still carries about four significant digits.  Next to u0 the
# slope of g is infinite and the Newton step shrinks; above this gap the
# step stays larger than the stopping tolerance at every representable z
# below u0, so convergence cannot be declared there.
MIN_RELATIVE_GAP = 1e-12

_INF = math.inf
# the smallest normal float: r u0 and u0**2 must stay at or above it
_TINY = sys.float_info.min
# the first branch of g ends at the first tangent pole
_HALF_PI = 0.5 * math.pi

_BAD_THICKNESS = "well thickness must be positive and finite"


class WellConfig(Record):
    """Geometry, barrier and masses of one finite well: nm, eV and m0 units."""

    __slots__ = ("thickness_t", "barrier_v0", "m_in", "m_out")

    def _check(self):
        _check_well(self.thickness_t, self.barrier_v0, self.m_in, self.m_out)


def _check_well(t: float, v0: float, m_in: float, m_out: float, k: float = HBAR2_OVER_2M0):
    """Raise ValueError unless t, v0, both masses and then k are each positive and finite."""
    # chained bounds also reject NaN, for which every comparison is False
    if not 0.0 < t < _INF:
        raise ValueError(_BAD_THICKNESS)
    if not 0.0 < v0 < _INF:
        raise ValueError("barrier height must be positive and finite")
    if not (0.0 < m_in < _INF and 0.0 < m_out < _INF):
        raise ValueError("effective masses must be positive and finite")
    if not 0.0 < k < _INF:
        raise ValueError("hbar2_over_2m0 must be positive and finite")


class WellSolution(Record):
    """Ground state of one well: energy, wave numbers, matching residual.

    energy_eq is in eV, k_in and the barrier decay constant k_out in nm^-1,
    and residual is |g(z)| / (r u0) at the root.
    """

    __slots__ = ("energy_eq", "k_in", "k_out", "residual")


def matching_mismatch(
    cfg: WellConfig, energy: float, hbar2_over_2m0: float = HBAR2_OVER_2M0
) -> float:
    """Signed mismatch of the matching equation at a trial energy.

    Negative below the ground-state root, positive above it (on the first
    tangent branch).  Valid for 0 < energy < barrier_v0.
    """
    k_in = math.sqrt(energy * cfg.m_in / hbar2_over_2m0)
    rhs = math.sqrt((cfg.m_in / cfg.m_out) * (cfg.barrier_v0 - energy) / energy)
    return math.tan(0.5 * k_in * cfg.thickness_t) - rhs


def solve_well(
    thickness_t: float,
    barrier_v0: float,
    m_in: float,
    m_out: float,
    hbar2_over_2m0: float = HBAR2_OVER_2M0,
) -> tuple[float, float, float, int]:
    """Even ground state of one well as plain floats: (energy, z, residual, iterations).

    The float kernel behind :func:`ground_state`, for callers that need
    only the energy.  Thickness, barrier, both masses and ``hbar2_over_2m0``
    must each be positive and finite; they are checked in that order, as
    :class:`WellConfig` checks the first four, and the first that is not
    raises ValueError naming it.  ``z`` = k_in t/2 is the root,
    ``residual`` is |g(z)| / (r u0) and ``iterations`` counts the evaluations
    of g, as ``BisectResult.iterations`` does; the limits raise as described
    in :func:`ground_state`.
    """
    _check_well(thickness_t, barrier_v0, m_in, m_out, hbar2_over_2m0)
    return _solve(thickness_t, _row(barrier_v0, m_in, m_out, hbar2_over_2m0))


def _row(v0: float, m_in: float, m_out: float, k: float) -> tuple[float, ...]:
    """One well as (v0, a, r, m_in, m_out): a = sqrt(m_in v0 / (4 k)), r = sqrt(m_in / m_out)."""
    return v0, sqrt(m_in * v0 / (4.0 * k)), sqrt(m_in / m_out), m_in, m_out


def _solve(t: float, row: tuple) -> tuple[float, float, float, int]:
    """:func:`solve_well` of one :func:`_row` at thickness t."""
    if not 0.0 < t < _INF:
        raise ValueError(_BAD_THICKNESS)
    v0, a, r, m_in, m_out = row
    u0 = t * a
    binding = (u0 / r) * (u0 / r) if r > 0.0 else _INF
    if not binding >= MIN_RELATIVE_GAP:
        raise InfeasibleError(
            f"a {t:.3g} nm well under a {v0:.3g} eV barrier binds its ground state "
            f"by only {binding:.2g} of the barrier height, below the "
            f"{MIN_RELATIVE_GAP:g} that double precision resolves; use a "
            "thicker well or a higher barrier",
            reason="thin_well",
        )
    # r u0 is 0 only when the mass ratio underflows, which the check below reports
    ru0 = r * u0
    deficit = 2.0 / ru0 if ru0 > 0.0 else _INF
    if not deficit >= MIN_RELATIVE_GAP:
        raise InfeasibleError(
            f"the level of a {t:.3g} nm well under a {v0:.3g} eV barrier lies only "
            f"{deficit:.2g} below the hard-wall level pi^2 hbar^2 / (2 m_in t^2), "
            f"closer than the {MIN_RELATIVE_GAP:g} that double precision resolves; "
            "use the hard-wall level",
            reason="hard_wall_limit",
        )
    if not (ru0 >= _TINY and _TINY <= u0 * u0 < _INF and 4.0 * binding < _INF):
        raise InfeasibleError(
            f"a {t:.3g} nm well with masses m_in = {m_in:.3g} and m_out = {m_out:.3g} m0 "
            f"under a {v0:.3g} eV barrier has a mass ratio m_in/m_out too small for "
            "double precision to solve; use physical effective masses",
            reason="mass_ratio",
        )

    # rtsafe on the rising bracket (0, hi).  Past the guards the end signs are
    # known, so neither end is evaluated: g(0) = -r u0 < 0, and g(hi) is
    # u0 sin u0 > 0 at hi = u0, or pi/2 - r w cos(pi/2) > 0 at hi = pi/2,
    # where r w <= 2 / MIN_RELATIVE_GAP and cos(pi/2) rounds to 6e-17.  The
    # steps, stopping rule and fallbacks are those of rootfind.bisect_root
    # started at the same point, iterate for iterate.
    # min(u0, _HALF_PI) without the builtin call
    lo, hi = 0.0, _HALF_PI if _HALF_PI < u0 else u0
    z = _newton_start(u0, ru0, binding, hi)
    for i in range(1, 257):
        s, c = sin(z), cos(z)
        w = sqrt((u0 - z) * (u0 + z))
        g = z * s - r * w * c
        if g == 0.0:
            break
        if g < 0.0:
            lo = z
        else:
            hi = z
        # w is 0 only where (u0 - z)(u0 + z) underflows: bisect instead
        zc = z * c
        slope = s + zc + r * (zc / w + w * s) if w != 0.0 else 0.0
        if slope != 0.0:
            step = g / slope
            if abs(step) <= STEP_RTOL * z:
                break
            z_new = z - step
            if lo < z_new < hi:
                z = z_new
                continue
        z = 0.5 * (lo + hi)
        if z == lo or z == hi:  # no representable midpoint left
            g = z * sin(z) - r * sqrt((u0 - z) * (u0 + z)) * cos(z)
            break
    else:
        raise SolverError(
            f"root search did not converge after 256 iterations; bracket [{lo}, {hi}]"
        )
    return v0 * (z / u0) * (z / u0), z, abs(g) / ru0, i


def _newton_start(u0: float, ru0: float, binding: float, hi: float) -> float:
    """Closed-form estimate of the root of g, strictly inside the bracket (0, hi).

    A deep well (r u0 > 1.5) binds near the hard wall, where
    pi/2 - z ~ z / (r u0) gives z = (pi/2) r u0 / (1 + r u0).  Otherwise z
    is small: with tan z ~ z the matching equation
    z tan z = r sqrt(u0**2 - z**2) becomes z**4 + r**2 z**2 - r**2 u0**2 = 0,
    and two passes with the Pade form tan z ~ z p, p = (15 - z**2) /
    (15 - 6 z**2), refine it.  Each pass takes the positive root
    z**2 = 2 u0**2 / (1 + sqrt(1 + 4 p**2 (u0/r)**2)), free of cancellation;
    ``binding`` is (u0/r)**2.  A deep-well start at or above u0 (a heavy
    well mass under a light barrier mass, in a thin well) gives way to the
    small-z estimate, which holds there because z**2 <= u0**2 < pi**2/4
    stays below the Pade pole at z**2 = 2.5; an estimate still outside the
    bracket (an overflow) gives way to the midpoint.
    """
    if ru0 > 1.5:
        z = _HALF_PI * ru0 / (1.0 + ru0)
        if 0.0 < z < hi:
            return z
    b4 = 4.0 * binding
    zz = 2.0 * u0 * u0 / (1.0 + sqrt(1.0 + b4))
    p = (15.0 - zz) / (15.0 - 6.0 * zz)
    zz = 2.0 * u0 * u0 / (1.0 + sqrt(1.0 + b4 * p * p))
    p = (15.0 - zz) / (15.0 - 6.0 * zz)
    z = sqrt(2.0 * u0 * u0 / (1.0 + sqrt(1.0 + b4 * p * p)))
    return z if 0.0 < z < hi else 0.5 * hi


def ground_state(cfg: WellConfig, hbar2_over_2m0: float = HBAR2_OVER_2M0) -> WellSolution:
    """Solve for the even ground state of the well.

    The root is found in z = k_in t/2 on (0, min(u0, pi/2)) by the
    bracket-safeguarded Newton solver, to a few ulp of z; E = V0 (z/u0)**2
    and k_in = 2 z / t.  ``residual`` is |g(z)| / (r u0) at the root, g
    relative to its value g(0) = -r u0: unlike the tan-form mismatch of
    :func:`matching_mismatch`, which diverges near its pole in wide, deep
    wells, it is scale-free.  Two limits raise :class:`InfeasibleError` when
    their leading-order gap is below ``MIN_RELATIVE_GAP``: a thin well
    whose relative binding (V0 - E)/V0 ~ (u0/r)**2 = m_out V0 t**2 / (4 K)
    is unresolved (reason ``"thin_well"``), and a wide or deep well whose
    level sits within (E_inf - E)/E_inf ~ 2/(r u0) of the hard-wall level
    (reason ``"hard_wall_limit"``).  So does a mass ratio m_in/m_out so
    small that r u0 or u0**2 leaves the normal double range (below about
    2e-284) or 4 (u0/r)**2 overflows (reason ``"mass_ratio"``).  A returned
    solution has 0 < E < V0, E no higher than the hard-wall level and k_out > 0.
    """
    energy, z, residual, _ = solve_well(
        cfg.thickness_t, cfg.barrier_v0, cfg.m_in, cfg.m_out, hbar2_over_2m0
    )
    return WellSolution(
        energy_eq=energy,
        k_in=2.0 * z / cfg.thickness_t,
        k_out=math.sqrt((cfg.barrier_v0 - energy) * cfg.m_out / hbar2_over_2m0),
        residual=residual,
    )


def well_config(valley: Valley, params: MaterialParams, thickness_t: float) -> WellConfig:
    """Well configuration for one valley of the SiGe/Si(111)/SiGe structure."""
    m = params.masses(valley)
    return WellConfig(
        thickness_t=thickness_t,
        barrier_v0=params.bands.v0_offset_111,
        m_in=m.m_in,
        m_out=m.m_out,
    )


def _well_table(params: MaterialParams) -> tuple[tuple[float, ...], ...]:
    """The set's :func:`_row` per valley, in Valley order, for ``_derive``."""
    v0, k = params.bands.v0_offset_111, params.constants.hbar2_over_2m0
    return tuple(_row(v0, m.m_in, m.m_out, k) for m in map(params.masses, Valley))
