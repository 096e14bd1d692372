"""Strain-induced shifts and absolute bulk energies of the L1, L3, Delta6 valleys."""

from __future__ import annotations

import math

from .elasticity import perp_strain_ratio
from .materials import DeformationPotentials, MaterialParams, Valley, _valley_index

# The reduced quadratic coefficients are fits with no support beyond this
# in-plane strain magnitude.
MAX_SUPPORTED_STRAIN = 0.10


def linear_shift(
    valley: Valley, dp: DeformationPotentials, eps_par: float, eps_perp: float
) -> float:
    """First-order valley shift for a biaxial (111) strain (eps_par, eps_perp), eV.

    The trace 2*eps_par + eps_perp multiplies the dilatational potential for
    every valley; the uniaxial projection differs per valley because L1 lies
    along the film normal, L3 on the three oblique <111> axes and the Delta
    set on the cubic axes.
    """
    trace = 2.0 * eps_par + eps_perp
    i = _valley_index(valley)  # 0, 1, 2 for L1, L3, Delta6
    if i == 0:
        return dp.xi_d_L * trace + dp.xi_u_L * eps_perp
    if i == 1:
        return dp.xi_d_L * trace + dp.xi_u_L * (8.0 * eps_par + eps_perp) / 9.0
    return dp.xi_d_delta * trace + dp.xi_u_delta * trace / 3.0


def valley_coefficients(params: MaterialParams) -> tuple[tuple[float, float, float], ...]:
    """(e0, c1, c2) of L1, L3 and Delta6: each strained level is e0 + c1 eps + c2 eps**2, eV.

    e0 is the unstrained band edge, c1 the :func:`linear_shift` at unit
    strain (eps_par = 1, eps_perp = perp_strain_ratio) and c2 the reduced
    quadratic coefficient.  A coefficient that overflows is inf, not an
    error: the L1/Delta6 gap never reads L3.  The library reads the table
    through ``params._derive``, so a set computes it once.
    """
    ratio = perp_strain_ratio(params.elastic)
    dp, q, bands = params.deformation, params.quadratic, params.bands
    return (
        (bands.e0_L, linear_shift(Valley.L1, dp, 1.0, ratio), q.d_L1),
        (bands.e0_L, linear_shift(Valley.L3, dp, 1.0, ratio), q.d_L3),
        (bands.e0_delta, linear_shift(Valley.DELTA6, dp, 1.0, ratio), q.d_delta6),
    )


def bulk_energy(valley: Valley, params: MaterialParams, eps_par: float) -> float:
    """Absolute energy of one valley of the strained bulk film (no confinement), eV."""
    return bulk_levels(params, eps_par)[_valley_index(valley)]


def bulk_levels(params: MaterialParams, eps_par: float) -> tuple[float, float, float]:
    """Strained bulk levels (L1, L3, Delta6) as plain floats, eV.

    e0 + c1 eps + c2 eps**2 of :func:`valley_coefficients`.  A non-finite
    strain, or one beyond ``MAX_SUPPORTED_STRAIN``, is a ValueError.
    """
    # every strain rejected below, nan included, fails this comparison
    if not abs(eps_par) <= MAX_SUPPORTED_STRAIN:
        if not math.isfinite(eps_par):
            raise ValueError(f"strain must be finite, got {eps_par}")
        raise ValueError(
            f"|eps_par| = {abs(eps_par):.4g} exceeds the supported range "
            f"{MAX_SUPPORTED_STRAIN} of the quadratic coefficients"
        )
    e = eps_par
    table = params._derive(valley_coefficients)
    (e_l1, c1_l1, c2_l1), (e_l3, c1_l3, c2_l3), (e_d6, c1_d6, c2_d6) = table
    return (
        e_l1 + c1_l1 * e + c2_l1 * e * e,
        e_l3 + c1_l3 * e + c2_l3 * e * e,
        e_d6 + c1_d6 * e + c2_d6 * e * e,
    )
