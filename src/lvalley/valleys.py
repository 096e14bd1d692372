"""Strain-induced shifts and absolute bulk energies of the L1, L3, Delta6 valleys."""

from __future__ import annotations

import math

from .elasticity import StrainState, perp_strain_ratio
from .materials import DeformationPotentials, MaterialParams, Record, Valley

# The reduced quadratic coefficients are fits with no support beyond this
# in-plane strain magnitude.
MAX_SUPPORTED_STRAIN = 0.10


class ValleyEnergy(Record):
    """Per-valley energy breakdown: E = e0 + de1 + de2 + eq, all in eV.

    e0 is the unstrained band edge, de1 and de2 the first- and second-order
    strain shifts and eq the confinement energy, zero for bulk.
    """

    __slots__ = ("valley", "e0", "de1", "de2", "eq")
    _defaults = {"eq": 0.0}

    @property
    def total(self) -> float:
        return self.e0 + self.de1 + self.de2 + self.eq


def linear_shift(valley: Valley, dp: DeformationPotentials, s: StrainState) -> float:
    """First-order valley shift for a biaxial (111) strain state, eV.

    The trace 2*eps_par + eps_perp multiplies the dilatational potential for
    every valley; the uniaxial projection differs per valley because L1 lies
    along the film normal, L3 on the three oblique <111> axes and the Delta
    set on the cubic axes.
    """
    trace = 2.0 * s.eps_par + s.eps_perp
    if valley is Valley.L1:
        return dp.xi_d_L * trace + dp.xi_u_L * s.eps_perp
    if valley is Valley.L3:
        return dp.xi_d_L * trace + dp.xi_u_L * (8.0 * s.eps_par + s.eps_perp) / 9.0
    return dp.xi_d_delta * trace + dp.xi_u_delta * trace / 3.0


def require_supported_strain(eps_par: float) -> None:
    """Reject a non-finite strain or one beyond ``MAX_SUPPORTED_STRAIN``."""
    if not math.isfinite(eps_par):
        raise ValueError(f"strain must be finite, got {eps_par}")
    if abs(eps_par) > MAX_SUPPORTED_STRAIN:
        raise ValueError(
            f"|eps_par| = {abs(eps_par):.4g} exceeds the supported range "
            f"{MAX_SUPPORTED_STRAIN} of the quadratic coefficients"
        )


def valley_coefficients(params: MaterialParams) -> tuple[tuple[float, float, float], ...]:
    """(e0, c1, c2) of L1, L3 and Delta6: each strained level is e0 + c1 eps + c2 eps**2, eV.

    e0 is the unstrained band edge, c1 the :func:`linear_shift` at unit
    strain (eps_par = 1, eps_perp = perp_strain_ratio) and c2 the reduced
    quadratic coefficient.  A coefficient that overflows is inf, not an
    error: the L1/Delta6 gap never reads L3.  The library reads the table
    through ``params._derive``, so a set computes it once.
    """
    unit = StrainState(1.0, perp_strain_ratio(params.elastic))
    dp, q, bands = params.deformation, params.quadratic, params.bands
    return (
        (bands.e0_L, linear_shift(Valley.L1, dp, unit), q.d_L1),
        (bands.e0_L, linear_shift(Valley.L3, dp, unit), q.d_L3),
        (bands.e0_delta, linear_shift(Valley.DELTA6, dp, unit), q.d_delta6),
    )


def bulk_energy(valley: Valley, params: MaterialParams, eps_par: float) -> ValleyEnergy:
    """Absolute valley energy of the strained bulk film (no confinement)."""
    require_supported_strain(eps_par)
    e0, c1, c2 = params._derive(valley_coefficients)[list(Valley).index(valley)]
    return ValleyEnergy(valley, e0, c1 * eps_par, c2 * eps_par * eps_par)


def bulk_levels(params: MaterialParams, eps_par: float) -> tuple[float, float, float]:
    """Strained bulk levels (L1, L3, Delta6) as plain floats, eV.

    e0 + c1 eps + c2 eps**2 of :func:`valley_coefficients`, with no strain
    state or energy record: the float of ``bulk_energy(v, params,
    eps_par).total``.  Only a level of exactly -0.0, which ``total`` turns
    into 0.0 by adding eq = 0.0, keeps its sign here.
    """
    # every strain the check rejects, nan included, fails this comparison
    if not abs(eps_par) <= MAX_SUPPORTED_STRAIN:
        require_supported_strain(eps_par)
    e = eps_par
    table = params._derive(valley_coefficients)
    (e_l1, c1_l1, c2_l1), (e_l3, c1_l3, c2_l3), (e_d6, c1_d6, c2_d6) = table
    return (
        e_l1 + c1_l1 * e + c2_l1 * e * e,
        e_l3 + c1_l3 * e + c2_l3 * e * e,
        e_d6 + c1_d6 * e + c2_d6 * e * e,
    )
