"""Strain-induced shifts and absolute bulk energies of the L1, L3, Delta6 valleys."""

from __future__ import annotations

import math

from .elasticity import StrainState, perp_strain_ratio, strain_state
from .materials import (
    DeformationPotentials,
    MaterialParams,
    QuadraticCoefficients,
    Record,
    Valley,
)

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


def quadratic_shift(valley: Valley, q: QuadraticCoefficients, eps_par: float) -> float:
    """Second-order valley shift d * eps_par**2, eV."""
    return q.coefficient(valley) * eps_par * eps_par


def require_supported_strain(eps_par: float) -> None:
    """Reject a non-finite strain or one beyond ``MAX_SUPPORTED_STRAIN``."""
    if not math.isfinite(eps_par):
        raise ValueError(f"strain must be finite, got {eps_par}")
    if abs(eps_par) > MAX_SUPPORTED_STRAIN:
        raise ValueError(
            f"|eps_par| = {abs(eps_par):.4g} exceeds the supported range "
            f"{MAX_SUPPORTED_STRAIN} of the quadratic coefficients"
        )


def bulk_energy(valley: Valley, params: MaterialParams, eps_par: float) -> ValleyEnergy:
    """Absolute valley energy of the strained bulk film (no confinement)."""
    require_supported_strain(eps_par)
    e0 = params.bands.e0_delta if valley is Valley.DELTA6 else params.bands.e0_L
    s = strain_state(params.elastic, eps_par)
    return ValleyEnergy(
        valley=valley,
        e0=e0,
        de1=linear_shift(valley, params.deformation, s),
        de2=quadratic_shift(valley, params.quadratic, eps_par),
    )


def bulk_levels(params: MaterialParams, eps_par: float) -> tuple[float, float, float]:
    """Strained bulk levels (L1, L3, Delta6) as plain floats, eV.

    The float form of ``bulk_energy(v, params, eps_par).total`` for the three
    valleys, with no strain state or energy record: each level is
    e0 + de1 + de2 with :func:`linear_shift` and :func:`quadratic_shift`
    written out in their operation order, so it is the same float.  Only a
    level of exactly -0.0, which ``total`` turns into 0.0 by adding
    eq = 0.0, keeps its sign here.
    """
    require_supported_strain(eps_par)
    eps = eps_par
    eps_perp = perp_strain_ratio(params.elastic) * eps
    trace = 2.0 * eps + eps_perp
    dp, q, bands = params.deformation, params.quadratic, params.bands
    return (
        bands.e0_L + (dp.xi_d_L * trace + dp.xi_u_L * eps_perp) + q.d_L1 * eps * eps,
        bands.e0_L
        + (dp.xi_d_L * trace + dp.xi_u_L * (8.0 * eps + eps_perp) / 9.0)
        + q.d_L3 * eps * eps,
        bands.e0_delta
        + (dp.xi_d_delta * trace + dp.xi_u_delta * trace / 3.0)
        + q.d_delta6 * eps * eps,
    )
