"""The (111) biaxial strain relation.

A biaxially strained (111) film has the in-plane/out-of-plane strain pair
(eps_par, eps_perp) fixed by elasticity through the closed form

    eps_perp = -(2 C11 + 4 C12 - 4 C44) / (C11 + 2 C12 + 4 C44) eps_par,

which is -(C'_3311 + C'_3322) / C'_3333 of the cubic stiffness rotated
into the film frame.  The rank-4 rotation route that derives it is an
independent cross-check and lives with the test oracles.
"""

from __future__ import annotations

from .materials import ElasticConstants, Record


def perp_strain_ratio(c: ElasticConstants) -> float:
    """Signed ratio eps_perp / eps_par for a biaxially strained (111) film."""
    denom = c.c11 + 2.0 * c.c12 + 4.0 * c.c44
    if not denom > 0.0:
        raise ValueError("C11 + 2 C12 + 4 C44 must be positive")
    return -(2.0 * c.c11 + 4.0 * c.c12 - 4.0 * c.c44) / denom


def perp_strain(c: ElasticConstants, eps_par: float) -> float:
    """Out-of-plane strain of a (111) film with in-plane strain eps_par."""
    return perp_strain_ratio(c) * eps_par


class StrainState(Record):
    """Strain of a biaxial (111) film: in-plane and film-normal components."""

    __slots__ = ("eps_par", "eps_perp")


def strain_state(c: ElasticConstants, eps_par: float) -> StrainState:
    """Strain state of a (111) film with in-plane strain eps_par."""
    return StrainState(eps_par=eps_par, eps_perp=perp_strain(c, eps_par))
