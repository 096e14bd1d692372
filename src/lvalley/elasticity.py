"""The (111) biaxial strain relation.

A biaxially strained (111) film has the in-plane/out-of-plane strain pair
(eps_par, eps_perp) fixed by elasticity through the closed form

    eps_perp = -(2 C11 + 4 C12 - 4 C44) / (C11 + 2 C12 + 4 C44) eps_par,

which is -(C'_3311 + C'_3322) / C'_3333 of the cubic stiffness rotated
into the film frame.  The rank-4 rotation route that derives it is an
independent cross-check and lives with the test oracles.
"""

from __future__ import annotations

from .materials import ElasticConstants


def perp_strain_ratio(c: ElasticConstants) -> float:
    """Signed ratio eps_perp / eps_par for a biaxially strained (111) film."""
    # the closed form above, which ElasticConstants computes once, from the
    # two sums it keeps finite, and keeps in its _memo slot
    return c._memo


def strain_state(c: ElasticConstants, eps_par: float) -> tuple[float, float]:
    """Strain (eps_par, eps_perp) of a (111) film with in-plane strain eps_par."""
    return eps_par, perp_strain_ratio(c) * eps_par
