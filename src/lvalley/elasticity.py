"""Rotations, stiffness-tensor transformation and the (111) strain relation.

A biaxially strained (111) film has the in-plane/out-of-plane strain pair
(eps_par, eps_perp) fixed by elasticity.  The closed form for eps_perp is
used throughout the library; the full rank-4 rotation path exists as an
independent route so the two can be cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .materials import ElasticConstants


def rotation_from_angles(theta: float, phi: float) -> np.ndarray:
    """Rotation mapping the cubic crystal axes onto a film frame.

    theta is the polar tilt of the film normal and phi its azimuth; the
    result is proper orthogonal (det = +1) for any angle pair.
    """
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array(
        [
            [cp * ct, -sp, cp * st],
            [sp * ct, cp, sp * st],
            [-st, 0.0, ct],
        ]
    )


def rotation_111() -> np.ndarray:
    """The (111)-film rotation with its exact closed-form entries."""
    s6 = 1.0 / math.sqrt(6.0)
    s2 = 1.0 / math.sqrt(2.0)
    s3 = 1.0 / math.sqrt(3.0)
    return np.array(
        [
            [s6, -s2, s3],
            [s6, s2, s3],
            [-math.sqrt(2.0 / 3.0), 0.0, s3],
        ]
    )


def cubic_stiffness(c: ElasticConstants) -> np.ndarray:
    """Assemble the full 3x3x3x3 stiffness tensor of a cubic crystal, GPa."""
    eye = np.eye(3)
    tensor = c.c12 * np.einsum("ij,kl->ijkl", eye, eye)
    tensor += c.c44 * (
        np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
    )
    extra = c.c11 - c.c12 - 2.0 * c.c44  # cubic anisotropy on the axes
    for m in range(3):
        tensor[m, m, m, m] += extra
    return tensor


def rotate_stiffness(c: ElasticConstants, u: np.ndarray) -> np.ndarray:
    """Stiffness tensor in the film frame: C'_pqrs = U_ap U_bq U_ir U_js C_abij."""
    return np.einsum("ap,bq,ir,js,abij->pqrs", u, u, u, u, cubic_stiffness(c))


def perp_strain_ratio(c: ElasticConstants) -> float:
    """Signed ratio eps_perp / eps_par for a biaxially strained (111) film."""
    denom = c.c11 + 2.0 * c.c12 + 4.0 * c.c44
    if not denom > 0.0:
        raise ValueError("C11 + 2 C12 + 4 C44 must be positive")
    return -(2.0 * c.c11 + 4.0 * c.c12 - 4.0 * c.c44) / denom


def perp_strain(c: ElasticConstants, eps_par: float) -> float:
    """Out-of-plane strain of a (111) film with in-plane strain eps_par."""
    return perp_strain_ratio(c) * eps_par


@dataclass(frozen=True)
class StrainState:
    """Strain of a biaxial (111) film in both relevant frames.

    tensor_111 is diagonal (eps_par, eps_par, eps_perp) in the film frame;
    tensor_crystal is the same strain expressed on the cubic crystal axes.
    Both are read-only arrays built on first access: the valley shifts need
    only the two scalars.
    """

    eps_par: float
    eps_perp: float

    @cached_property
    def tensor_111(self) -> np.ndarray:
        t111 = np.diag([self.eps_par, self.eps_par, self.eps_perp])
        t111.setflags(write=False)
        return t111

    @cached_property
    def tensor_crystal(self) -> np.ndarray:
        tcry = np.full((3, 3), (self.eps_perp - self.eps_par) / 3.0)
        np.fill_diagonal(tcry, (2.0 * self.eps_par + self.eps_perp) / 3.0)
        tcry.setflags(write=False)
        return tcry


def strain_state(c: ElasticConstants, eps_par: float) -> StrainState:
    """Strain state of a (111) film with in-plane strain eps_par."""
    return StrainState(eps_par=eps_par, eps_perp=perp_strain(c, eps_par))
