"""Even ground state of a finite square well with position-dependent mass.

The interface matching uses the BenDaniel-Duke condition (continuity of psi
and of psi'/m*), which reduces the even ground state to a single
transcendental equation

    tan(k_in t / 2) = sqrt((m_in / m_out) (V0 - E) / E),
    k_in = sqrt(2 m_in E) / hbar.

The solver brackets the first tangent branch, k_in t/2 in (0, pi/2), where
the left side rises 0 -> inf and the right side falls inf -> finite, so
exactly one root exists for any valid configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .materials import HBAR2_OVER_2M0, MaterialParams, Valley
from .rootfind import bisect_root


@dataclass(frozen=True)
class WellConfig:
    """Geometry, barrier and masses of one finite well."""

    thickness_t: float  # nm
    barrier_v0: float   # eV
    m_in: float         # m0 units
    m_out: float

    def __post_init__(self):
        # chained bounds also reject NaN, for which every comparison is False
        if not 0.0 < self.thickness_t < math.inf:
            raise ValueError("well thickness must be positive and finite")
        if not 0.0 < self.barrier_v0 < math.inf:
            raise ValueError("barrier height must be positive and finite")
        if not (0.0 < self.m_in < math.inf and 0.0 < self.m_out < math.inf):
            raise ValueError("effective masses must be positive and finite")


@dataclass(frozen=True)
class WellSolution:
    """Ground state of one well: energy, wave numbers, matching residual."""

    energy_eq: float  # eV
    k_in: float       # nm^-1
    k_out: float      # nm^-1, decay constant in the barrier
    residual: float   # |mismatch| of the matching equation at the root


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


def infinite_well_reference(
    thickness_t: float, m_in: float, hbar2_over_2m0: float = HBAR2_OVER_2M0
) -> float:
    """Ground-state energy of the infinite-barrier well, eV (limit check)."""
    if not (thickness_t > 0.0 and m_in > 0.0):
        raise ValueError("thickness and mass must be positive")
    return math.pi**2 * hbar2_over_2m0 / (m_in * thickness_t**2)


def ground_state(cfg: WellConfig, hbar2_over_2m0: float = HBAR2_OVER_2M0) -> WellSolution:
    """Solve for the even ground state of the well.

    Bisection runs to machine precision; the 1e-12 eV nominal tolerance is
    always exceeded.  The energy where k_in t/2 hits pi/2 equals the
    infinite-barrier energy, which caps the bracket together with V0.
    """
    cap = min(cfg.barrier_v0, infinite_well_reference(cfg.thickness_t, cfg.m_in, hbar2_over_2m0))
    # relative offsets keep the bracket valid for arbitrarily wide wells,
    # where the branch ceiling itself is far below any absolute epsilon
    res = bisect_root(
        lambda e: matching_mismatch(cfg, e, hbar2_over_2m0),
        cap * 1e-12,
        cap * (1.0 - 1e-12),
    )
    energy = res.root
    k_in = math.sqrt(energy * cfg.m_in / hbar2_over_2m0)
    k_out = math.sqrt((cfg.barrier_v0 - energy) * cfg.m_out / hbar2_over_2m0)
    return WellSolution(
        energy_eq=energy,
        k_in=k_in,
        k_out=k_out,
        residual=abs(matching_mismatch(cfg, energy, hbar2_over_2m0)),
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


def eq_vs_thickness(
    valley: Valley, params: MaterialParams, t_grid: list[float]
) -> list[tuple[float, float]]:
    """Confinement energy of one valley over a thickness grid, (t, E_q) pairs."""
    if not t_grid:
        raise ValueError("thickness grid must be non-empty")
    if any(t <= 0.0 for t in t_grid):
        raise ValueError("thickness grid values must be positive")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("thickness grid must be strictly ascending")
    k = params.constants.hbar2_over_2m0
    return [
        (t, ground_state(well_config(valley, params, t), k).energy_eq) for t in t_grid
    ]
