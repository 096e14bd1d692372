"""Material constants and literature parameter sets.

Single source of the physical numbers used by every other module.  Units
are fixed library-wide: energies in eV, lengths in nm (lattice constants
in Angstrom at the boundary), elastic stiffness in GPa, strain
dimensionless, effective masses in units of the free-electron mass m0.

All containers are frozen dataclasses and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# hbar^2 / (2 m0) in eV nm^2, evaluated once from CODATA 2018 values
# (hbar = 1.054571817e-34 J s, m0 = 9.1093837015e-31 kg,
# e = 1.602176634e-19 C) and hard-coded for bit-stable outputs.
HBAR2_OVER_2M0 = 0.0380998211148596

# Burgers vector magnitude of the a/2<110> dislocation in Si, nm.
BURGERS_SI_NM = 0.384


def _require_finite(what: str, *values: float) -> None:
    """Reject NaN and infinite parameters, which no physics routine handles."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


class Valley(Enum):
    """Conduction-band valleys of biaxially strained Si(111).

    Under (111) biaxial tension the fourfold L degeneracy splits into the
    non-degenerate ground level L1 and the threefold excited level L3; the
    sixfold Delta set stays degenerate and is labelled Delta6.
    """

    L1 = "L1"
    L3 = "L3"
    DELTA6 = "Delta6"


@dataclass(frozen=True)
class ElasticConstants:
    """Cubic elastic stiffness constants, GPa."""

    c11: float
    c12: float
    c44: float

    def __post_init__(self):
        _require_finite("elastic constants", self.c11, self.c12, self.c44)
        if not (self.c11 > 0.0 and self.c12 > 0.0 and self.c44 > 0.0):
            raise ValueError("elastic constants must be strictly positive")
        if not self.c11 > self.c12:
            raise ValueError("cubic stability requires c11 > c12")


@dataclass(frozen=True)
class DeformationPotentials:
    """Dilatational (xi_d) and uniaxial (xi_u) deformation potentials, eV."""

    xi_u_delta: float
    xi_d_delta: float
    xi_u_L: float
    xi_d_L: float
    source_label: str = ""

    def __post_init__(self):
        _require_finite(
            "deformation potentials", self.xi_u_delta, self.xi_d_delta, self.xi_u_L, self.xi_d_L
        )
        if not (self.xi_u_delta > 0.0 and self.xi_u_L > 0.0):
            raise ValueError("uniaxial deformation potentials must be positive")


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Reduced second-order coefficients of the in-plane strain, eV.

    The energy contribution is d * eps_par**2 per valley; only the reduced
    scalar form is available in the literature, not a full rank-4 tensor.
    """

    d_L1: float
    d_L3: float
    d_delta6: float

    def __post_init__(self):
        _require_finite("quadratic coefficients", self.d_L1, self.d_L3, self.d_delta6)

    def coefficient(self, valley: Valley) -> float:
        if valley is Valley.L1:
            return self.d_L1
        if valley is Valley.L3:
            return self.d_L3
        return self.d_delta6


@dataclass(frozen=True)
class EffectiveMasses:
    """Out-of-plane effective masses inside/outside the well, m0 units."""

    m_in: float
    m_out: float

    def __post_init__(self):
        _require_finite("effective masses", self.m_in, self.m_out)
        if not (self.m_in > 0.0 and self.m_out > 0.0):
            raise ValueError("effective masses must be strictly positive")


@dataclass(frozen=True)
class LatticeParams:
    """Si and Ge lattice constants and the alloy bowing term, Angstrom."""

    a_si: float
    a_ge: float
    bowing_b: float

    def __post_init__(self):
        _require_finite("lattice parameters", self.a_si, self.a_ge, self.bowing_b)
        if not self.a_ge > self.a_si:
            raise ValueError("a_ge must exceed a_si")
        if not abs(self.bowing_b) < (self.a_ge - self.a_si):
            raise ValueError("bowing term must be small against a_ge - a_si")


@dataclass(frozen=True)
class BandEdges:
    """Unstrained 0 K conduction-band edges and the (111) well offset, eV."""

    e0_L: float
    e0_delta: float
    v0_offset_111: float

    def __post_init__(self):
        _require_finite("band edges", self.e0_L, self.e0_delta, self.v0_offset_111)
        if not self.e0_L > self.e0_delta:
            raise ValueError("unstrained Si must have the L edge above Delta")
        if not self.v0_offset_111 > 0.0:
            raise ValueError("well offset must be positive")


@dataclass(frozen=True)
class PhysicalConstants:
    hbar2_over_2m0: float = HBAR2_OVER_2M0  # eV nm^2
    burgers_si: float = BURGERS_SI_NM       # nm

    def __post_init__(self):
        _require_finite("physical constants", self.hbar2_over_2m0, self.burgers_si)
        if abs(self.hbar2_over_2m0 / 0.0381 - 1.0) > 1e-3:
            raise ValueError("hbar2_over_2m0 must stay within 0.1% of 0.0381 eV nm^2")
        if not self.burgers_si > 0.0:
            raise ValueError("Burgers vector must be positive")


@dataclass(frozen=True)
class MaterialParams:
    """Complete parameter set consumed by the physics modules."""

    elastic: ElasticConstants
    deformation: DeformationPotentials
    quadratic: QuadraticCoefficients
    lattice: LatticeParams
    bands: BandEdges
    constants: PhysicalConstants
    masses_l1: EffectiveMasses
    masses_l3: EffectiveMasses
    masses_delta6: EffectiveMasses

    def __post_init__(self):
        # one barrier material: the outside mass cannot differ per valley
        if not (self.masses_l1.m_out == self.masses_l3.m_out == self.masses_delta6.m_out):
            raise ValueError("m_out must be identical across valleys")

    def masses(self, valley: Valley) -> EffectiveMasses:
        if valley is Valley.L1:
            return self.masses_l1
        if valley is Valley.L3:
            return self.masses_l3
        return self.masses_delta6


# Literature deformation-potential sets that provide all four values
# (sets missing any of the four are not selectable: the crossover
# computation needs the complete quadruple).
_TABLE1_SETS = {
    "vandewalle1986": DeformationPotentials(9.16, 1.10, 16.14, -6.00, "vandewalle1986"),
    "friedel1989": DeformationPotentials(8.47, 1.03, 12.35, -4.90, "friedel1989"),
    "fischetti1996": DeformationPotentials(10.5, 1.1, 18.0, -7.0, "fischetti1996"),
    "rideau2006": DeformationPotentials(9.01, 0.94, 15.1, -6.06, "rideau2006"),
}


def table1_labels() -> tuple[str, ...]:
    """Labels of the selectable deformation-potential sets."""
    return tuple(sorted(_TABLE1_SETS))


def table1_set(source_label: str) -> DeformationPotentials:
    """Look up a complete literature deformation-potential set by label."""
    try:
        return _TABLE1_SETS[source_label]
    except KeyError:
        valid = ", ".join(table1_labels())
        raise ValueError(
            f"unknown deformation-potential set {source_label!r}; valid labels: {valid}"
        ) from None


def default_params() -> MaterialParams:
    """The default parameter set.

    Elastic constants C11 = 165.7, C12 = 63.9, C44 = 79.6 GPa; the
    'vandewalle1986' deformation potentials; reduced quadratic coefficients
    (-22.5, -15.0, -10.0) eV; Si/Ge lattice constants with bowing; 0 K band
    edges E0(L) = 2.10 eV, E0(Delta6) = 1.17 eV and a 0.28 eV conduction
    band offset for the Ge/Si(111)/Ge well.
    """
    return MaterialParams(
        elastic=ElasticConstants(c11=165.7, c12=63.9, c44=79.6),
        deformation=_TABLE1_SETS["vandewalle1986"],
        quadratic=QuadraticCoefficients(d_L1=-22.5, d_L3=-15.0, d_delta6=-10.0),
        lattice=LatticeParams(a_si=5.4307, a_ge=5.6575, bowing_b=-0.0273),
        bands=BandEdges(e0_L=2.10, e0_delta=1.17, v0_offset_111=0.28),
        constants=PhysicalConstants(),
        masses_l1=EffectiveMasses(m_in=1.70, m_out=1.59),
        masses_l3=EffectiveMasses(m_in=0.13, m_out=1.59),
        masses_delta6=EffectiveMasses(m_in=0.26, m_out=1.59),
    )
