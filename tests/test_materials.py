import copy
import math
import pickle

import pytest

from lvalley import (
    BandEdges,
    DeformationPotentials,
    EffectiveMasses,
    ElasticConstants,
    LatticeParams,
    PhysicalConstants,
    Valley,
    default_params,
    perp_strain_ratio,
    replace,
    table1_labels,
    table1_set,
)
from lvalley.materials import MaterialParams


def test_default_values_exact():
    p = default_params()
    assert p.elastic.c11 == 165.7
    assert p.elastic.c12 == 63.9
    assert p.elastic.c44 == 79.6
    assert p.deformation.xi_u_delta == 9.16
    assert p.deformation.xi_d_delta == 1.10
    assert p.deformation.xi_u_L == 16.14
    assert p.deformation.xi_d_L == -6.00
    assert p.quadratic.d_L1 == -22.5
    assert p.quadratic.d_L3 == -15.0
    assert p.quadratic.d_delta6 == -10.0
    assert p.lattice.a_si == 5.4307
    assert p.lattice.a_ge == 5.6575
    assert p.lattice.bowing_b == -0.0273
    assert p.bands.e0_L == 2.10
    assert p.bands.e0_delta == 1.17
    assert p.bands.v0_offset_111 == 0.28
    assert p.constants.burgers_si == 0.384


def test_masses_lookup():
    p = default_params()
    assert p.masses(Valley.L1) == EffectiveMasses(1.70, 1.59)
    assert p.masses(Valley.L3).m_in == 0.13
    assert p.masses(Valley.DELTA6).m_in == 0.26
    assert all(p.masses(v).m_out == 1.59 for v in Valley)


def test_hbar_constant_close_to_reference():
    p = default_params()
    assert p.constants.hbar2_over_2m0 == pytest.approx(0.0381, rel=1e-3)


def test_defaults_bit_stable_across_constructions():
    # pure literals, no recomputation: repeated construction compares equal
    assert default_params() == default_params()


def test_table1_fischetti():
    dp = table1_set("fischetti1996")
    assert (dp.xi_u_delta, dp.xi_d_delta, dp.xi_u_L, dp.xi_d_L) == (10.5, 1.1, 18.0, -7.0)


def test_table1_vandewalle_is_default():
    assert table1_set("vandewalle1986") == default_params().deformation


def test_table1_labels_complete_sets_only():
    assert set(table1_labels()) == {
        "vandewalle1986",
        "friedel1989",
        "fischetti1996",
        "rideau2006",
    }


def test_table1_unknown_label_lists_valid():
    with pytest.raises(ValueError, match="vandewalle1986"):
        table1_set("nosuchpaper")


def test_elastic_constants_validation():
    with pytest.raises(ValueError):
        ElasticConstants(c11=-1.0, c12=63.9, c44=79.6)
    with pytest.raises(ValueError, match="finite"):
        ElasticConstants(c11=math.inf, c12=63.9, c44=79.6)
    with pytest.raises(ValueError, match="c11 > c12"):
        ElasticConstants(c11=50.0, c12=63.9, c44=79.6)


def test_elastic_constants_that_overflow_the_111_ratio_are_rejected():
    # 2 C11 overflows the numerator of the ratio, 4 C44 both sums
    for c11, c44 in ((1e308, 79.6), (165.7, 1e308)):
        with pytest.raises(ValueError, match=r"overflow the \(111\) strain ratio"):
            ElasticConstants(c11=c11, c12=63.9, c44=c44)
    # large but representable sums keep the ratio finite
    assert perp_strain_ratio(ElasticConstants(c11=165.7, c12=63.9, c44=4e307)) == 1.0


def test_elastic_constants_keep_their_111_ratio_through_copies_and_replace():
    def closed_form(c):
        return -(2.0 * c.c11 + 4.0 * c.c12 - 4.0 * c.c44) / (c.c11 + 2.0 * c.c12 + 4.0 * c.c44)

    elastic = default_params().elastic
    for twin in (
        elastic, pickle.loads(pickle.dumps(elastic)), copy.copy(elastic), copy.deepcopy(elastic),
        replace(elastic, c44=70.0), ElasticConstants(c11=1.0, c12=5e-324, c44=1e-300),
    ):
        assert perp_strain_ratio(twin) == closed_form(twin)
    # the kept ratio is no field
    assert repr(elastic) == "ElasticConstants(c11=165.7, c12=63.9, c44=79.6)"
    assert elastic.__reduce__() == (ElasticConstants, (165.7, 63.9, 79.6))


def test_deformation_potentials_validation():
    with pytest.raises(ValueError):
        DeformationPotentials(xi_u_delta=-9.16, xi_d_delta=1.1, xi_u_L=16.14, xi_d_L=-6.0)
    # every field, including the signed dilatational ones the positivity
    # check never reads, must be finite
    good = dict(xi_u_delta=9.16, xi_d_delta=1.1, xi_u_L=16.14, xi_d_L=-6.0)
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                DeformationPotentials(**{**good, name: bad})


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeParams(a_si=5.6575, a_ge=5.4307, bowing_b=-0.0273)
    with pytest.raises(ValueError):
        LatticeParams(a_si=5.4307, a_ge=5.6575, bowing_b=-0.5)
    with pytest.raises(ValueError, match="finite"):
        LatticeParams(a_si=5.4307, a_ge=math.inf, bowing_b=-0.0273)
    for a_si in (0.0, -0.0, -1.0, -1e308):
        with pytest.raises(ValueError, match="a_si must be positive"):
            LatticeParams(a_si=a_si, a_ge=5.6575, bowing_b=-0.0273)
    # (a_ge - a_si + b)**2 or (a_ge - a_si - b)**2 overflows the Vegard discriminant
    for a_ge, b in ((1e200, -0.0273), (1.4e154, 0.0), (1.2e154, 3e153), (1.2e154, -3e153)):
        with pytest.raises(ValueError, match="overflow the Vegard discriminant"):
            LatticeParams(a_si=5.4307, a_ge=a_ge, bowing_b=b)
    assert LatticeParams(a_si=1e-300, a_ge=1.1e154, bowing_b=-1e153).a_ge == 1.1e154


def test_band_edges_validation():
    with pytest.raises(ValueError):
        BandEdges(e0_L=1.0, e0_delta=1.17, v0_offset_111=0.28)
    with pytest.raises(ValueError):
        BandEdges(e0_L=2.10, e0_delta=1.17, v0_offset_111=0.0)
    with pytest.raises(ValueError, match="finite"):
        BandEdges(e0_L=math.inf, e0_delta=1.17, v0_offset_111=0.28)


def test_physical_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar2_over_2m0=0.04)
    with pytest.raises(ValueError, match="finite"):
        PhysicalConstants(hbar2_over_2m0=math.nan)
    with pytest.raises(ValueError, match="finite"):
        EffectiveMasses(m_in=0.26, m_out=math.inf)


def test_mixed_barrier_masses_rejected():
    p = default_params()
    fields = {
        "elastic": p.elastic,
        "deformation": p.deformation,
        "quadratic": p.quadratic,
        "lattice": p.lattice,
        "bands": p.bands,
        "constants": p.constants,
        "masses_l1": EffectiveMasses(1.70, 1.59),
        "masses_l3": EffectiveMasses(0.13, 1.40),
        "masses_delta6": EffectiveMasses(0.26, 1.59),
    }
    with pytest.raises(ValueError, match="m_out"):
        MaterialParams(**fields)
