"""The record contract: every exported record class behaves as a frozen, validated value.

Construction by position and by keyword, defaults, immutability, validation
on construction and on ``replace``, type-strict equality, hashing, ``repr``,
pickling and copying.  The pinned ``repr`` and defaults are those of the
earlier frozen-dataclass records, so a change of either is a visible break.
"""

import copy
import pickle

import pytest

import lvalley
from lvalley import (
    BURGERS_SI_NM,
    HBAR2_OVER_2M0,
    DeformationPotentials,
    EffectiveMasses,
    PhysicalConstants,
    Record,
    RelaxationInput,
    SensitivityBand,
    StrainState,
    Valley,
    ValleyEnergy,
    bulk_energy,
    critical_strain,
    critical_thickness,
    default_params,
    ground_state,
    replace,
    sensitivity_band,
    splitting_report,
    strain_state,
    well_config,
)
from lvalley.relaxation import DEFAULT_MISFIT_SLOPE
from lvalley.rootfind import BisectResult

P = default_params()

EXAMPLES = [
    P,
    P.elastic,
    P.deformation,
    P.quadratic,
    P.lattice,
    P.bands,
    P.constants,
    P.masses_l1,
    strain_state(P.elastic, 0.03),
    bulk_energy(Valley.L3, P, 0.03),
    well_config(Valley.L1, P, 3.0),
    ground_state(well_config(Valley.L1, P, 3.0)),
    critical_strain(P, 3.0),
    sensitivity_band(P, [3.0], "both")[0],
    splitting_report(P, 3.0, 1.0),
    RelaxationInput(0.94, P.elastic, misfit_slope=0.0417),
    critical_thickness(RelaxationInput(0.94, P.elastic)),
    BisectResult(1.0, 0.0, 3, 0.5, 1.5),
]

# The defaults of the classes that have any, as the frozen dataclasses had them.
DEFAULTS = {
    DeformationPotentials: {"source_label": ""},
    PhysicalConstants: {"hbar2_over_2m0": HBAR2_OVER_2M0, "burgers_si": BURGERS_SI_NM},
    RelaxationInput: {"burgers_b": BURGERS_SI_NM, "misfit_slope": DEFAULT_MISFIT_SLOPE},
    SensitivityBand: {"clipped": False},
    ValleyEnergy: {"eq": 0.0},
}

DEFAULT_PARAMS_REPR = (
    "MaterialParams(elastic=ElasticConstants(c11=165.7, c12=63.9, c44=79.6), "
    "deformation=DeformationPotentials(xi_u_delta=9.16, xi_d_delta=1.1, xi_u_L=16.14, "
    "xi_d_L=-6.0, source_label='vandewalle1986'), "
    "quadratic=QuadraticCoefficients(d_L1=-22.5, d_L3=-15.0, d_delta6=-10.0), "
    "lattice=LatticeParams(a_si=5.4307, a_ge=5.6575, bowing_b=-0.0273), "
    "bands=BandEdges(e0_L=2.1, e0_delta=1.17, v0_offset_111=0.28), "
    "constants=PhysicalConstants(hbar2_over_2m0=0.0380998211148596, burgers_si=0.384), "
    "masses_l1=EffectiveMasses(m_in=1.7, m_out=1.59), "
    "masses_l3=EffectiveMasses(m_in=0.13, m_out=1.59), "
    "masses_delta6=EffectiveMasses(m_in=0.26, m_out=1.59))"
)


def _values(record):
    return tuple(getattr(record, name) for name in record.__slots__)


def _id(record):
    return type(record).__name__


def test_examples_cover_every_exported_record_class():
    exported = {
        obj
        for obj in vars(lvalley).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    }
    assert {type(r) for r in EXAMPLES} == exported | {BisectResult}
    assert set(DEFAULTS) == {cls for cls in exported if cls._defaults}


@pytest.mark.parametrize("record", EXAMPLES, ids=_id)
def test_position_and_keyword_construction_agree(record):
    cls, values = type(record), _values(record)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    assert by_position == by_keyword == record
    assert _values(by_keyword) == values
    with pytest.raises(TypeError):
        cls(*values, 0.0)


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
def test_defaults_apply(cls):
    record = next(r for r in EXAMPLES if type(r) is cls)
    required = {
        name: getattr(record, name) for name in cls.__slots__ if name not in DEFAULTS[cls]
    }
    filled = cls(**required)
    for name, default in DEFAULTS[cls].items():
        assert getattr(filled, name) == default and type(getattr(filled, name)) is type(default)


@pytest.mark.parametrize("record", EXAMPLES, ids=_id)
def test_fields_cannot_be_assigned_or_deleted(record):
    before = _values(record)
    for name in (*record.__slots__, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == before


@pytest.mark.parametrize("record", EXAMPLES, ids=_id)
def test_replace_changes_one_field_and_rejects_unknown_names(record):
    first = record.__slots__[0]
    assert replace(record) == record
    assert replace(record, **{first: getattr(record, first)}) == record
    with pytest.raises(TypeError):
        replace(record, not_a_field=1.0)


def test_replace_validates():
    with pytest.raises(ValueError, match="effective masses must be strictly positive"):
        replace(P.masses_l1, m_in=-1)
    with pytest.raises(ValueError, match="m_out must be identical across valleys"):
        replace(P, masses_l1=replace(P.masses_l1, m_out=2.0))
    with pytest.raises(ValueError, match="deformation potentials must be finite"):
        replace(P.deformation, xi_u_L=float("inf"))
    changed = replace(P.masses_l1, m_in=2.0)
    assert type(changed) is EffectiveMasses
    assert (changed.m_in, changed.m_out) == (2.0, P.masses_l1.m_out)
    assert P.masses_l1.m_in == 1.70  # the original is untouched


@pytest.mark.parametrize("record", EXAMPLES, ids=_id)
def test_equal_records_hash_equal(record):
    twin = type(record)(*_values(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(_values(record))
    assert len({record, twin}) == 1


def test_equality_is_strict_about_the_class():
    masses, strain = EffectiveMasses(0.5, 1.5), StrainState(0.5, 1.5)
    assert masses != strain and not masses == strain
    assert masses.__eq__(strain) is NotImplemented
    assert masses != (0.5, 1.5)
    assert masses != EffectiveMasses(0.5, 1.6)


@pytest.mark.parametrize("record", EXAMPLES, ids=_id)
def test_pickle_and_copy_round_trip(record):
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_repr_of_the_default_parameters_is_pinned():
    assert repr(default_params()) == DEFAULT_PARAMS_REPR
    assert repr(StrainState(0.5, 1.5)) == "StrainState(eps_par=0.5, eps_perp=1.5)"
