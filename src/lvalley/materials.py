"""Material constants and literature parameter sets.

Single source of the physical numbers used by every other module.  Units
are fixed library-wide: energies in eV, lengths in nm (lattice constants
in Angstrom at the boundary), elastic stiffness in GPa, strain
dimensionless, effective masses in units of the free-electron mass m0.

All containers are immutable :class:`Record` instances, safe to share
across threads; :func:`replace` derives a changed, re-validated copy.
"""

from __future__ import annotations

import math
from enum import Enum

# hbar^2 / (2 m0) in eV nm^2, evaluated once from CODATA 2018 values
# (hbar = 1.054571817e-34 J s, m0 = 9.1093837015e-31 kg,
# e = 1.602176634e-19 C) and hard-coded for bit-stable outputs.
HBAR2_OVER_2M0 = 0.0380998211148596

# Burgers vector magnitude of the a/2<110> dislocation in Si, nm.
BURGERS_SI_NM = 0.384


def _require_finite(what: str, *values: float) -> None:
    """Reject NaN and infinite parameters, which no physics routine handles."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite")


class Record:
    """Immutable record whose fields are the subclass's ``__slots__``.

    Each subclass gets an ``__init__`` that takes the fields by position or
    keyword, fills the ones left out from the class's ``_defaults`` and ends
    in the class's ``_check``, which raises ``ValueError`` on a bad value.
    It stores each field through the ``__set__`` of that slot's member
    descriptor, bound once per class: this skips the record's refusing
    ``__setattr__`` and the by-name attribute lookup of
    ``object.__setattr__``.
    ``repr`` is ``Name(field=value, ...)``; records are equal only to
    records of the same class with equal fields, and hash as their field
    tuple.  Defining records this way imports nothing, which keeps a
    command-line start short.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        names = cls.__slots__
        params = ", ".join(n if n not in cls._defaults else f"{n}=_defaults[{n!r}]" for n in names)
        body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
        if cls._check is not Record._check:
            body += "\n    self._check()"
        namespace = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
        namespace["_defaults"] = cls._defaults
        exec(f"def __init__(self, {params}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _check(self) -> None:
        """Validate the fields; a record without constraints keeps this no-op."""

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


def replace(record: Record, **changes) -> Record:
    """Copy of ``record`` with ``changes`` applied, validated as a new record.

    A name that is not a field raises ``TypeError``.
    """
    return type(record)(**{**{n: getattr(record, n) for n in record.__slots__}, **changes})


class Valley(Enum):
    """Conduction-band valleys of biaxially strained Si(111).

    Under (111) biaxial tension the fourfold L degeneracy splits into the
    non-degenerate ground level L1 and the threefold excited level L3; the
    sixfold Delta set stays degenerate and is labelled Delta6.
    """

    L1 = "L1"
    L3 = "L3"
    DELTA6 = "Delta6"


_VALLEY_INDEX = {v: i for i, v in enumerate(Valley)}


def _valley_index(valley: Valley) -> int:
    """Position of ``valley`` in (L1, L3, Delta6), the order of every per-valley tuple.

    Anything but a member, its name or value as a string included, is a
    ValueError that names the members.
    """
    try:
        return _VALLEY_INDEX[valley]
    except (KeyError, TypeError):
        members = ", ".join(f"Valley.{v.name}" for v in Valley)
        raise ValueError(f"valley must be one of {members}, got {valley!r}") from None


class _Memo:
    """A slot for derived constants, declared here so a record's ``__slots__`` stay its fields."""

    __slots__ = ("_memo",)


_set_memo = _Memo._memo.__set__


class ElasticConstants(Record, _Memo):
    """Cubic elastic stiffness constants, GPa.

    ``_memo`` keeps their (111) ratio eps_perp / eps_par, which is no field.
    """

    __slots__ = ("c11", "c12", "c44")

    def _check(self):
        _require_finite("elastic constants", self.c11, self.c12, self.c44)
        if not (self.c11 > 0.0 and self.c12 > 0.0 and self.c44 > 0.0):
            raise ValueError("elastic constants must be strictly positive")
        if not self.c11 > self.c12:
            raise ValueError("cubic stability requires c11 > c12")
        # the two sums of the (111) ratio eps_perp / eps_par, -(C'_3311 + C'_3322) / C'_3333
        numer = 2.0 * self.c11 + 4.0 * self.c12 - 4.0 * self.c44
        denom = self.c11 + 2.0 * self.c12 + 4.0 * self.c44
        if not (math.isfinite(numer) and math.isfinite(denom)):
            raise ValueError("elastic constants overflow the (111) strain ratio")
        # the generated __init__ ends here: every new or replaced record keeps its own ratio
        _set_memo(self, -numer / denom)


class DeformationPotentials(Record):
    """Dilatational (xi_d) and uniaxial (xi_u) deformation potentials, eV."""

    __slots__ = ("xi_u_delta", "xi_d_delta", "xi_u_L", "xi_d_L", "source_label")
    _defaults = {"source_label": ""}

    def _check(self):
        _require_finite(
            "deformation potentials", self.xi_u_delta, self.xi_d_delta, self.xi_u_L, self.xi_d_L
        )
        if not (self.xi_u_delta > 0.0 and self.xi_u_L > 0.0):
            raise ValueError("uniaxial deformation potentials must be positive")


class QuadraticCoefficients(Record):
    """Reduced second-order coefficients of the in-plane strain, eV.

    The energy contribution is d * eps_par**2 per valley; only the reduced
    scalar form is available in the literature, not a full rank-4 tensor.
    """

    __slots__ = ("d_L1", "d_L3", "d_delta6")

    def _check(self):
        _require_finite("quadratic coefficients", self.d_L1, self.d_L3, self.d_delta6)


class EffectiveMasses(Record):
    """Out-of-plane effective masses inside/outside the well, m0 units."""

    __slots__ = ("m_in", "m_out")

    def _check(self):
        _require_finite("effective masses", self.m_in, self.m_out)
        if not (self.m_in > 0.0 and self.m_out > 0.0):
            raise ValueError("effective masses must be strictly positive")


class LatticeParams(Record, _Memo):
    """Si and Ge lattice constants and the alloy bowing term, Angstrom.

    ``_memo`` keeps the Vegard constants of design.strain_to_x, which are no
    field: a_si, a_ge - a_si, B = a_ge - a_si + b, B**2, 4 b, (a_ge - a_si) / a_si.
    """

    __slots__ = ("a_si", "a_ge", "bowing_b")

    def _check(self):
        _require_finite("lattice parameters", self.a_si, self.a_ge, self.bowing_b)
        if not 0.0 < self.a_si < self.a_ge:
            raise ValueError("a_si must be positive and a_ge must exceed it")
        if not abs(self.bowing_b) < (self.a_ge - self.a_si):
            raise ValueError("bowing term must be small against a_ge - a_si")
        # design.strain_to_x's discriminant runs from (a_ge - a_si + b)**2 to (a_ge - a_si - b)**2
        lin = (self.a_ge - self.a_si) + abs(self.bowing_b)
        if not math.isfinite(lin * lin):
            raise ValueError("lattice parameters overflow the Vegard discriminant")
        # the generated __init__ ends here: every new or replaced record keeps its own constants
        a_si, diff, b = self.a_si, self.a_ge - self.a_si, self.bowing_b
        _set_memo(self, (a_si, diff, diff + b, (diff + b) * (diff + b), 4.0 * b, diff / a_si))


class BandEdges(Record):
    """Unstrained 0 K conduction-band edges and the (111) well offset, eV."""

    __slots__ = ("e0_L", "e0_delta", "v0_offset_111")

    def _check(self):
        _require_finite("band edges", self.e0_L, self.e0_delta, self.v0_offset_111)
        if not self.e0_L > self.e0_delta:
            raise ValueError("unstrained Si must have the L edge above Delta")
        if not self.v0_offset_111 > 0.0:
            raise ValueError("well offset must be positive")


class PhysicalConstants(Record):
    """hbar^2 / (2 m0) in eV nm^2 and the Si Burgers vector in nm."""

    __slots__ = ("hbar2_over_2m0", "burgers_si")
    _defaults = {"hbar2_over_2m0": HBAR2_OVER_2M0, "burgers_si": BURGERS_SI_NM}

    def _check(self):
        _require_finite("physical constants", self.hbar2_over_2m0, self.burgers_si)
        if abs(self.hbar2_over_2m0 / 0.0381 - 1.0) > 1e-3:
            raise ValueError("hbar2_over_2m0 must stay within 0.1% of 0.0381 eV nm^2")
        if not self.burgers_si > 0.0:
            raise ValueError("Burgers vector must be positive")


class MaterialParams(Record, _Memo):
    """Complete parameter set consumed by the physics modules.

    Each field is one of the records above, in their order; ``masses_*``
    are the EffectiveMasses of each valley.  The set also keeps the few
    constants that :meth:`_derive` computes from it; they are no field, so
    ``repr``, equality, hashing, pickling and :func:`replace` ignore them.
    """

    __slots__ = (
        "elastic", "deformation", "quadratic", "lattice", "bands", "constants",
        "masses_l1", "masses_l3", "masses_delta6",
    )

    def _check(self):
        # one barrier material: the outside mass cannot differ per valley
        if not (self.masses_l1.m_out == self.masses_l3.m_out == self.masses_delta6.m_out):
            raise ValueError("m_out must be identical across valleys")
        # the generated __init__ ends here: every new or replaced set starts empty
        _set_memo(self, {})

    def _derive(self, fn, arg=None):
        """``fn(self)``, computed on first use and kept by this set; ``fn(self, arg)`` if arg is not None.

        Only for per-set constants: the valley table of
        valleys.valley_coefficients, the well rows of well._well_table (one
        per valley, the ``row`` of well._solve(t, row)), the gap table of
        design._gap_table, which holds the same L1 and Delta6 rows, and the
        band table of design._extreme_corners per sensitivity mode, its one
        ``arg``.  No key holds a thickness or a Ge fraction; the key is
        ``fn`` alone, or ``(fn, arg)``.  A call that raises keeps nothing,
        and runs outside the miss handler, so its error carries no KeyError
        context.  Threads that race compute equal values, and setdefault
        hands each of them the first one stored.
        """
        key, args = (fn, ()) if arg is None else ((fn, arg), (arg,))
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            pass
        return memo.setdefault(key, fn(self, *args))

    def masses(self, valley: Valley) -> EffectiveMasses:
        return (self.masses_l1, self.masses_l3, self.masses_delta6)[_valley_index(valley)]


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
