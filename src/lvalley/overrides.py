"""Dotted-key parameter overrides: ``--set``, ``--dp-set`` and ``--config`` files.

Each numeric field of a parameter group is addressed as ``group.field``
(``deformation.xi_u_L``), a well-layer mass as ``masses.<valley>.m_in``
and the one barrier mass as ``masses.m_out``; ``deformation.set`` selects
a whole literature deformation-potential set by label.  The command line
imports this module only when one of those three flags is given.
"""

from __future__ import annotations

import os

from .errors import UsageError
from .materials import MaterialParams, replace, table1_set

_MASS_SEGMENTS = {"L1": "masses_l1", "L3": "masses_l3", "Delta6": "masses_delta6"}
_GROUP_FIELDS = ("elastic", "deformation", "quadratic", "lattice", "bands", "constants")


def _key_table(params: MaterialParams) -> dict[str, tuple[tuple[str, ...], str]]:
    """Each numeric override key -> (the MaterialParams fields it replaces, the field it sets)."""
    table = {}
    for group in _GROUP_FIELDS:
        obj = getattr(params, group)
        for name in obj.__slots__:
            if isinstance(getattr(obj, name), float):
                table[f"{group}.{name}"] = ((group,), name)
    table.update({f"masses.{seg}.m_in": ((attr,), "m_in") for seg, attr in _MASS_SEGMENTS.items()})
    # the barrier mass is one value shared by every valley
    table["masses.m_out"] = (tuple(_MASS_SEGMENTS.values()), "m_out")
    return table


def override_keys(params: MaterialParams) -> list[str]:
    """All dotted keys accepted by overrides, for error messages and docs."""
    return ["deformation.set", *_key_table(params)]


def apply_override(params: MaterialParams, key: str, raw_value: str) -> MaterialParams:
    """Apply one dotted-key override, e.g. ``deformation.xi_u_L = 16.14``.

    ``deformation.set`` selects a whole literature deformation-potential set
    by label; every other key takes a number.  An unknown key or a value
    the parameter set rejects is a usage error that names the key.
    """
    table = _key_table(params)
    if key not in table and key != "deformation.set":
        valid = ", ".join(override_keys(params))
        raise UsageError(f"unknown override key {key!r}; valid keys: {valid}")
    try:
        if key == "deformation.set":
            return replace(params, deformation=table1_set(raw_value))
        try:
            value = float(raw_value)
        except ValueError:
            raise UsageError(f"override {key!r}: {raw_value!r} is not a number") from None
        attrs, field = table[key]
        return replace(params, **{a: replace(getattr(params, a), **{field: value}) for a in attrs})
    except ValueError as err:
        raise UsageError(f"override {key!r} = {raw_value}: {err}") from None


def read_config(path: str | os.PathLike) -> list[tuple[str, str]]:
    """Parse a flat ``key = value`` config file with ``#`` comments; a UTF-8 BOM is skipped."""
    pairs: list[tuple[str, str]] = []
    try:
        # decoded as plain UTF-8 so an error's offset counts the BOM's bytes too
        with open(path, encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise UsageError(f"cannot read config file {path}: invalid UTF-8 at byte {err.start}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs
