"""Valley-crossover design for biaxially strained SiGe/Si(111)/SiGe wells.

The library computes strain- and confinement-shifted conduction-band valley
energies (L1, L3, Delta6) of a thin Si(111) layer between Si(1-x)Ge(x)
barriers, locates the critical biaxial strain and Ge fraction where the L1
valley drops below Delta6, and checks plastic-relaxation feasibility with
the energy-balance critical-thickness model.

Typical use::

    import lvalley

    p = lvalley.default_params()
    res = lvalley.critical_strain(p, thickness_t=3.0)
    print(res.eps_critical, res.x_critical)

The ``lvalley`` console script emits the same quantities as CSV or
JSON-lines sweeps; the demos/ directory of the source tree walks through
each capability.

``import lvalley`` loads none of its submodules: each exported name is
imported from its submodule on first access (PEP 562) and kept here, so a
command-line start loads only the modules its command runs.
"""

import sys

__version__ = "0.3.0"

# Each exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "CrossoverResult", "SensitivityBand", "Splitting", "confinement_energies",
        "critical_strain", "crossover_curve", "sensitivity_band", "sensitivity_curve",
        "splitting_report", "strain_to_x", "x_to_strain",
    ), "design"),
    **dict.fromkeys(("perp_strain_ratio", "strain_state"), "elasticity"),
    **dict.fromkeys(("InfeasibleError", "SolverError"), "errors"),
    **dict.fromkeys((
        "BURGERS_SI_NM", "HBAR2_OVER_2M0", "BandEdges", "DeformationPotentials",
        "EffectiveMasses", "ElasticConstants", "LatticeParams", "MaterialParams",
        "PhysicalConstants", "QuadraticCoefficients", "Record", "Valley", "default_params",
        "replace", "table1_labels", "table1_set",
    ), "materials"),
    **dict.fromkeys(
        ("CriticalThickness", "RelaxationInput", "critical_thickness", "poisson_111"), "relaxation"
    ),
    **dict.fromkeys(("bulk_energy", "bulk_levels", "linear_shift", "valley_coefficients"), "valleys"),
    **dict.fromkeys((
        "WellConfig", "WellSolution", "ground_state", "matching_mismatch", "solve_well",
        "well_config",
    ), "well"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def _submodule(name):
    """``lvalley.<name>``, imported on first use; ``importlib`` is not loaded for it."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    """An export, imported from its submodule and kept; or a submodule by name."""
    if name in _SUBMODULES:
        return _submodule(name)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_submodule(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
