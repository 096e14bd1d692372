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
"""

from .design import (
    CrossoverResult,
    SensitivityBand,
    Splitting,
    confinement_energies,
    critical_strain,
    crossover_curve,
    sensitivity_band,
    sensitivity_curve,
    splitting_report,
    strain_to_x,
    x_to_strain,
)
from .elasticity import perp_strain_ratio, strain_state
from .errors import InfeasibleError, SolverError
from .materials import (
    BURGERS_SI_NM,
    HBAR2_OVER_2M0,
    BandEdges,
    DeformationPotentials,
    EffectiveMasses,
    ElasticConstants,
    LatticeParams,
    MaterialParams,
    PhysicalConstants,
    QuadraticCoefficients,
    Record,
    Valley,
    default_params,
    replace,
    table1_labels,
    table1_set,
)
from .relaxation import (
    CriticalThickness,
    RelaxationInput,
    critical_thickness,
    poisson_111,
)
from .valleys import bulk_energy, bulk_levels, linear_shift, valley_coefficients
from .well import (
    WellConfig,
    WellSolution,
    ground_state,
    matching_mismatch,
    solve_well,
    well_config,
)

__version__ = "0.3.0"
