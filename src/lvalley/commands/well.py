"""``lvalley well``: confinement energy vs thickness, of one valley or of each."""

from ..cli import _feasible, _grid
from ..errors import sweep
from ..materials import Valley


def rows(params, ns):
    t_grid = _grid(ns, "t")
    if ns.valley is not None:
        from .. import well

        m = params.masses(Valley(ns.valley))
        v0, k = params.bands.v0_offset_111, params.constants.hbar2_over_2m0

        def point(t):
            return t, well.solve_well(t, v0, m.m_in, m.m_out, k)[0]

        header = ["t_nm", "e_q_ev"]
    else:
        from .. import design

        def point(t):
            return t, *design.confinement_energies(params, t)

        # one column per valley, in Valley order as confinement_energies returns them
        header = ["t_nm"] + [f"e_q_{v.value.lower()}_ev" for v in Valley]
    return header, _feasible(*sweep(point, t_grid))
