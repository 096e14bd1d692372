"""``lvalley hc``: People-Bean critical thickness vs Ge fraction."""

from ..cli import _feasible, _grid
from ..errors import sweep


def rows(params, ns):
    from .. import relaxation

    x_grid = _grid(ns, "x")
    if any(not 0.05 <= x <= 1.0 for x in x_grid):
        raise ValueError("Ge-fraction grid must lie within [0.05, 1]")
    elastic, b = params.elastic, params.constants.burgers_si

    def point(x):
        r = relaxation.critical_thickness(relaxation.RelaxationInput(x, elastic, b))
        return x, r.misfit_f, r.nu_111, r.h_c

    return ["x", "f", "nu_111", "h_c_nm"], _feasible(*sweep(point, x_grid, "x = {:.9g}"))
