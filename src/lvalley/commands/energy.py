"""``lvalley energy``: valley energies vs strain at one thickness."""

from ..cli import _feasible, _grid
from ..errors import UsageError, sweep


def rows(params, ns):
    from .. import design, valleys

    if ns.eps is not None and ns.x is not None:
        raise UsageError("give either --eps or --x, not both")
    eps_grid = [design.x_to_strain(ns.x, params.lattice)] if ns.x is not None else _grid(ns, "eps")
    # the one thickness is a one-point sweep, so a failure names it
    ((q_l1, q_l3, q_d6),) = _feasible(
        *sweep(lambda t: design.confinement_energies(params, t), [ns.t])
    )

    def point(e):
        b_l1, b_l3, b_d6 = valleys.bulk_levels(params, e)
        return e, b_l1 + q_l1, b_l3 + q_l3, b_d6 + q_d6

    header = ["eps_par", "e_l1_ev", "e_l3_ev", "e_delta6_ev"]
    return header, _feasible(*sweep(point, eps_grid, "eps = {:.9g}"))
