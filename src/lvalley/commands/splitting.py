"""``lvalley splitting``: valley splittings at one (thickness, Ge fraction) point."""

from ..cli import _feasible
from ..errors import sweep


def rows(params, ns):
    from .. import design

    design.x_to_strain(ns.x, params.lattice)  # a bad Ge fraction is not named by thickness
    (s,) = _feasible(*sweep(lambda t: design.splitting_report(params, t, ns.x), [ns.t]))
    header = ["t_nm", "x", "delta6_minus_l1_ev", "l3_minus_l1_ev"]
    return header, [(ns.t, ns.x, s.delta6_minus_l1, s.l3_minus_l1)]
