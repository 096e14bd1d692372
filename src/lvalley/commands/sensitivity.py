"""``lvalley sensitivity``: critical-x envelopes under coefficient variation."""

from ..cli import _feasible, _grid


def rows(params, ns):
    from .. import design

    bands = _feasible(*design.sensitivity_curve(params, _grid(ns, "t"), ns.mode))
    rows = [(b.thickness_t, b.x_low, b.x_nominal, b.x_high, b.clipped) for b in bands]
    return ["t_nm", "x_low", "x_nominal", "x_high", "clipped"], rows
