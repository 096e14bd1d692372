"""``lvalley crossover``: critical strain and Ge fraction vs thickness."""

from ..cli import _feasible, _grid


def rows(params, ns):
    from .. import design

    results = _feasible(*design.crossover_curve(params, _grid(ns, "t")))
    rows = [(r.thickness_t, r.eps_critical, r.x_critical) for r in results]
    return ["t_nm", "eps_critical", "x_critical"], rows
