"""Bracketed bisection used by the finite-well and critical-thickness solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import SolverError


@dataclass(frozen=True)
class BisectResult:
    root: float
    value: float       # f(root)
    iterations: int
    lo: float          # final bracket
    hi: float


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 0.0,
    max_iter: int = 256,
) -> BisectResult:
    """Find a root of ``f`` inside the sign-changing bracket [lo, hi].

    With ``xtol = 0`` the bracket is shrunk until no representable midpoint
    remains, i.e. to machine precision; otherwise iteration stops once
    ``hi - lo <= xtol``.  Raises :class:`SolverError` if the bracket does
    not change sign or the iteration cap is hit.
    """
    if not hi > lo:
        raise SolverError(f"empty bracket [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return BisectResult(lo, 0.0, 0, lo, lo)
    if fhi == 0.0:
        return BisectResult(hi, 0.0, 0, hi, hi)
    if (flo < 0.0) == (fhi < 0.0):
        raise SolverError(
            f"no sign change over [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    for i in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return BisectResult(mid, f(mid), i, lo, hi)
        fm = f(mid)
        if fm == 0.0:
            return BisectResult(mid, 0.0, i, mid, mid)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if xtol > 0.0 and (hi - lo) <= xtol:
            root = 0.5 * (lo + hi)
            return BisectResult(root, f(root), i, lo, hi)
    raise SolverError(
        f"bisection did not converge after {max_iter} iterations; "
        f"bracket [{lo}, {hi}], f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
    )
