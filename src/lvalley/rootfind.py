"""Bracket-safeguarded Newton solver for any sign-changing bracket.

This is ``rtsafe`` of Press et al., Numerical Recipes, section 9.4: Newton
steps on a sign-changing bracket, with a bisection step whenever the Newton
step would leave the bracket or the derivative vanishes.  The function and
its derivative come from one callable, so a caller whose value and slope
share costly terms evaluates them once per iterate.

The finite-well solver runs the same iteration as an in-place loop
(:func:`lvalley.well.solve_well`), where the bracket-end signs are known and
no callable is needed; :func:`bisect_root`, given the same start ``x0``, is
its reference in the tests, and ``STEP_RTOL``, kept beside that loop, is the
stopping rule both share.
"""

from __future__ import annotations

from typing import Callable

from .errors import SolverError
from .materials import Record
from .well import STEP_RTOL


class BisectResult(Record):
    """The root, f(root), the iteration count and the final bracket [lo, hi]."""

    __slots__ = ("root", "value", "iterations", "lo", "hi")


def bisect_root(
    fdf: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    max_iter: int = 256,
    x0: float | None = None,
) -> BisectResult:
    """Find a root of f inside the sign-changing bracket [lo, hi].

    ``fdf(x)`` returns the pair (f(x), f'(x)).  The iteration starts at
    ``x0`` if it lies strictly inside the bracket, else at the midpoint.
    Each iteration takes the Newton step from the current point when it
    lands strictly inside the bracket and halves the bracket otherwise; the
    bracket shrinks around the root either way.  It stops once the Newton
    step is within a few ulp of the iterate (tested before the bracket, so a
    converged step that rounds onto a bracket end does not fall back to
    bisection), or when no representable midpoint remains.  Raises
    :class:`SolverError` if the bracket is empty, does not change sign, or
    the iteration cap is hit.
    """
    if not hi > lo:
        raise SolverError(f"empty bracket [{lo}, {hi}]")
    flo = fdf(lo)[0]
    fhi = fdf(hi)[0]
    if flo == 0.0:
        return BisectResult(lo, 0.0, 0, lo, lo)
    if fhi == 0.0:
        return BisectResult(hi, 0.0, 0, hi, hi)
    rising = flo < 0.0
    if rising == (fhi < 0.0):
        raise SolverError(
            f"no sign change over [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    for i in range(1, max_iter + 1):
        fx, slope = fdf(x)
        if fx == 0.0:
            return BisectResult(x, 0.0, i, x, x)
        if (fx < 0.0) == rising:
            lo = x
        else:
            hi = x
        if slope != 0.0:
            step = fx / slope
            if abs(step) <= STEP_RTOL * abs(x):
                return BisectResult(x, fx, i, lo, hi)
            x_new = x - step
            if lo < x_new < hi:
                x = x_new
                continue
        x = 0.5 * (lo + hi)
        if x == lo or x == hi:
            return BisectResult(x, fdf(x)[0], i, lo, hi)
    raise SolverError(
        f"root search did not converge after {max_iter} iterations; "
        f"bracket [{lo}, {hi}]"
    )
