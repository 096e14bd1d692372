import math

import pytest

from lvalley import SolverError
from lvalley.rootfind import STEP_RTOL, bisect_root


def _counted(fdf):
    """``fdf`` and a list that records each point it is evaluated at."""
    points = []

    def wrapped(x):
        points.append(x)
        return fdf(x)

    return wrapped, points


def test_rising_bracket_converges_by_newton():
    fdf, points = _counted(lambda x: (x * x - 2.0, 2.0 * x))
    res = bisect_root(fdf, 0.0, 2.0)
    assert abs(res.root - math.sqrt(2.0)) <= 4.0 * STEP_RTOL * math.sqrt(2.0)
    assert res.lo <= res.root <= res.hi
    assert res.iterations <= 8
    # one fused value-and-slope evaluation per iterate, plus the two ends
    assert len(points) == res.iterations + 2


def test_falling_bracket():
    res = bisect_root(lambda x: (math.cos(x), -math.sin(x)), 0.0, 3.0)
    assert res.root == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert abs(res.value) < 1e-15


@pytest.mark.parametrize(("lo", "hi", "root"), ((1.0, 2.0, 1.0), (0.0, 1.0, 1.0)))
def test_root_at_a_bracket_end(lo, hi, root):
    res = bisect_root(lambda x: (x - 1.0, 1.0), lo, hi)
    assert (res.root, res.value, res.iterations, res.lo, res.hi) == (root, 0.0, 0, root, root)


def test_bracket_without_sign_change_raises():
    with pytest.raises(SolverError, match="no sign change"):
        bisect_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0)
    with pytest.raises(SolverError, match="no sign change"):
        bisect_root(lambda x: (-1.0 - x * x, -2.0 * x), -1.0, 1.0)


@pytest.mark.parametrize(("lo", "hi"), ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)))
def test_empty_bracket_raises(lo, hi):
    with pytest.raises(SolverError, match="empty bracket"):
        bisect_root(lambda x: (x, 1.0), lo, hi)


def test_zero_derivative_falls_back_to_bisection():
    third = 1.0 / 3.0
    res = bisect_root(lambda x: (x - third, 0.0), 0.0, 1.0)
    # pure halving from [0, 1] until no representable midpoint remains
    assert res.iterations > 50
    assert res.lo <= third <= res.hi
    assert res.hi - res.lo <= math.ulp(third)
    assert abs(res.root - third) <= math.ulp(third)


def test_iteration_cap_raises():
    with pytest.raises(SolverError, match="did not converge after 5 iterations"):
        bisect_root(lambda x: (x - 1.0 / 3.0, 0.0), 0.0, 1.0, max_iter=5)
