import pytest

from lvalley.errors import InfeasibleError, SolverError, sweep

CAUSES = {
    2.0: InfeasibleError("no root here", reason="no_crossing"),
    4.0: ValueError("out of range"),
}


def _point(v):
    """v squared, or the error CAUSES holds for v."""
    if v in CAUSES:
        raise CAUSES[v]
    return v * v


def test_sweep_splits_the_grid_in_order():
    grid = [1.0, 2.0, 3.0, 4.0, 5.0]
    values, failures = sweep(_point, grid)
    assert values == [1.0, 9.0, 25.0]
    assert [v for v, _ in failures] == [2.0, 4.0]


def test_a_failure_keeps_its_type_reason_and_cause():
    _, [(_, infeasible), (_, plain)] = sweep(_point, [2.0, 4.0])
    assert type(infeasible) is InfeasibleError and infeasible.reason == "no_crossing"
    assert type(plain) is ValueError
    assert str(infeasible) == "t = 2 nm: no root here"
    assert str(plain) == "t = 4 nm: out of range"
    assert infeasible.__cause__ is CAUSES[2.0] and plain.__cause__ is CAUSES[4.0]


def test_the_label_names_the_point():
    _, [(v, err)] = sweep(_point, [4.0], "x = {:g}")
    assert v == 4.0 and str(err) == "x = 4: out of range"


def test_a_solver_error_propagates():
    def point(v):
        raise SolverError("no convergence")

    with pytest.raises(SolverError, match="^no convergence$"):
        sweep(point, [1.0])
