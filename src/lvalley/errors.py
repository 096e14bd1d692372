"""Exception types, the sweep that names a failing point, and the Newton stopping rule."""

import sys

# Newton has converged once its step is at most four ulp of the iterate; the
# well loop, rootfind.bisect_root and the People-Bean iteration share it.
STEP_RTOL = 4.0 * sys.float_info.epsilon


class InfeasibleError(Exception):
    """A request is physically or mathematically unattainable.

    Raised when the inputs are valid but the asked-for condition cannot be
    met, e.g. a valley crossover that would require a Ge fraction above 1,
    a strain sweep that never crosses, or the unbounded critical thickness
    of an unstrained film.  ``reason`` carries a short machine-readable tag
    so callers can branch without parsing the message.
    """

    def __init__(self, message: str, reason: str = ""):
        super().__init__(message)
        self.reason = reason


class SolverError(RuntimeError):
    """A numerical routine failed to converge; the message carries diagnostics."""


class UsageError(Exception):
    """Malformed invocation: bad grid, bad override key, bad config line."""


def sweep(point, grid, label: str = "t = {:.9g} nm") -> tuple[list, list[tuple[float, Exception]]]:
    """(values, failures) of ``point(v)`` over ``grid``, each list in grid order.

    The one place a sweep point's InfeasibleError or ValueError is caught:
    the point goes to failures as (v, error), the error of the same type
    with its reason tag kept, its message prefixed ``label.format(v) + ": "``
    and the original as its ``__cause__``.  A SolverError propagates.
    """
    values, failures = [], []
    for v in grid:
        try:
            values.append(point(v))
        except (InfeasibleError, ValueError) as err:
            message = f"{label.format(v)}: {err}"
            named = (
                InfeasibleError(message, reason=err.reason)
                if isinstance(err, InfeasibleError)
                else ValueError(message)
            )
            named.__cause__ = err
            failures.append((v, named))
    return values, failures
