"""People-Bean critical thickness of the strained Si(111) layer.

The energy-balance model gives the implicit relation

    h_c = (b / (32 pi f^2)) ((1 - nu) / (1 + nu)) ln(h_c / b)

with misfit f, Burgers vector b and the effective [111] Poisson ratio nu.
The relation has two positive roots for A > e b, where A is the prefactor
of the logarithm; the physical critical thickness is the larger one (the
small root sits below a monolayer).  It is h_c = -A W_-1(-b/A) on the lower
branch of the Lambert W function (Corless et al., "On the Lambert W
function", 1996), computed by Newton's method on the convex
F(h) = h - A ln(h/b) started above the larger root.
"""

from __future__ import annotations

import math
import sys

from .elasticity import perp_strain_ratio
from .errors import InfeasibleError, SolverError
from .materials import BURGERS_SI_NM, ElasticConstants, Record, _require_finite
from .well import STEP_RTOL

# Linearized misfit of Si against the relaxed Si(1-x)Ge(x) barrier per unit
# Ge fraction.
DEFAULT_MISFIT_SLOPE = 0.0418

# Newton on the People-Bean relation stops once a step is within
# well.STEP_RTOL of h; the iteration cap only guards against a broken
# input.
_MAX_NEWTON = 64

# The smallest normal Burgers vector, nm: h_c >= e b, so from it up h_c is normal too.
_B_MIN_NORMAL = sys.float_info.min


def poisson_111(elastic: ElasticConstants) -> tuple[float, float]:
    """Effective [111] Poisson ratio and its stiffness ratio, (nu_111, r_111).

    r_111 = -eps_perp / eps_par is the (111) biaxial response.
    """
    r_111 = -perp_strain_ratio(elastic)
    return r_111 / (2.0 + r_111), r_111


class RelaxationInput(Record):
    """Inputs of the critical-thickness model.

    ``elastic`` is an ElasticConstants and ``burgers_b`` is in nm.  The
    misfit is misfit_slope * x; for the Vegard misfit at x, pass
    ``misfit_slope=design.x_to_strain(x, lattice) / x``.
    """

    __slots__ = ("ge_fraction_x", "elastic", "burgers_b", "misfit_slope")
    _defaults = {"burgers_b": BURGERS_SI_NM, "misfit_slope": DEFAULT_MISFIT_SLOPE}

    def _check(self):
        if not 0.0 <= self.ge_fraction_x <= 1.0:
            raise ValueError("Ge fraction must lie in [0, 1]")
        _require_finite("Burgers vector and misfit slope", self.burgers_b, self.misfit_slope)
        if not self.burgers_b > 0.0:
            raise ValueError("Burgers vector must be positive")
        if not self.misfit_slope > 0.0:
            raise ValueError("misfit slope must be positive")

    def misfit(self) -> float:
        return self.misfit_slope * self.ge_fraction_x


class CriticalThickness(Record):
    """Critical thickness h_c in nm, with its misfit, Poisson ratio and Newton steps."""

    __slots__ = ("h_c", "misfit_f", "nu_111", "iterations")


def critical_thickness(inp: RelaxationInput) -> CriticalThickness:
    """Solve the energy-balance relation for the larger positive root."""
    b = inp.burgers_b
    if b < _B_MIN_NORMAL:
        raise InfeasibleError(
            f"Burgers vector {b:.4g} nm is too small: below {_B_MIN_NORMAL!r} nm "
            "the critical thickness keeps too few significant digits", reason="subnormal",
        )
    f = inp.misfit()
    nu, _ = poisson_111(inp.elastic)
    # A vanishing misfit (f^2 may underflow to zero) or nu rounding to -1 sends A to infinity
    f2 = f * f
    unbounded = not (f2 > 0.0 and nu > -1.0)
    amp = math.inf if unbounded else b / (32.0 * math.pi * f2) * (1.0 - nu) / (1.0 + nu)
    # h = A ln(h/b) has roots only for A/b > e, the edge of the W_-1 domain;
    # u = ln(A/b) - 1 must also stay positive after rounding.  An A that
    # overflowed passes with u = inf and is reported as unbounded below.
    u = math.log(amp / b) - 1.0 if amp / b > math.e else 0.0
    if not u > 0.0:
        # h and A ln(h/b) never intersect: the model has no root
        raise InfeasibleError(
            f"no critical-thickness root: misfit {f:.4g} too large for the "
            "energy-balance relation",
            reason="no_root",
        )
    # F(h) = h - A ln(h/b) is convex with its minimum at h = A, so Newton
    # started above the larger root descends monotonically onto it.  The
    # start is the upper bound 1 + sqrt(2u) + u of -W_-1(-exp(-1 - u))
    # (Chatzigeorgiou, IEEE Commun. Lett. 17, 2013), where F(h0) > 0.
    # A step that does not descend (F(h) <= 0 by rounding) means h is
    # within rounding of the root.
    h = amp * (1.0 + math.sqrt(2.0 * u) + u)
    if not math.isfinite(h):
        raise InfeasibleError(
            f"misfit {f:.4g} with [111] Poisson ratio {nu:.4g} makes the prefactor A "
            "of the energy balance overflow: the critical thickness is unbounded",
            reason="unbounded",
        )
    for i in range(1, _MAX_NEWTON + 1):
        step = (h - amp * math.log(h / b)) / (1.0 - amp / h)
        if step <= STEP_RTOL * h:
            return CriticalThickness(h_c=min(h, h - step), misfit_f=f, nu_111=nu, iterations=i)
        h -= step
    raise SolverError(f"critical-thickness Newton did not converge (f={f:.4g})")
