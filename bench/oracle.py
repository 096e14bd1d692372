"""Plain-math reference for the design-window items.

Written from the physics with the standard library only, so it checks the
library rather than echoing it.  Its parameters are the seed's default
parameter set frozen in reference.json, and every run first checks it
against the seed library's own outputs at fixed probe points
(``design_probes`` in reference.json).

* Valley energies: first-order deformation-potential shifts of a biaxial
  (111) strain plus the reduced quadratic term.
* Confinement: the even ground state of the BenDaniel-Duke well in
  z = k_in t / 2, ``z sin z = r sqrt(u0^2 - z^2) cos z`` with
  r = sqrt(m_in / m_out), solved by bracket-safeguarded Newton steps on
  (0, min(u0, pi/2)), where the left-hand side minus the right rises
  strictly through zero.
* Critical thickness: the larger root of h = A ln(h / b) by fixed-point
  iteration from 50 b, the iteration the People-Bean model defines.
"""

import math

VALLEYS = ("L1", "L3", "Delta6")
QUADRATIC_KEY = {"L1": "d_L1", "L3": "d_L3", "Delta6": "d_delta6"}


class Oracle:
    def __init__(self, p):
        self.p = p
        c11, c12, c44 = p["c11"], p["c12"], p["c44"]
        denom = c11 + 2.0 * c12 + 4.0 * c44
        self.perp_ratio = -(2.0 * c11 + 4.0 * c12 - 4.0 * c44) / denom
        r111 = 2.0 * (c11 + 2.0 * c12 - 2.0 * c44) / denom
        self.nu_111 = r111 / (2.0 + r111)

    def strain(self, x):
        """In-plane strain of Si on relaxed Si(1-x)Ge(x) (Vegard with bowing)."""
        p = self.p
        a = (1.0 - x) * p["a_si"] + x * p["a_ge"] + p["bowing_b"] * x * (1.0 - x)
        return a / p["a_si"] - 1.0

    def bulk(self, valley, eps):
        p = self.p
        perp = self.perp_ratio * eps
        trace = 2.0 * eps + perp
        if valley == "L1":
            de1 = p["xi_d_L"] * trace + p["xi_u_L"] * perp
        elif valley == "L3":
            de1 = p["xi_d_L"] * trace + p["xi_u_L"] * (8.0 * eps + perp) / 9.0
        else:
            de1 = p["xi_d_delta"] * trace + p["xi_u_delta"] * trace / 3.0
        e0 = p["e0_delta"] if valley == "Delta6" else p["e0_L"]
        return e0 + de1 + p[QUADRATIC_KEY[valley]] * eps * eps

    def confinement(self, valley, t):
        p = self.p
        m_in, m_out = p["masses"][valley]
        k = p["hbar2_over_2m0"]
        u0 = 0.5 * t * math.sqrt(m_in * p["v0"] / k)
        r = math.sqrt(m_in / m_out)
        lo, hi = 0.0, min(u0, 0.5 * math.pi)
        z = 0.5 * hi
        for _ in range(200):
            s = math.sqrt(u0 * u0 - z * z)
            sz, cz = math.sin(z), math.cos(z)
            g = z * sz - r * s * cz
            if g == 0.0:
                break
            if g > 0.0:
                hi = z
            else:
                lo = z
            z_next = z - g / (sz + z * cz + r * (z * cz / s + s * sz))
            if not lo < z_next < hi:
                z_next = 0.5 * (lo + hi)
            if abs(z_next - z) <= 1e-14 * z or hi - lo <= 1e-16 * hi:
                z = z_next
                break
            z = z_next
        else:
            raise ArithmeticError(f"well reference did not converge at t={t}, {valley}")
        return k * (2.0 * z / t) ** 2 / m_in

    def splitting(self, t, x):
        """(E_Delta6 - E_L1, E_L3 - E_L1) in eV at thickness t and Ge fraction x."""
        eps = self.strain(x)
        e = {v: self.bulk(v, eps) + self.confinement(v, t) for v in VALLEYS}
        return e["Delta6"] - e["L1"], e["L3"] - e["L1"]

    def critical_thickness(self, x):
        """People-Bean h_c in nm with the linearized misfit slope * x."""
        p = self.p
        b = p["burgers_si"]
        f = p["misfit_slope"] * x
        nu = self.nu_111
        amp = b / (32.0 * math.pi * f * f) * (1.0 - nu) / (1.0 + nu)
        h = 50.0 * b
        for _ in range(10000):
            h_next = amp * math.log(h / b)
            if abs(h_next - h) < 1e-12:
                return h_next
            h = h_next
        raise ArithmeticError(f"critical-thickness reference did not converge at x={x}")
