"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately written from scratch (plain ``math`` and
``numpy``, no library imports) so the numbers cross-check the library
instead of echoing its code paths.
"""

import math

import numpy as np

# hbar^2 / (2 m0) in eV nm^2 from CODATA 2018, recomputed here rather than
# imported, so a typo in the library constant would be caught.
HBAR = 1.054571817e-34
M0 = 9.1093837015e-31
QE = 1.602176634e-19
K_ORACLE = HBAR**2 / (2.0 * M0) / QE * 1e18


def well_mismatch(energy, t, v0, m_in, m_out):
    k = math.sqrt(energy * m_in / K_ORACLE)
    return math.tan(0.5 * k * t) - math.sqrt((m_in / m_out) * (v0 - energy) / energy)


def grid_scan_ground_state(t, v0, m_in, m_out, de=1e-6):
    """First sign change of the matching equation on a dense energy grid.

    The scan walks upward from de in steps of de; on the first tangent
    branch the mismatch rises monotonically through zero, so the first
    sign change brackets the ground state to within de.
    """
    e_branch = (math.pi / t) ** 2 * K_ORACLE / m_in
    e_max = min(v0, e_branch)
    e = de
    f_prev = well_mismatch(e, t, v0, m_in, m_out)
    while e < e_max - de:
        e_next = e + de
        f_next = well_mismatch(e_next, t, v0, m_in, m_out)
        if f_prev < 0.0 <= f_next:
            return e + 0.5 * de
        e, f_prev = e_next, f_next
    raise AssertionError(f"oracle found no bound state for t={t}, v0={v0}")


def bisect_well_energy(t, v0, m_in, m_out):
    """Ground-state energy by bisection on well_mismatch to machine precision.

    The bracket is (0, min(v0, first tangent branch top)); the mismatch is
    negative below the root on that branch, and bisection runs until no
    representable midpoint remains.  Only interior points are evaluated.
    """
    lo = 0.0
    hi = min(v0, (math.pi / t) ** 2 * K_ORACLE / m_in)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if well_mismatch(mid, t, v0, m_in, m_out) < 0.0:
            lo = mid
        else:
            hi = mid


def hard_wall_with_penetration(t, v0, m_in, m_out, rtol=1e-15):
    """Hard-wall level of a well widened by the barrier penetration depth.

    Near the hard-wall limit psi leaks a distance m_out/(m_in kappa) into
    each barrier (BenDaniel-Duke matching of psi'/m), with
    kappa = sqrt(m_out (V0 - E) / K).  The level is the hard-wall one at
    t_eff = t + 2 m_out/(m_in kappa), solved self-consistently in E by
    plain fixed-point iteration starting from the hard-wall level at t.
    """
    e_inf = math.pi**2 * K_ORACLE / (m_in * t * t)
    e = e_inf
    for _ in range(1000):
        kappa = math.sqrt(m_out * (v0 - e) / K_ORACLE)
        e_next = e_inf * (t / (t + 2.0 * m_out / (m_in * kappa))) ** 2
        if abs(e_next - e) <= rtol * e_next:
            return e_next
        e = e_next
    raise AssertionError(f"penetration oracle did not converge for t={t}, v0={v0}")


def hard_wall_barrier(t, m_in, m_out, rel):
    """Barrier V0 at which (4/pi) sqrt((m_out/m_in) E_inf/V0) equals rel.

    That is the leading relative deficit of the finite-well ground state
    below the hard-wall level E_inf = pi^2 K / (m_in t^2).
    """
    e_inf = math.pi**2 * K_ORACLE / (m_in * t * t)
    return (m_out / m_in) * e_inf * (4.0 / (math.pi * rel)) ** 2


def fixed_point_hc(x, nu, b=0.384, slope=0.0418):
    """Larger root of h = A ln(h/b) by plain fixed-point iteration."""
    f = slope * x
    amp = b / (32.0 * math.pi * f * f) * (1.0 - nu) / (1.0 + nu)
    h = 50.0 * b
    for _ in range(10000):
        h_next = amp * math.log(h / b)
        if abs(h_next - h) < 1e-12:
            return h_next
        h = h_next
    raise AssertionError("oracle fixed point did not converge")


def crossover_gap(eps, offset, elastic, dp, d_l1, d_delta6):
    """E(Delta6) - E(L1) of a biaxially strained (111) film, eV.

    ``offset`` is the gap at zero strain (band edges plus confinement),
    ``elastic`` is (c11, c12, c44) and ``dp`` is (xi_u_delta, xi_d_delta,
    xi_u_L, xi_d_L).  The film-normal strain follows from the (111)
    stiffness; L1 lies along the normal, and the Delta axes are the cubic
    axes, each seeing one third of the strain trace.
    """
    c11, c12, c44 = elastic
    xi_u_delta, xi_d_delta, xi_u_l, xi_d_l = dp
    perp = -(2.0 * c11 + 4.0 * c12 - 4.0 * c44) / (c11 + 2.0 * c12 + 4.0 * c44) * eps
    trace = 2.0 * eps + perp
    e_delta6 = xi_d_delta * trace + xi_u_delta * trace / 3.0 + d_delta6 * eps * eps
    e_l1 = xi_d_l * trace + xi_u_l * perp + d_l1 * eps * eps
    return offset + e_delta6 - e_l1


def valley_level(valley, eps, elastic, dp, e0, d):
    """Strained bulk level of ``valley`` ("L1", "L3" or "Delta6") and its terms, eV.

    Returns (level, terms): level = e0 + shift + d eps**2, the shift taken
    from the strain state at ``eps`` itself (not from a unit-strain slope),
    and terms the summands e0, the dilatational and uniaxial parts of the
    shift and d eps**2, whose largest magnitude sets the rounding scale.
    ``elastic`` and ``dp`` are ordered as in :func:`crossover_gap`.  The
    L3 axes make cos**2 = 1/9 with the film normal, so their uniaxial strain
    is (8 eps + perp) / 9.
    """
    c11, c12, c44 = elastic
    xi_u_delta, xi_d_delta, xi_u_l, xi_d_l = dp
    perp = -(2.0 * c11 + 4.0 * c12 - 4.0 * c44) / (c11 + 2.0 * c12 + 4.0 * c44) * eps
    trace = 2.0 * eps + perp
    if valley == "L1":
        dil, uni = xi_d_l * trace, xi_u_l * perp
    elif valley == "L3":
        dil, uni = xi_d_l * trace, xi_u_l * (8.0 * eps + perp) / 9.0
    else:
        dil, uni = xi_d_delta * trace, xi_u_delta * trace / 3.0
    quad = d * eps * eps
    return e0 + (dil + uni) + quad, (e0, dil, uni, quad)


def bisect_crossover(gap, hi=0.06, xtol=1e-13):
    """Strain in [0, hi] where gap(eps) turns positive, by plain bisection.

    Returns (eps, "") or (None, reason) with the library's reason tags:
    "below_at_zero" if the gap is already non-negative at zero strain,
    "no_crossing" if it is still negative at ``hi``.
    """
    if gap(0.0) >= 0.0:
        return None, "below_at_zero"
    if gap(hi) < 0.0:
        return None, "no_crossing"
    lo = 0.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), ""


def bisect_vegard(eps, a_si, a_ge, bowing_b, xtol=1e-15):
    """Ge fraction in [0, 1] whose relaxed alloy strains Si by eps."""
    def strain(x):
        return ((1.0 - x) * a_si + x * a_ge + bowing_b * x * (1.0 - x)) / a_si - 1.0

    lo, hi = 0.0, 1.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if strain(mid) < eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rotation_from_angles(theta, phi):
    """Rotation mapping the cubic crystal axes onto a film frame.

    theta is the polar tilt of the film normal and phi its azimuth; the
    result is proper orthogonal (det = +1) for any angle pair.
    """
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array(
        [
            [cp * ct, -sp, cp * st],
            [sp * ct, cp, sp * st],
            [-st, 0.0, ct],
        ]
    )


def rotation_111():
    """The (111)-film rotation with its exact closed-form entries."""
    s6 = 1.0 / math.sqrt(6.0)
    s2 = 1.0 / math.sqrt(2.0)
    s3 = 1.0 / math.sqrt(3.0)
    return np.array(
        [
            [s6, -s2, s3],
            [s6, s2, s3],
            [-math.sqrt(2.0 / 3.0), 0.0, s3],
        ]
    )


def cubic_stiffness(c11, c12, c44):
    """The full 3x3x3x3 stiffness tensor of a cubic crystal, GPa."""
    eye = np.eye(3)
    tensor = c12 * np.einsum("ij,kl->ijkl", eye, eye)
    tensor += c44 * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye))
    for m in range(3):
        tensor[m, m, m, m] += c11 - c12 - 2.0 * c44  # cubic anisotropy on the axes
    return tensor


def rotate_stiffness(c11, c12, c44, u):
    """Stiffness tensor in the film frame: C'_pqrs = U_ap U_bq U_ir U_js C_abij."""
    return np.einsum("ap,bq,ir,js,abij->pqrs", u, u, u, u, cubic_stiffness(c11, c12, c44))


def tensor_perp_ratio(c11, c12, c44):
    """eps_perp / eps_par of a (111) film from the rotated rank-4 stiffness.

    A free film-normal surface needs sigma'_33 = 0, so
    eps_perp = -(C'_3311 + C'_3322) / C'_3333 eps_par.
    """
    cp = rotate_stiffness(c11, c12, c44, rotation_111())
    return -(cp[2, 2, 0, 0] + cp[2, 2, 1, 1]) / cp[2, 2, 2, 2]


def strain_tensors(eps_par, eps_perp):
    """Film-frame and crystal-frame strain tensors of a biaxial (111) film.

    The film frame is diagonal (eps_par, eps_par, eps_perp).  On the cubic
    axes each diagonal entry is the mean (2 eps_par + eps_perp)/3 and each
    off-diagonal entry (eps_perp - eps_par)/3, written out by hand rather
    than rotated, so the rotation can be checked against it.
    """
    film = np.diag([eps_par, eps_par, eps_perp])
    crystal = np.full((3, 3), (eps_perp - eps_par) / 3.0)
    np.fill_diagonal(crystal, (2.0 * eps_par + eps_perp) / 3.0)
    return film, crystal


# Ground-state energies frozen from grid_scan_ground_state with de = 1e-6
# (V0 = 0.28 eV, Table masses L1: 1.70/1.59, L3: 0.13/1.59, D6: 0.26/1.59).
EQ_FROZEN = {
    ("L1", 1.0): 0.088035,
    ("L1", 2.0): 0.033743,
    ("L1", 3.0): 0.017513,
    ("L1", 4.0): 0.010678,
    ("L1", 10.0): 0.001988,
    ("L3", 1.0): 0.119705,
    ("L3", 2.0): 0.066123,
    ("L3", 3.0): 0.044291,
    ("L3", 4.0): 0.032609,
    ("L3", 10.0): 0.010798,
    ("Delta6", 1.0): 0.116696,
    ("Delta6", 2.0): 0.061835,
    ("Delta6", 3.0): 0.039822,
    ("Delta6", 4.0): 0.028284,
    ("Delta6", 10.0): 0.008015,
}

# Critical thickness frozen from fixed_point_hc with nu = 0.1799786.
HC_FROZEN = {1.0: 3.240166, 0.94: 4.051022, 0.5: 25.497193}
