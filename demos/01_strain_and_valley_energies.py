"""Strained bulk Si(111): how biaxial tension moves the conduction valleys.

A Si(111) film grown on a relaxed SiGe barrier is stretched in-plane and
relaxes out-of-plane; the resulting strain tensor shifts each conduction
valley by a different amount.  L1 (the valley along the film normal) drops
steeply under tension while the Delta6 set rises, so a large enough strain
swaps the conduction-band minimum from Delta6 to L1.

Run:  python3 demos/01_strain_and_valley_energies.py
"""

import numpy as np

import lvalley as lv


def main():
    p = lv.default_params()

    print("Out-of-plane response of the (111) film")
    print("---------------------------------------")
    ratio = lv.perp_strain_ratio(p.elastic)
    print(f"eps_perp / eps_par = {ratio:+.4f}  (tension in-plane -> compression out-of-plane)\n")

    s = lv.strain_state(p.elastic, 0.03)
    # film frame: diag(eps_par, eps_par, eps_perp); on the cubic axes every
    # diagonal entry is the mean strain and every off-diagonal one
    # (eps_perp - eps_par)/3
    film = np.diag([s.eps_par, s.eps_par, s.eps_perp])
    crystal = np.full((3, 3), (s.eps_perp - s.eps_par) / 3.0)
    np.fill_diagonal(crystal, (2.0 * s.eps_par + s.eps_perp) / 3.0)
    print("Strain state at eps_par = 3%:")
    print("  film frame (diagonal):   ", np.diag(film))
    print("  crystal frame diagonal:  ", np.diag(crystal))
    print("  crystal frame off-diag:  ", crystal[0, 1])
    print(f"  trace in both frames:     {np.trace(crystal):.6f}\n")

    print("Bulk valley energies vs strain (eV)")
    print("-----------------------------------")
    print("eps_par    E(L1)    E(L3)    E(Delta6)")
    for eps in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05):
        e = {v: lv.bulk_energy(v, p, eps).total for v in lv.Valley}
        print(
            f"{eps:6.3f}   {e[lv.Valley.L1]:.4f}   {e[lv.Valley.L3]:.4f}   "
            f"{e[lv.Valley.DELTA6]:.4f}"
        )

    # the bulk crossover, before any confinement correction
    grid = np.linspace(0.0, 0.05, 501)
    gap = [
        lv.bulk_energy(lv.Valley.DELTA6, p, float(x)).total
        - lv.bulk_energy(lv.Valley.L1, p, float(x)).total
        for x in grid
    ]
    idx = int(np.argmin(np.abs(gap)))
    print(f"\nBulk-only crossing near eps_par = {grid[idx]:.4f}")
    print("(confinement in a thin well moves this, see demo 03)")


if __name__ == "__main__":
    main()
