"""Quantum confinement in the Si(111) well, valley by valley.

The 0.28 eV conduction-band offset of the Ge/Si(111)/Ge structure confines
electrons in the Si layer.  Each valley carries its own out-of-plane mass,
so thin wells push the light Delta6 level up much faster than the heavy L1
level; this narrows the gap the strain has to close.

Run:  python3 demos/02_confinement_energies.py
Writes confinement_vs_thickness.csv and, if matplotlib is present, a PNG.
"""

import math

import numpy as np

import lvalley as lv

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main():
    p = lv.default_params()
    grid = [round(1.0 + 0.1 * i, 1) for i in range(91)]

    # (L1, L3, Delta6) confinement energies at each thickness, eV
    eq = {t: lv.confinement_energies(p, t) for t in grid}

    print("Confinement energy E_q (meV) for V0 = 0.28 eV")
    print("t (nm)     L1      L3    Delta6")
    for t in (1.0, 2.0, 3.0, 5.0, 10.0):
        l1, l3, d6 = eq[t]
        print(f"{t:5.1f}  {l1*1e3:7.2f} {l3*1e3:7.2f} {d6*1e3:7.2f}")

    print("\nBelow ~3 nm the levels rise sharply; the Delta6/L1 difference")
    d3 = (eq[3.0][2] - eq[3.0][0]) * 1e3
    d10 = (eq[10.0][2] - eq[10.0][0]) * 1e3
    print(f"grows from {d10:.1f} meV at 10 nm to {d3:.1f} meV at 3 nm.")

    # sanity: a huge barrier reproduces the textbook hard-wall level
    energy = lv.solve_well(3.0, 0.28 * 1e7, 0.26, 1.59)[0]
    ref = math.pi**2 * lv.HBAR2_OVER_2M0 / (0.26 * 3.0**2)
    print(f"\nHard-wall check at 3 nm: {energy:.5f} eV vs {ref:.5f} eV (limit)")

    with open("confinement_vs_thickness.csv", "w") as fh:
        fh.write("t_nm,e_q_l1_ev,e_q_l3_ev,e_q_delta6_ev\n")
        for t in grid:
            l1, l3, d6 = eq[t]
            fh.write(f"{t:.3g},{l1:.9g},{l3:.9g},{d6:.9g}\n")
    print("wrote confinement_vs_thickness.csv")

    if plt is not None:
        fig, ax = plt.subplots(figsize=(6, 4))
        for i, v in enumerate(lv.Valley):
            ax.plot(grid, [eq[t][i] for t in grid], label=v.value)
        ax.set_xlabel("Si(111) thickness t (nm)")
        ax.set_ylabel("confinement energy $E_q$ (eV)")
        ax.legend()
        fig.tight_layout()
        fig.savefig("confinement_vs_thickness.png", dpi=150)
        print("wrote confinement_vs_thickness.png")


if __name__ == "__main__":
    main()
