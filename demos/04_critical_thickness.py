"""Can the strained Si(111) layer survive without relaxing?

A film strained at ~4% stores a lot of elastic energy; beyond a critical
thickness it pays to nucleate misfit dislocations and relax.  The
energy-balance model bounds the usable Si(111) thickness as a function of
the barrier Ge fraction.  The design window needs h_c above the 3-4 nm the
crossover map asks for.

Run:  python3 demos/04_critical_thickness.py
"""

import numpy as np

import lvalley as lv


def main():
    p = lv.default_params()
    nu, r111 = lv.poisson_111(p.elastic)
    print(f"[111] Poisson machinery: R111 = {r111:.4f}, nu111 = {nu:.4f}\n")

    inp = lv.RelaxationInput(ge_fraction_x=1.0, elastic=p.elastic)
    grid = [round(x, 3) for x in np.arange(0.5, 1.0001, 0.05)]
    curve = lv.hc_curve(inp, grid)

    print("x (Ge)   misfit f   h_c (nm)")
    for r, x in zip(curve, grid):
        print(f"{x:5.2f}   {r.misfit_f:8.4f}   {r.h_c:8.3f}")

    h94 = lv.critical_thickness(lv.RelaxationInput(ge_fraction_x=0.94, elastic=p.elastic))
    h100 = lv.critical_thickness(inp)
    print(
        f"\nAt the design window (x >= 0.94) the critical thickness stays at "
        f"{h100.h_c:.2f}-{h94.h_c:.2f} nm,"
    )
    print("above the ~3 nm wells the crossover needs, so the structure is feasible.")

    # the misfit convention barely matters: compare the linearized slope
    # against the Vegard misfit, given as its slope x_to_strain(x) / x at x = 1
    vg = lv.critical_thickness(
        lv.RelaxationInput(
            ge_fraction_x=1.0, elastic=p.elastic, misfit_slope=lv.x_to_strain(1.0, p.lattice)
        )
    )
    print(
        f"\nVegard-misfit variant at x = 1: h_c = {vg.h_c:.3f} nm "
        f"(linearized: {h100.h_c:.3f} nm)"
    )


if __name__ == "__main__":
    main()
