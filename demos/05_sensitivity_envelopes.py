"""How robust is the design to the deformation-potential literature spread?

The published first-order deformation potentials scatter by around 10%,
and the second-order coefficients are only known as ranges.  The
crossover falls as the gap's slope or curvature rises, so the engine solves
it at the two extreme corners of the perturbed-coefficient box and reports
the envelope of the critical Ge fraction between them.  A corner whose
crossover would need x > 1 is clipped to x = 1 and flagged.

Run:  python3 demos/05_sensitivity_envelopes.py
Writes sensitivity_envelopes.csv and, with matplotlib, a PNG.
"""

import numpy as np

import lvalley as lv

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

MODES = ("linear10pct", "quadratic_range", "both")


def main():
    p = lv.default_params()
    grid = [float(t) for t in np.arange(1.0, 10.001, 0.5)]

    bands = {m: lv.sensitivity_band(p, grid, m) for m in MODES}

    print("Envelope of the critical Ge fraction x* at t = 3 nm")
    print("---------------------------------------------------")
    for m in MODES:
        b = next(x for x in bands[m] if x.thickness_t == 3.0)
        flag = "  (upper corners clipped at x = 1)" if b.clipped else ""
        print(f"{m:16s} [{b.x_low:.3f}, {b.x_high:.3f}] around {b.x_nominal:.3f}{flag}")

    print(
        "\nThe first-order spread dominates: the quadratic-range band sits "
        "strictly inside the 10% band at every thickness."
    )
    print(
        "With both variations active the unfavourable corners exceed pure Ge, "
        "so the margin of the x = 1 design rests on the favourable half of the box."
    )

    with open("sensitivity_envelopes.csv", "w") as fh:
        fh.write("mode,t_nm,x_low,x_nominal,x_high,clipped\n")
        for m in MODES:
            for b in bands[m]:
                fh.write(
                    f"{m},{b.thickness_t:.3g},{b.x_low:.9g},{b.x_nominal:.9g},"
                    f"{b.x_high:.9g},{int(b.clipped)}\n"
                )
    print("\nwrote sensitivity_envelopes.csv")

    if plt is not None:
        fig, ax = plt.subplots(figsize=(6, 4))
        colors = {"linear10pct": "C0", "quadratic_range": "C1", "both": "C2"}
        for m in MODES:
            lo = [b.x_low for b in bands[m]]
            hi = [b.x_high for b in bands[m]]
            ax.fill_between(grid, lo, hi, alpha=0.25, color=colors[m], label=m)
        ax.plot(grid, [b.x_nominal for b in bands["both"]], "k-", lw=1.2, label="nominal")
        ax.axhline(1.0, ls="--", c="gray", lw=0.8)
        ax.set_xlabel("t (nm)")
        ax.set_ylabel("critical Ge fraction $x^*$")
        ax.legend(fontsize=8)
        fig.tight_layout()
        fig.savefig("sensitivity_envelopes.png", dpi=150)
        print("wrote sensitivity_envelopes.png")


if __name__ == "__main__":
    main()
