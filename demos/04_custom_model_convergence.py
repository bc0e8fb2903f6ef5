#!/usr/bin/env python3
"""Order-by-order convergence of the pointer series on a generic model.

A random non-degenerate spectrum with one dense random jump operator has no
closed-form pointer, so this demo shows the two quantitative guarantees of
the construction directly:

  1. residual scaling: a family member truncated at order S, evaluated with
     the jumps scaled by lam, violates stationarity only at O(lam^(2(S+1))).
     Halving lam therefore divides the residual by 4^(S+1);
  2. oracle convergence: the distance between the truncated member and the
     exact steady state (Liouvillian null space) shrinks at the same rate.

Both tables print the measured ratios next to the predicted powers of four.
"""

import numpy as np

from fgkls import (
    EnergySpectrum,
    run_pointer_scheme,
    stationarity_residual,
    steady_state_basis,
)


def random_model(rng, dim=4, coupling=0.1):
    e = np.sort(rng.uniform(0.5, 3.0, dim))
    while np.min(np.diff(e)) < 0.2:
        e = np.sort(rng.uniform(0.5, 3.0, dim))
    spectrum = EnergySpectrum(e)
    L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    L *= coupling * np.max(np.abs(e)) / np.linalg.norm(L, 2)
    return spectrum, [L]


def main():
    print("Pointer-series convergence on a random model")
    print("--------------------------------------------")
    rng = np.random.default_rng(2024)
    spectrum, jumps = random_model(rng)
    print(f"energies: {np.round(spectrum.energies, 4)}")
    print(f"coupling ratio ||L||^2/||H||: "
          f"{np.linalg.norm(jumps[0], 2) ** 2 / np.max(np.abs(spectrum.energies)):.3e}")
    print()

    family = run_pointer_scheme(spectrum, jumps, max_order=2)
    lams = (0.2, 0.1, 0.05)
    ok = True

    print("stationarity residual of the truncated member")
    print("order S | " + " | ".join(f"lam={lam:<5g}" for lam in lams) + " | ratio(0.1/0.05) | predicted")
    for order in range(3):
        res = [stationarity_residual(spectrum, [lam * L for L in jumps],
                                     family.evaluate(lam, max_order=order))
               for lam in lams]
        ratio = res[1] / res[2] if res[2] > 1e-14 else float("nan")
        predicted = 4.0 ** (order + 1)
        ok = ok and (np.isnan(ratio) or predicted / 2 < ratio < predicted * 2)
        cells = " | ".join(f"{r:9.3e}" for r in res)
        print(f"{order:7d} | {cells} | {ratio:15.2f} | {predicted:9.0f}")
    print()

    print("distance to the exact steady state (null-space oracle)")
    print("order S | " + " | ".join(f"lam={lam:<5g}" for lam in lams) + " | ratio(0.1/0.05) | predicted")
    for order in range(3):
        dists = []
        for lam in lams:
            steady = steady_state_basis(spectrum, [lam * L for L in jumps])
            dists.append(float(np.linalg.norm(family.evaluate(lam, max_order=order)
                                              - steady.physical_member)))
        ratio = dists[1] / dists[2] if dists[2] > 1e-13 else float("nan")
        predicted = 4.0 ** (order + 1)
        ok = ok and (np.isnan(ratio) or predicted / 2 < ratio < predicted * 2)
        cells = " | ".join(f"{d:9.3e}" for d in dists)
        print(f"{order:7d} | {cells} | {ratio:15.2f} | {predicted:9.0f}")
    print()
    print("convergence check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
