#!/usr/bin/env python3
"""Oscillator + spin with two transverse jumps: spin populations equalize.

The same oscillator-spin Hamiltonian as in the raising-jump demo, but the
environment now couples through two jump operators along the transverse spin
axes, with independent complex strengths gamma1 and gamma2.  The pointer
family satisfies

    f_mm11 = f_mm00      (spin-up and spin-down occupations equal per level),
    sum_m f_mm00 = 1/2,
    all coherences vanish,

for every coupling pair and for both degenerate (integer q) and
non-degenerate spectra.  Time evolution from a random state shows the
equalization dynamically, and the structure is verified for several random
couplings to demonstrate that it does not depend on their values.
"""

import numpy as np

from fgkls import DensityMatrix, integrate_trajectory, random_density_matrix, run_pointer_scheme
from fgkls.models import OscillatorSpinConfig, SigmaXY, build_oscillator_spin


def family_structure_ok(delta, gamma1, gamma2, n_levels=4):
    cfg = OscillatorSpinConfig(n_levels=n_levels, omega=1.0, delta=delta,
                               jump_variant=SigmaXY(gamma1, gamma2))
    spectrum, jumps = build_oscillator_spin(cfg)
    family = run_pointer_scheme(spectrum, jumps, max_order=2)
    worst = 0.0
    for mat in [oc.coeff for oc in family.orders] + list(family.free_directions):
        worst = max(worst, max(abs(mat[2 * m, 2 * m] - mat[2 * m + 1, 2 * m + 1])
                               for m in range(n_levels)))
    f0 = family.orders[0].coeff
    half = abs(sum(f0[2 * m, 2 * m] for m in range(n_levels)) - 0.5)
    return family.branch, max(worst, half)


def main():
    print("Oscillator-spin pointers, transverse xy jumps")
    print("---------------------------------------------")
    rng = np.random.default_rng(12)
    ok = True
    for delta, label in ((1.0, "integer q = 2"), (0.3, "non-integer q = 0.6")):
        print(f"{label}:")
        for k in range(4):
            g1 = rng.uniform(0.15, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            g2 = rng.uniform(0.15, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            branch, dev = family_structure_ok(delta, g1, g2)
            ok = ok and dev < 1e-12
            print(f"  gamma1 = {g1:.3f}, gamma2 = {g2:.3f} -> branch {branch:>14s}, "
                  f"structure deviation {dev:.1e}")
        print()

    # dynamical route: spin populations equalize per level
    cfg = OscillatorSpinConfig(n_levels=3, omega=1.0, delta=0.5,
                               jump_variant=SigmaXY(0.5, 0.4))
    spectrum, jumps = build_oscillator_spin(cfg)
    rho0 = random_density_matrix(6, rng)
    (traj,) = integrate_trajectory(spectrum, jumps, [rho0], t_end=45.0, n_steps=6000,
                                   record_every=1000)
    print("population evolution (spin up vs down per level, random start):")
    for t, state in zip(traj.times, traj.states):
        ups = [state[2 * m, 2 * m].real for m in range(3)]
        downs = [state[2 * m + 1, 2 * m + 1].real for m in range(3)]
        gap = max(abs(u - d) for u, d in zip(ups, downs))
        print(f"  t = {t:6.1f}: max |up - down| = {gap:.2e}")
    final_gap = max(abs(traj.final_state.matrix[2 * m, 2 * m]
                        - traj.final_state.matrix[2 * m + 1, 2 * m + 1]) for m in range(3))
    ok = ok and final_gap < 1e-6
    print()
    print("population-equalization check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
