#!/usr/bin/env python3
"""Pointer of a dissipative two-level system, three independent ways.

Model:
  - H = diag(eps1, eps2) with eps1 != eps2,
  - one purely off-diagonal jump operator L = [[0, l12], [l21, 0]].

The asymptotic stationary state (the pointer) is computed by

  1. the order-by-order perturbative scheme in the jump operator,
  2. the null space of the vectorized Liouvillian,
  3. late-time Runge-Kutta integration from a generic initial state,

and all three must agree.  The pointer has the closed form

      diag(|l12|^2, |l21|^2) / (|l12|^2 + |l21|^2),

independently of the energies, and every correction beyond order zero
vanishes identically: the series terminates.  The run ends with a PASS/FAIL
summary.
"""

import numpy as np

from fgkls import (
    DensityMatrix,
    bloch_to_matrix,
    integrate_trajectory,
    matrix_to_bloch,
    run_pointer_scheme,
    stationarity_residual,
    steady_state_basis,
)
from fgkls.exact import TwoLevelParams, two_level_bloch_exact, verify_identity_72
from fgkls.models import build_two_level, offdiag_to_pauli


def main():
    l12, l21 = 1.0, 2.0
    spectrum, jumps = build_two_level(eps1=1.0, eps2=2.0, l12=l12, l21=l21)
    print("Two-level pointer demo")
    print("----------------------")
    print(f"energies: {spectrum.energies},  l12 = {l12}, l21 = {l21}")
    closed_form = np.diag([abs(l12) ** 2, abs(l21) ** 2]).astype(complex)
    closed_form /= closed_form.trace()
    print(f"closed-form pointer diagonal: {np.diag(closed_form).real}")
    print()

    # route 1: perturbative scheme
    family = run_pointer_scheme(spectrum, jumps, max_order=3)
    pointer = family.evaluate(1.0)
    order_tail = max(float(np.max(np.abs(family.orders[s].coeff))) for s in (1, 2, 3))
    print(f"perturbative branch: {family.branch}")
    print(f"order-0 coefficient matches closed form to "
          f"{np.max(np.abs(family.orders[0].coeff - closed_form)):.2e}")
    print(f"largest entry in orders 1..3 (series terminates): {order_tail:.2e}")
    print(f"free directions, shared by every order: "
          f"{len(family.free_directions)} (pointer is unique)")
    print()

    # route 2: Liouvillian null space
    steady = steady_state_basis(spectrum, jumps)
    d_exact = np.max(np.abs(steady.physical_member - pointer))
    print(f"null-space kernel dimension: {steady.kernel_dim}")
    print(f"exact vs perturbative pointer: {d_exact:.2e}")
    print()

    # route 3: time evolution from an arbitrary state
    rho0 = DensityMatrix(bloch_to_matrix(0.3, -0.1, 0.2))
    (traj,) = integrate_trajectory(spectrum, jumps, [rho0], t_end=30.0, n_steps=8000,
                                   record_every=100)
    d_evolved = np.max(np.abs(traj.final_state.matrix - pointer))
    print(f"RK4 endpoint vs pointer after t = {traj.times[-1]:g}: {d_evolved:.2e}")
    print(f"endpoint stationarity residual: "
          f"{stationarity_residual(spectrum, jumps, traj.final_state.matrix):.2e}")

    # the closed-form Bloch solution reproduces the trajectory
    params = TwoLevelParams(1.5, -0.5, *offdiag_to_pauli(l12, l21))
    sample = traj.times[::20]
    worst = 0.0
    exact = two_level_bloch_exact(params, matrix_to_bloch(rho0), sample)
    for i, t in enumerate(sample):
        k = int(np.argmin(np.abs(traj.times - t)))
        worst = max(worst, float(np.max(np.abs(
            np.array(matrix_to_bloch(traj.states[k])) - exact[:, i]))))
    print(f"closed-form Bloch solution vs trajectory (grid): {worst:.2e}")
    print(f"parameterization identity residual: {verify_identity_72(params):.2e}")
    print()

    ok = (np.max(np.abs(pointer - closed_form)) < 1e-12 and order_tail < 1e-14
          and d_exact < 1e-10 and d_evolved < 1e-6 and worst < 1e-6)
    print("two-level pointer check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
