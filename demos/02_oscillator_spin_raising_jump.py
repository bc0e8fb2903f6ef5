#!/usr/bin/env python3
"""Oscillator + spin in a magnetic field, monitored through a spin-raising jump.

Model:
  - energies eps(m, a) = omega*(m + 1/2) + delta*(-1)^a on the flat basis
    2m + a (oscillator level m, spin a),
  - one jump operator that raises spin-down to spin-up inside each level.

The ratio q = 2*delta/omega decides the spectral structure: integer q makes
level (m, 0) degenerate with (m+q, 1), otherwise every degeneracy class is a
singleton.  The solver takes the same path for both; the degenerate pairs
only add internal unknowns to its linear system (a real and an imaginary
part per pair, next to one unknown per diagonal entry, each a (kind, m, n)
row whose matrix column is built in closed form), and the family's branch
label is read off the partition.  Either way the pointer family comes out
the same:

  - spin-up populations f_mm00 stay free (one trace constraint),
  - spin-down populations and every coherence vanish.

A closed system would keep arbitrary diagonal occupations *and*, for integer
q, arbitrary coherences between the degenerate partners; the interaction
kills the spin-down sector and destroys the degeneracy freedom.  The exact
Liouvillian kernel confirms the family: its dimension exceeds the number of
free directions by one (the trace slice).
"""

import numpy as np

from fgkls import classify_pairs, run_pointer_scheme, steady_state_basis
from fgkls.models import OscillatorSpinConfig, SigmaPlus, build_oscillator_spin
from fgkls.perturbation import assemble_internal_system_deg


def run_case(delta):
    cfg = OscillatorSpinConfig(n_levels=6, omega=1.0, delta=delta,
                               jump_variant=SigmaPlus(0.35))
    spectrum, jumps = build_oscillator_spin(cfg)
    partition = classify_pairs(spectrum)
    print(f"q = {cfg.q:g} ({'integer' if cfg.q_is_integer else 'non-integer'}), "
          f"dimension {cfg.dim}")
    pairs = partition.internal_pairs()
    if pairs:
        as_levels = [(f"({m // 2},{m % 2})", f"({n // 2},{n % 2})") for m, n in pairs]
        print(f"  degenerate partners (m,a): {as_levels}")
    else:
        print("  spectrum non-degenerate: all classes singletons")

    system = assemble_internal_system_deg(jumps, partition)
    kinds = np.bincount(system.unknowns[:, 0], minlength=3)
    print(f"  linear system: {len(system.unknowns)} (kind, m, n) unknowns = {kinds[0]} "
          f"diagonal + {kinds[1]} real + {kinds[2]} imaginary pair parts")

    family = run_pointer_scheme(spectrum, jumps, partition, max_order=3)
    print(f"  solver branch: {family.branch}")
    f0 = family.orders[0].coeff
    spin_down = max(abs(f0[2 * m + 1, 2 * m + 1]) for m in range(6))
    off = f0.copy()
    np.fill_diagonal(off, 0.0)
    print(f"  order 0: spin-down populations <= {spin_down:.1e}, "
          f"coherences <= {np.max(np.abs(off)):.1e}")
    tail = max(float(np.max(np.abs(family.orders[s].coeff))) for s in (1, 2, 3))
    print(f"  corrections at orders 1..3: <= {tail:.1e} (series terminates)")
    free = len(family.free_directions)
    print(f"  free directions, shared by every order: {free} "
          f"(populations f_mm00 free, trace fixed)")

    steady = steady_state_basis(spectrum, jumps)
    print(f"  exact kernel dimension: {steady.kernel_dim} "
          f"= free directions + 1 ({free} + 1)")
    ok = (spin_down < 1e-12 and np.max(np.abs(off)) < 1e-12 and tail < 1e-12
          and free == 5 and steady.kernel_dim == 6)
    print(f"  case check: {'PASS' if ok else 'FAIL'}")
    print()
    return ok


def main():
    print("Oscillator-spin pointers, spin-raising jump")
    print("-------------------------------------------")
    ok = True
    for delta in (0.3, 1.0):  # q = 0.6 and q = 2
        ok = run_case(delta) and ok
    print("raising-jump structure check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
