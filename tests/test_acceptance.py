"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the one-line verdicts.
"""

import numpy as np
import pytest

from fgkls import (
    DensityMatrix,
    bloch_to_matrix,
    classify_pairs,
    matrix_to_bloch,
    run_pointer_scheme,
    stationarity_residual,
    steady_state_basis,
)
from fgkls.exact import (
    TwoLevelParams,
    hermitian_affine_distance,
    integrate_trajectory,
    two_level_bloch_exact,
    verify_identity_72,
)
from fgkls.models import OscillatorSpinConfig, SigmaPlus, SigmaXY, build_oscillator_spin, build_two_level
from fgkls.perturbation import (_external_pairs, _rhs, assemble_internal_system_deg,
                                 offdiag_next_deg)

from helpers import (fit_exponential_rate, random_hermitian, random_nondegenerate_model,
                     two_level_system)


def _verdict(num: int, description: str, ok: bool):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_two_level_pointer_closed_form():
    rng = np.random.default_rng(101)
    worst_pointer = 0.0
    worst_correction = 0.0
    for _ in range(100):
        moduli = rng.uniform(0.01, 0.5, 2)
        phases = rng.uniform(0.0, 2 * np.pi, 2)
        l12 = moduli[0] * np.exp(1j * phases[0])
        l21 = moduli[1] * np.exp(1j * phases[1])
        spectrum, jumps = build_two_level(1.0, 2.0, l12, l21)
        family = run_pointer_scheme(spectrum, jumps, max_order=2)
        expected = np.diag([abs(l12) ** 2, abs(l21) ** 2]).astype(complex)
        expected /= expected.trace()
        worst_pointer = max(worst_pointer,
                            float(np.max(np.abs(family.orders[0].coeff - expected))))
        for s in (1, 2):
            worst_correction = max(worst_correction,
                                   float(np.max(np.abs(family.orders[s].coeff))))
    ok = worst_pointer < 1e-12 and worst_correction < 1e-14
    _verdict(1, f"two-level pointer to 1e-12 (worst {worst_pointer:.2e}), "
                f"corrections < 1e-14 (worst {worst_correction:.2e})", ok)


def test_criterion_2_parameterization_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        a1, b1, a2, b2 = rng.standard_normal(4)
        worst = max(worst, verify_identity_72(TwoLevelParams(0.0, 1.0, a1, b1, a2, b2)))
    _verdict(2, f"spin-up population identity residual < 1e-12 (worst {worst:.2e})",
             worst < 1e-12)


def test_criterion_3_two_level_asymptotics_and_rate():
    rng = np.random.default_rng(303)
    worst_r3 = worst_offdiag = worst_rate = 0.0
    draws = 0
    while draws < 3:
        coeffs = rng.uniform(-0.7, 0.7, 4)
        params = TwoLevelParams(0.7, 1.0, *coeffs)
        r3inf = params.asymmetry / params.decay_sum if params.decay_sum else 0.0
        if not 0.25 <= params.decay_sum <= 1.2 or abs(r3inf - 0.35) < 0.1:
            continue
        draws += 1
        spectrum, jumps = two_level_system(params)
        rho0 = DensityMatrix(bloch_to_matrix(0.25, -0.15, 0.35))
        t_end = 14.0 / params.decay_sum
        (traj,) = integrate_trajectory(spectrum, jumps, [rho0], t_end=t_end,
                                       n_steps=int(t_end / 0.01), record_every=10)
        r1, r2, r3 = matrix_to_bloch(traj.final_state)
        worst_r3 = max(worst_r3, abs(r3 - r3inf))
        worst_offdiag = max(worst_offdiag, abs(r1), abs(r2))
        series = np.array([matrix_to_bloch(s)[2] for s in traj.states])
        rate = fit_exponential_rate(traj.times, series, r3inf, window=(0.0, 0.4), floor=1e-9)
        worst_rate = max(worst_rate, abs(rate - 2 * params.decay_sum) / (2 * params.decay_sum))
    ok = worst_r3 < 1e-6 and worst_offdiag < 1e-6 and worst_rate < 0.01
    _verdict(3, f"endpoint r3 err {worst_r3:.2e} < 1e-6, off-diagonals {worst_offdiag:.2e} "
                f"< 1e-6, rate rel err {worst_rate:.2e} < 1%", ok)


def test_criterion_4_raising_jump_family_structure():
    ok = True
    details = []
    for delta in (0.3, 1.0):  # q = 0.6 (non-degenerate) and q = 2 (degenerate)
        cfg = OscillatorSpinConfig(n_levels=6, omega=1.0, delta=delta,
                                   jump_variant=SigmaPlus(0.35))
        spectrum, jumps = build_oscillator_spin(cfg)
        family = run_pointer_scheme(spectrum, jumps, max_order=3)
        worst = 0.0
        for mat in [oc.coeff for oc in family.orders] + list(family.free_directions):
            offdiag = mat.copy()
            np.fill_diagonal(offdiag, 0.0)
            worst = max(worst, float(np.max(np.abs(offdiag))))
            worst = max(worst, max(abs(mat[2 * m + 1, 2 * m + 1]) for m in range(6)))
        if len(family.free_directions) != 5:
            ok = False
        ok = ok and worst < 1e-12
        details.append(f"q={2 * delta:g}: worst entry {worst:.2e}")
    _verdict(4, "raising-jump family: 5 free directions, spin-down and off-diagonal "
                "entries < 1e-12 at every order (" + "; ".join(details) + ")", ok)


def test_criterion_5_xy_jumps_population_equalization():
    rng = np.random.default_rng(404)
    ok = True
    worst = 0.0
    for delta in (1.0, 0.3):  # integer and non-integer q
        for _ in range(5):
            g1 = rng.uniform(0.1, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            g2 = rng.uniform(0.1, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=delta,
                                       jump_variant=SigmaXY(g1, g2))
            spectrum, jumps = build_oscillator_spin(cfg)
            family = run_pointer_scheme(spectrum, jumps, max_order=2)
            f0 = family.orders[0].coeff
            worst = max(worst, abs(sum(f0[2 * m, 2 * m] for m in range(4)) - 0.5))
            for mat in [oc.coeff for oc in family.orders] + list(family.free_directions):
                worst = max(worst, max(abs(mat[2 * m, 2 * m] - mat[2 * m + 1, 2 * m + 1])
                                       for m in range(4)))
    ok = worst < 1e-12
    _verdict(5, f"xy-jump family: f_mm00 = f_mm11 and sum f_mm00 = 1/2 for random "
                f"couplings, both parities of q (worst deviation {worst:.2e})", ok)


def _bundled_models():
    two = build_two_level(1.0, 2.0, 1.0, 2.0)
    plus = build_oscillator_spin(
        OscillatorSpinConfig(n_levels=6, omega=1.0, delta=1.0, jump_variant=SigmaPlus(0.35)))
    xy = build_oscillator_spin(
        OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(0.3, 0.2j)))
    return [("two_level", *two), ("sigma_plus", *plus), ("sigma_xy", *xy)]


def test_criterion_6_oracle_equivalence():
    worst_bundled = 0.0
    for _, spectrum, jumps in _bundled_models():
        family = run_pointer_scheme(spectrum, jumps, max_order=2)
        dirs = family.free_directions
        for lam in (0.1, 0.05):
            steady = steady_state_basis(spectrum, [lam * L for L in jumps])
            dist = hermitian_affine_distance(family.evaluate(lam), dirs,
                                             steady.physical_member,
                                             list(steady.physical_directions))
            worst_bundled = max(worst_bundled, dist)
    ok_bundled = worst_bundled < 1e-10

    rng = np.random.default_rng(505)
    ok_random = True
    worst_ratio = 1.0
    for _ in range(20):
        spectrum, jumps = random_nondegenerate_model(rng, dim=int(rng.integers(3, 7)))
        family = run_pointer_scheme(spectrum, jumps, max_order=0)
        constants = []
        for lam in (0.1, 0.05):
            steady = steady_state_basis(spectrum, [lam * L for L in jumps])
            dist = hermitian_affine_distance(family.evaluate(lam), family.free_directions,
                                             steady.physical_member,
                                             list(steady.physical_directions))
            if dist < 1e-13:
                ok_random = ok_random and dist < 1e-10
            else:
                constants.append(dist / lam**2)
        if len(constants) == 2:
            spread = max(constants) / min(constants)
            worst_ratio = max(worst_ratio, spread)
            ok_random = ok_random and spread < 2.0
    _verdict(6, f"oracle equivalence: bundled models < 1e-10 (worst {worst_bundled:.2e}); "
                f"random models distance ~ C*lambda^2 with stable C "
                f"(worst spread {worst_ratio:.3f} < 2)", ok_bundled and ok_random)


def test_criterion_7_residual_scaling():
    rng = np.random.default_rng(606)
    ok = True
    checked = 0
    for _ in range(6):
        spectrum, jumps = random_nondegenerate_model(rng, dim=4)
        family = run_pointer_scheme(spectrum, jumps, max_order=2)
        for order in (0, 1, 2):
            r_fat = stationarity_residual(spectrum, [0.1 * L for L in jumps],
                                          family.evaluate(0.1, max_order=order))
            r_thin = stationarity_residual(spectrum, [0.05 * L for L in jumps],
                                           family.evaluate(0.05, max_order=order))
            if min(r_fat, r_thin) <= 1e-13:
                continue
            checked += 1
            ratio = r_fat / r_thin
            target = 4.0 ** (order + 1)
            ok = ok and (target / 2 < ratio < target * 2)
    _verdict(7, f"residual ratio within factor 2 of 4^(S+1) for S in 0..2 "
                f"({checked} comparisons)", ok and checked >= 12)


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(707)

    # diagonal-system rows sum to the zero functional (matrix and rhs)
    ok_rows = True
    for _ in range(5):
        spectrum, jumps = random_nondegenerate_model(rng, dim=5, n_jumps=2, coupling=0.4)
        partition = classify_pairs(spectrum)
        offdiag = offdiag_next_deg(jumps, _external_pairs(spectrum, partition),
                                   random_hermitian(rng, 5))
        system = assemble_internal_system_deg(jumps, partition)
        ok_rows = ok_rows and float(np.max(np.abs(system.matrix.sum(axis=0)))) < 1e-12
        ok_rows = ok_rows and abs(float(_rhs(jumps, offdiag, system.unknowns).sum())) < 1e-12

    # per-order Hermiticity and trace targets on every produced order
    ok_orders = True
    for _, spectrum, jumps in _bundled_models():
        family = run_pointer_scheme(spectrum, jumps, max_order=3)
        for s, oc in enumerate(family.orders):
            herm = float(np.max(np.abs(oc.coeff - oc.coeff.conj().T)))
            target = 1.0 if s == 0 else 0.0
            ok_orders = ok_orders and herm < 1e-10
            ok_orders = ok_orders and abs(oc.coeff.trace() - target) < 1e-10

    _verdict(8, f"structural suite: row-sum identity {ok_rows}, per-order Hermiticity "
                f"and trace targets {ok_orders}", ok_rows and ok_orders)
