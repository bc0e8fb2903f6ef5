import numpy as np
import pytest

from fgkls import run_pointer_scheme, steady_state_basis
from fgkls.exact import point_to_affine_distance
from fgkls.models import (
    OscillatorSpinConfig,
    SigmaPlus,
    SigmaXY,
    build_oscillator_spin,
    build_two_level,
    offdiag_to_pauli,
    pauli_to_offdiag,
)


def test_oscillator_energies_hand_computed():
    cfg = OscillatorSpinConfig(n_levels=2, omega=1.0, delta=0.25, jump_variant=SigmaPlus(0.1))
    spectrum, _ = build_oscillator_spin(cfg)
    assert np.allclose(spectrum.energies, [0.75, 0.25, 1.75, 1.25])


def test_sigma_plus_jump_entries():
    cfg = OscillatorSpinConfig(n_levels=2, omega=1.0, delta=0.25, jump_variant=SigmaPlus(0.1))
    _, jumps = build_oscillator_spin(cfg)
    (L,) = jumps
    nonzero = {(m, n): L[m, n] for m in range(4) for n in range(4) if L[m, n] != 0}
    assert nonzero == {(0, 1): 0.1, (2, 3): 0.1}


def test_sigma_plus_nilpotent():
    cfg = OscillatorSpinConfig(n_levels=3, omega=1.0, delta=0.4, jump_variant=SigmaPlus(0.7))
    _, (L,) = build_oscillator_spin(cfg)
    assert np.max(np.abs(L @ L)) == 0.0


def test_sigma_xy_entries_and_relation_to_raising_jump():
    cfg = OscillatorSpinConfig(n_levels=2, omega=1.0, delta=0.25,
                               jump_variant=SigmaXY(gamma1=0.2, gamma2=0.2))
    _, (L1, L2) = build_oscillator_spin(cfg)
    # with gamma1 = gamma2 the combination L1 + i L2 only de-excites spin-down
    comb = L1 + 1j * L2
    for m in range(2):
        assert comb[2 * m, 2 * m + 1] == pytest.approx(0.4)
    comb_zeroed = comb.copy()
    for m in range(2):
        comb_zeroed[2 * m, 2 * m + 1] = 0.0
    assert np.max(np.abs(comb_zeroed)) == 0.0


def test_degeneracy_parameter_flag():
    plus = SigmaPlus(0.1)
    assert OscillatorSpinConfig(4, 1.0, 1.0, plus).q_is_integer
    assert OscillatorSpinConfig(4, 1.0, 0.0, plus).q_is_integer
    assert not OscillatorSpinConfig(4, 1.0, 0.3, plus).q_is_integer
    assert OscillatorSpinConfig(4, 2.0, 1.0, plus).q == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        OscillatorSpinConfig(1, 1.0, 0.1, SigmaPlus(0.1))
    with pytest.raises(ValueError):
        OscillatorSpinConfig(3, -1.0, 0.1, SigmaPlus(0.1))


def test_truncation_exactness():
    # the jumps are diagonal in the oscillator index, so a pointer of the
    # N=4 truncation embeds into the N=8 family unchanged
    small = OscillatorSpinConfig(4, 1.0, 0.3, SigmaPlus(0.4))
    large = OscillatorSpinConfig(8, 1.0, 0.3, SigmaPlus(0.4))
    s_spec, s_jumps = build_oscillator_spin(small)
    l_spec, l_jumps = build_oscillator_spin(large)
    fam_small = run_pointer_scheme(s_spec, s_jumps, max_order=1)
    fam_large = run_pointer_scheme(l_spec, l_jumps, max_order=1)
    member = np.zeros((16, 16), dtype=complex)
    member[:8, :8] = fam_small.evaluate(1.0)
    dist = point_to_affine_distance(member, fam_large.evaluate(1.0),
                                    fam_large.free_directions)
    assert dist < 1e-12


def test_two_level_model_and_exact_pointers():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    assert np.allclose(spectrum.energies, [1.0, 2.0])
    assert np.array_equal(jumps[0], np.array([[0, 1], [2, 0]], dtype=complex))

    fam = run_pointer_scheme(spectrum, jumps, max_order=1)
    assert np.allclose(fam.evaluate(1.0), np.diag([0.2, 0.8]), atol=1e-14)

    # symmetric couplings give the maximally mixed pointer
    spectrum, jumps = build_two_level(1.0, 2.0, 0.3, 0.3)
    fam = run_pointer_scheme(spectrum, jumps, max_order=1)
    assert np.allclose(fam.evaluate(1.0), 0.5 * np.eye(2), atol=1e-14)

    # one-sided coupling pumps everything into the upper state;
    # cross-checked against the null-space oracle
    spectrum, jumps = build_two_level(1.0, 2.0, 0.4, 0.0)
    fam = run_pointer_scheme(spectrum, jumps, max_order=1)
    assert np.allclose(fam.evaluate(1.0), np.diag([1.0, 0.0]), atol=1e-14)
    steady = steady_state_basis(spectrum, jumps)
    assert steady.kernel_dim == 1
    assert np.max(np.abs(steady.physical_member - np.diag([1.0, 0.0]))) < 1e-12


def test_two_level_degenerate_energies_rejected():
    with pytest.raises(ValueError):
        build_two_level(1.0, 1.0, 0.1, 0.2)


def test_pauli_offdiag_correspondence():
    assert pauli_to_offdiag(1, 0, 0, 0) == (1 + 0j, 1 + 0j)
    l12, l21 = pauli_to_offdiag(0, 0, 1, 0)
    assert l12 == pytest.approx(-1j)
    assert l21 == pytest.approx(1j)

    rng = np.random.default_rng(17)
    for _ in range(50):
        coeffs = rng.standard_normal(4)
        l12, l21 = pauli_to_offdiag(*coeffs)
        back = offdiag_to_pauli(l12, l21)
        assert np.max(np.abs(np.array(back) - coeffs)) < 1e-14
        # the jump matrix built from either parameterization is the same
        mat = np.array([[0, l12], [l21, 0]])
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]])
        direct = (coeffs[0] + 1j * coeffs[1]) * s1 + (coeffs[2] + 1j * coeffs[3]) * s2
        assert np.max(np.abs(mat - direct)) < 1e-14
