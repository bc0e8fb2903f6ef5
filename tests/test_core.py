import tracemalloc
import warnings

import numpy as np
import pytest

from fgkls import (
    DegeneracyPartition,
    DensityMatrix,
    EnergySpectrum,
    bloch_to_matrix,
    classify_pairs,
    dissipator,
    fgkls_generator,
    matrix_to_bloch,
    random_density_matrix,
    stationarity_residual,
    vectorize_liouvillian,
    weak_coupling_ratio,
)
from fgkls.core import InvalidStateError, _check_states, _stacked_dissipator
from fgkls.exact import integrate_trajectory
from fgkls.models import OscillatorSpinConfig, SigmaPlus, SigmaXY, build_oscillator_spin, build_two_level
from fgkls.perturbation import OrderCoefficients, assemble_internal_system_deg, run_pointer_scheme

from helpers import (component_generator, kron_liouvillian, random_hermitian,
                     random_nondegenerate_model, stacked_dissipator_reference, unvec, vec)


# --- generator -------------------------------------------------------------

def test_generator_zero_jumps_diagonal_state_is_stationary():
    spectrum = EnergySpectrum(np.array([0.7, 1.9]))
    rho = np.diag([0.3, 0.7]).astype(complex)
    out = fgkls_generator(spectrum, [], rho)
    assert np.max(np.abs(out)) == 0.0


def test_generator_matches_component_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spectrum, jumps = random_nondegenerate_model(rng, dim=4, n_jumps=2, coupling=0.5)
        rho = random_hermitian(rng, 4)
        direct = fgkls_generator(spectrum, jumps, rho)
        brute = component_generator(spectrum.energies, jumps, rho)
        assert np.max(np.abs(direct - brute)) < 1e-12


def test_dissipator_maps_a_stack_member_by_member():
    rng = np.random.default_rng(8)
    _, jumps = random_nondegenerate_model(rng, dim=5, n_jumps=2, coupling=0.5)
    stack = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    out = dissipator(jumps, stack)
    assert out.shape == stack.shape
    for member, image in zip(stack, out):
        single = dissipator(jumps, member)
        assert np.linalg.norm(image - single) <= 1e-15 * np.linalg.norm(single)
    # one matrix keeps the bits of the single-matrix formula
    reference = np.zeros((5, 5), dtype=complex)
    for L in jumps:
        K = L.conj().T @ L
        reference += L @ stack[0] @ L.conj().T - 0.5 * (K @ stack[0] + stack[0] @ K)
    assert np.array_equal(dissipator(jumps, stack[0]), reference)


@pytest.mark.parametrize("n_jumps", [0, 1, 2])
@pytest.mark.parametrize("count", [1, 3, 6])
def test_stacked_product_in_caller_buffers_keeps_the_bits(count, n_jumps):
    # k = 1, 3 and D members; buffers that hold stale values must not leak
    # into the image, which keeps the bits of a fresh array per product
    rng = np.random.default_rng(10 * count + n_jumps)
    _, jumps = random_nondegenerate_model(rng, dim=6, n_jumps=max(n_jumps, 1), coupling=0.5)
    jumps = jumps[:n_jumps]
    stack = rng.standard_normal((count, 6, 6)) + 1j * rng.standard_normal((count, 6, 6))
    K = sum((L.conj().T @ L for L in jumps), np.zeros((6, 6), dtype=complex))
    out, first, second = (np.full(stack.shape, np.nan + 1j) for _ in range(3))
    image = _stacked_dissipator(K, [(L, L.conj().T) for L in jumps], stack, out, first, second)
    assert image is out
    assert np.array_equal(out, dissipator(jumps, stack))
    assert np.array_equal(out, stacked_dissipator_reference(jumps, stack))
    # swapped pairs give the adjoint, sum_a L_a^dag rho L_a - {K, rho} / 2, in the same buffers
    _stacked_dissipator(K, [(L.conj().T, L) for L in jumps], stack, out, first, second)
    adjoint = sum((L.conj().T @ stack @ L for L in jumps), np.zeros_like(stack))
    adjoint -= 0.5 * (K @ stack + stack @ K)
    assert np.linalg.norm(out - adjoint) <= 1e-14 * max(1.0, np.linalg.norm(adjoint))


@pytest.mark.parametrize("shape", [(5,), (5, 4), (2, 5, 4), (1, 2, 5, 5)])
def test_dissipator_checks_the_last_two_axes(shape):
    _, jumps = random_nondegenerate_model(np.random.default_rng(8), dim=5, n_jumps=1)
    with pytest.raises(ValueError, match="operator has shape"):
        dissipator(jumps, np.zeros(shape))
    # a jump is one matrix, never a stack, and matches the state's last axes
    with pytest.raises(ValueError, match=r"expected \(5, 5\)$"):
        dissipator([np.stack(jumps)], np.zeros((5, 5)))
    with pytest.raises(ValueError, match="operator has shape"):
        dissipator(jumps, np.zeros((5, 4, 4)))


def test_generator_matches_two_level_bloch_components():
    # 2x2 model H = e0 I + e3 s3, L = (a1+ib1) s1 + (a2+ib2) s2: the generator,
    # read in Bloch components, must reproduce the known component equations.
    rng = np.random.default_rng(11)
    from fgkls.models import pauli_to_offdiag

    for _ in range(50):
        e0, e3 = rng.standard_normal(), rng.uniform(0.5, 2.0)
        a1, b1, a2, b2 = 0.5 * rng.standard_normal(4)
        l12, l21 = pauli_to_offdiag(a1, b1, a2, b2)
        spectrum, jumps = build_two_level(e0 + e3, e0 - e3, l12, l21)
        r = 0.4 * rng.standard_normal(3)
        rho = bloch_to_matrix(*r)
        g = fgkls_generator(spectrum, jumps, rho)
        g1, g2, g3 = matrix_to_bloch(g)
        s_sum = a1**2 + a2**2 + b1**2 + b2**2
        expected = (
            -2 * (a2**2 + b2**2) * r[0] + 2 * (-e3 + a1 * a2 + b1 * b2) * r[1],
            2 * (e3 + a1 * a2 + b1 * b2) * r[0] - 2 * (a1**2 + b1**2) * r[1],
            -2 * s_sum * r[2] + 2 * (a1 * b2 - a2 * b1),
        )
        assert np.max(np.abs(np.array([g1, g2, g3]) - expected)) < 1e-12


def test_generator_two_level_pointer_is_stationary():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    pointer = np.diag([0.2, 0.8]).astype(complex)
    assert stationarity_residual(spectrum, jumps, pointer) < 1e-12


def test_generator_preserves_hermiticity_and_annihilates_trace():
    rng = np.random.default_rng(3)
    spectrum, jumps = random_nondegenerate_model(rng, dim=5, n_jumps=2, coupling=0.4)
    for _ in range(100):
        rho = random_hermitian(rng, 5)
        g = fgkls_generator(spectrum, jumps, rho)
        assert np.linalg.norm(g - g.conj().T) < 1e-12
        assert abs(g.trace()) < 1e-12


def test_generator_of_a_density_matrix_is_that_of_its_array():
    rng = np.random.default_rng(5)
    spectrum, jumps = random_nondegenerate_model(rng, dim=4, n_jumps=2)
    rho = random_density_matrix(4, rng)
    assert isinstance(rho, DensityMatrix)
    assert np.array_equal(fgkls_generator(spectrum, jumps, rho),
                          fgkls_generator(spectrum, jumps, rho.matrix))


def test_generator_dimension_mismatch():
    spectrum = EnergySpectrum(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        fgkls_generator(spectrum, [np.zeros((3, 3))], np.eye(2))
    with pytest.raises(ValueError):
        fgkls_generator(spectrum, [], np.eye(3))


# --- stationarity residual ---------------------------------------------------

def test_residual_spin_up_diagonal_sector():
    # raising-jump oscillator model: any state diagonal in the spin-up sector
    # is exactly stationary
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=0.3, jump_variant=SigmaPlus(0.4))
    spectrum, jumps = build_oscillator_spin(cfg)
    rho = np.zeros((8, 8), dtype=complex)
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    for m in range(4):
        rho[2 * m, 2 * m] = weights[m]
    assert stationarity_residual(spectrum, jumps, rho) < 1e-12


def test_residual_mixed_state_matches_brute_force():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    rho = 0.5 * np.eye(2, dtype=complex)
    expected = np.linalg.norm(component_generator(spectrum.energies, jumps, rho))
    value = stationarity_residual(spectrum, jumps, rho)
    assert value > 0.1
    assert abs(value - expected) < 1e-12


def test_residual_near_the_float_range_is_finite_without_a_warning():
    # the commutator entries (e_m - e_n) rho_mn are finite but their squares
    # are not: the unscaled norm overflowed to inf with a RuntimeWarning
    spectrum = EnergySpectrum(np.array([-8e307, 0.5, 8e307]))
    jumps = [np.array([[0.41 - 0.51j, 0.08 - 0.11j, -0.09 - 0.04j],
                       [-0.4 - 0.05j, -0.17 + 0.66j, 0.05 - 0.07j],
                       [-0.06 - 0.13j, -0.21 - 0.08j, 0.1 - 0.05j]])]
    rho = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = stationarity_residual(spectrum, jumps, rho)
    generator = fgkls_generator(spectrum, jumps, rho)
    reference = float(np.linalg.norm(generator * 2.0 ** -1020)) * 2.0 ** 1020
    assert np.isfinite(value) and value > 1e307
    assert value == pytest.approx(reference, rel=1e-15)


# --- degeneracy classification ----------------------------------------------

def test_classify_all_singletons():
    part = classify_pairs(EnergySpectrum(np.array([0.5, 1.5, 2.5])), 1e-9)
    assert part.classes == ((0,), (1,), (2,))
    assert not part.has_degeneracy
    assert part.class_ids.tolist() == [0, 1, 2]


def test_classify_oscillator_integer_q_pairs():
    cfg = OscillatorSpinConfig(n_levels=6, omega=1.0, delta=1.0, jump_variant=SigmaPlus(0.1))
    spectrum, _ = build_oscillator_spin(cfg)
    part = classify_pairs(spectrum)
    # q = 2: level (m, 0) pairs with (m+2, 1), i.e. flat 2m with flat 2m+5
    doubles = [c for c in part.classes if len(c) == 2]
    assert sorted(doubles) == [(0, 5), (2, 7), (4, 9), (6, 11)]
    for m, n in [(0, 5), (2, 7), (4, 9), (6, 11)]:
        assert part.class_ids[m] == part.class_ids[n]


def test_classify_oscillator_noninteger_q_all_singletons():
    cfg = OscillatorSpinConfig(n_levels=6, omega=1.0, delta=0.3, jump_variant=SigmaPlus(0.1))
    spectrum, _ = build_oscillator_spin(cfg)
    # enumeration oracle: no pairwise level difference vanishes
    e = spectrum.energies
    diffs = np.abs(e[:, None] - e[None, :])[~np.eye(12, dtype=bool)]
    assert diffs.min() > 1e-6
    part = classify_pairs(spectrum)
    assert all(len(c) == 1 for c in part.classes)


def test_classify_tolerance_monotone():
    rng = np.random.default_rng(5)
    base = np.repeat(rng.uniform(0.0, 5.0, 4), 2)
    energies = EnergySpectrum(base + rng.uniform(-1e-11, 1e-11, 8))
    coarse = classify_pairs(energies, 1e-9)
    fine = classify_pairs(energies, 1e-13)
    # shrinking the tolerance never merges: every fine class sits inside a coarse one
    for cls in fine.classes:
        owners = {int(coarse.class_ids[i]) for i in cls}
        assert len(owners) == 1
    assert len(fine.classes) >= len(coarse.classes)


def test_classify_deterministic():
    spectrum = EnergySpectrum(np.array([1.0, 1.0 + 1e-12, 3.0]))
    a = classify_pairs(spectrum, 1e-9)
    b = classify_pairs(spectrum, 1e-9)
    assert a.classes == b.classes == ((0, 1), (2,))


def test_classify_inconsistent_chain_rejected():
    spectrum = EnergySpectrum(np.array([0.0, 0.4, 0.8]))
    with pytest.raises(ValueError, match="transitive|coarse"):
        classify_pairs(spectrum, 0.5)


def test_classify_tolerance_near_gap_rejected():
    spectrum = EnergySpectrum(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="half the minimal"):
        classify_pairs(spectrum, 0.6)


def test_classify_tolerance_merging_distinct_levels_rejected():
    # one class left, so the half-gap rule has no gap to check
    with pytest.raises(ValueError, match="merges levels 1 and 2"):
        classify_pairs(EnergySpectrum(np.array([1.0, 2.0])), 10.0)
    with pytest.raises(ValueError, match="merges levels 1 and 1.1"):
        classify_pairs(EnergySpectrum(np.array([1.0, 1.1, 3.0])), 1.5)
    # a tolerance above the default may still merge levels equal within it
    part = classify_pairs(EnergySpectrum(np.array([1.0, 1.0 + 1e-12, 3.0])), 0.1)
    assert part.classes == ((0, 1), (2,))


# --- vectorized Liouvillian ---------------------------------------------------

def test_vectorize_matches_direct_generator():
    rng = np.random.default_rng(13)
    spectrum, jumps = random_nondegenerate_model(rng, dim=4, n_jumps=2, coupling=0.4)
    superop = vectorize_liouvillian(spectrum, jumps)
    assert superop.matrix.shape == (16, 16)
    for _ in range(20):
        rho = random_hermitian(rng, 4)
        direct = fgkls_generator(spectrum, jumps, rho)
        via_matrix = unvec(superop.matrix @ vec(rho))
        assert np.max(np.abs(direct - via_matrix)) < 1e-12


def test_vectorize_equals_kron_form():
    models = [build_two_level(1.0, 2.0, 1.0 + 0.3j, 2.0 - 0.5j)]
    for n_levels, delta in ((4, 1.0), (16, 0.3)):
        cfg = OscillatorSpinConfig(n_levels=n_levels, omega=1.0, delta=delta,
                                   jump_variant=SigmaXY(0.1 + 0.05j, 0.07 - 0.02j))
        models.append(build_oscillator_spin(cfg))
    rng = np.random.default_rng(21)
    models.append(random_nondegenerate_model(rng, dim=5, n_jumps=3, coupling=0.4))
    models.append((EnergySpectrum(np.array([0.3, 1.1, 2.0])), []))
    for spectrum, jumps in models:
        superop = vectorize_liouvillian(spectrum, jumps)
        assert superop.hilbert_dim == spectrum.dim
        # the same sums in the same order: equal, up to the sign of zeros
        assert np.array_equal(superop.matrix, kron_liouvillian(spectrum, jumps)), spectrum.dim


def test_vectorize_peak_memory_is_two_superoperators():
    # one reused per-jump buffer besides the matrix itself
    rng = np.random.default_rng(4)
    spectrum = EnergySpectrum(np.linspace(0.5, 3.0, 16))
    jumps = [rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)) for _ in range(3)]
    tracemalloc.start()
    try:
        superop = vectorize_liouvillian(spectrum, jumps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * superop.matrix.nbytes


def test_vectorize_zero_jumps_commutator_form():
    spectrum = EnergySpectrum(np.array([0.3, 1.1, 2.0]))
    superop = vectorize_liouvillian(spectrum, [])
    e = np.diag(spectrum.energies)
    ident = np.eye(3)
    expected = -1j * (np.kron(ident, e) - np.kron(e.T, ident))
    assert np.max(np.abs(superop.matrix - expected)) == 0.0
    assert np.max(np.abs(superop.matrix @ vec(np.eye(3)))) == 0.0


def test_vectorize_kernel_dimensions():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    s = np.linalg.svd(vectorize_liouvillian(spectrum, jumps).matrix, compute_uv=False)
    assert np.sum(s < 1e-10 * s[0]) == 1

    cfg = OscillatorSpinConfig(n_levels=6, omega=1.0, delta=0.3, jump_variant=SigmaPlus(0.3))
    spectrum, jumps = build_oscillator_spin(cfg)
    s = np.linalg.svd(vectorize_liouvillian(spectrum, jumps).matrix, compute_uv=False)
    assert np.sum(s < 1e-10 * s[0]) == 6


# --- Bloch helpers -------------------------------------------------------------

def test_bloch_round_trip_and_known_values():
    assert matrix_to_bloch(0.5 * np.eye(2)) == (0.0, 0.0, 0.0)
    assert matrix_to_bloch(np.diag([1.0, 0.0])) == (0.0, 0.0, 0.5)
    pointer = np.diag([0.2, 0.8]).astype(complex)
    assert np.allclose(matrix_to_bloch(pointer), (0.0, 0.0, -0.3), atol=1e-15)

    rng = np.random.default_rng(2)
    for _ in range(20):
        r = 0.5 * rng.standard_normal(3)
        back = matrix_to_bloch(bloch_to_matrix(*r))
        assert np.max(np.abs(np.array(back) - r)) < 1e-15


def test_bloch_wrong_dimension():
    with pytest.raises(ValueError):
        matrix_to_bloch(np.eye(3))


# --- density matrices ----------------------------------------------------------

def test_density_matrix_validation():
    DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_stack_validation_names_first_invalid_member():
    valid = np.diag([0.5, 0.5]).astype(complex)
    non_hermitian = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    trace_off = np.diag([0.6, 0.6]).astype(complex)
    non_psd = np.diag([1.5, -0.5]).astype(complex)
    stack = [valid, non_hermitian, trace_off, non_psd]
    # dropping the first bad member each time, the next one is named
    for bad in (1, 2, 3):
        members = [stack[0]] + stack[bad:]
        with pytest.raises(ValueError) as single:
            DensityMatrix(stack[bad])
        with pytest.raises(InvalidStateError) as batch:
            _check_states(np.array(members))
        assert str(batch.value) == str(single.value)
        assert batch.value.index == 1
    # a valid stack passes as it is, read-only, and each member is valid alone
    states = np.array([valid, random_density_matrix(2, np.random.default_rng(1)).matrix])
    states.flags.writeable = False
    assert _check_states(states) is None
    assert len(states) == 2 and all(isinstance(DensityMatrix(state), DensityMatrix) for state in states)
    assert np.array_equal(states[0], valid)
    assert not states.flags.writeable


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.5, np.nan)])
def test_density_matrix_rejects_non_finite_entries(entry):
    # every tolerance comparison with NaN is False, so finiteness is its own check
    bad = np.diag([0.5, 0.5]).astype(complex)
    bad[0, 1] = bad[1, 0] = entry
    with pytest.raises(InvalidStateError, match="non-finite") as single:
        DensityMatrix(bad)
    assert single.value.index == 0
    with pytest.raises(InvalidStateError, match="non-finite"):
        DensityMatrix(np.full((2, 2), np.nan))
    valid = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(InvalidStateError) as batch:
        _check_states(np.array([valid, valid, bad, np.full((2, 2), np.nan)]))
    assert str(batch.value) == str(single.value)
    assert batch.value.index == 2


def test_random_density_matrix_reproducible_and_valid():
    a = random_density_matrix(4, np.random.default_rng(42))
    b = random_density_matrix(4, np.random.default_rng(42))
    assert np.array_equal(a.matrix, b.matrix)
    assert abs(a.matrix.trace() - 1.0) < 1e-12
    assert np.linalg.eigvalsh(a.matrix).min() > -1e-12


def test_weak_coupling_ratio_diagnostic():
    spectrum, jumps = build_two_level(1.0, 2.0, 0.1, 0.2)
    ratio = weak_coupling_ratio(spectrum, jumps)
    assert ratio == pytest.approx(np.linalg.norm(jumps[0], 2) ** 2 / 2.0)


def test_weak_coupling_ratio_beyond_the_float_range_is_inf():
    # ||L||^2 = 1e320 raised OverflowError; a quotient past the range is inf too
    spectrum, jumps = build_two_level(1.0, 2.0, 1e160, 0.2)
    assert weak_coupling_ratio(spectrum, jumps) == float("inf")
    spectrum, jumps = build_two_level(1e-300, 0.0, 1e10, 0.2)
    assert weak_coupling_ratio(spectrum, jumps) == float("inf")


def test_weak_coupling_ratio_of_a_zero_hamiltonian():
    # no energy scale: any jump is infinitely strong, and no jump is no coupling
    spectrum = EnergySpectrum(np.zeros(2))
    jump = np.array([[0.0, 0.1], [0.0, 0.0]], dtype=complex)
    assert weak_coupling_ratio(spectrum, [jump]) == float("inf")
    assert weak_coupling_ratio(spectrum, [np.zeros((2, 2)), np.zeros((2, 2))]) == 0.0


# --- input checks --------------------------------------------------------------

# a partition of two levels for a three-level model
_THREE_LEVELS = EnergySpectrum(np.array([0.0, 1.0, 2.5]))
_TWO_CLASSES = DegeneracyPartition(((0,), (1,)), 0.0)


def _integrate(**kwargs):
    spectrum, jumps = build_two_level(1.0, 2.0, 0.5, 0.2)
    rho0 = random_density_matrix(2, np.random.default_rng(0))
    integrate_trajectory(spectrum, jumps, [rho0], **{"t_end": 1.0, "n_steps": 10, **kwargs})


@pytest.mark.parametrize("call, error, message", [
    (lambda: EnergySpectrum(np.array([])), ValueError, "non-empty"),
    (lambda: EnergySpectrum(np.array([0.0, np.nan])), ValueError, "finite"),
    (lambda: EnergySpectrum(np.array([-1e308, 0.0, 1e308])), ValueError,
     "spread max - min exceeds the float range"),
    (lambda: DegeneracyPartition(((0,), ()), 0.0), ValueError, "empty degeneracy class"),
    (lambda: DegeneracyPartition(((0, 1), (1,)), 0.0), ValueError, "disjoint"),
    (lambda: DegeneracyPartition(((0,), (2,)), 0.0), ValueError, "cover"),
    (lambda: classify_pairs(EnergySpectrum(np.array([0.0, 1.0])), -1e-9), ValueError,
     "tol_degen must be nonnegative"),
    (lambda: DensityMatrix(np.eye(2, 3)), ValueError, "square"),
    (lambda: _integrate(t_end=0.0), ValueError, "t_end must be positive"),
    (lambda: _integrate(n_steps=0), ValueError, "n_steps must be at least 1"),
    (lambda: _integrate(n_steps=10 ** 400), ValueError, "n_steps exceeds the float range"),
    (lambda: _integrate(record_every=0), ValueError, "record_every must be at least 1"),
    (lambda: OrderCoefficients(order=-1, coeff=np.eye(2)), ValueError, "nonnegative"),
    (lambda: run_pointer_scheme(_THREE_LEVELS, [np.eye(3)], _TWO_CLASSES), ValueError,
     "partition does not match spectrum dimension"),
    (lambda: assemble_internal_system_deg([np.eye(3)], _TWO_CLASSES), ValueError,
     "partition does not match operator dimension"),
    (lambda: build_oscillator_spin(OscillatorSpinConfig(n_levels=2, omega=1.0, delta=0.5,
                                                        jump_variant="sigma_z")),
     TypeError, "unknown jump variant"),
], ids=["empty energies", "non-finite energy", "energy spread beyond floats", "empty class",
        "overlapping classes", "non-covering classes", "negative tol_degen", "non-square state",
        "t_end <= 0", "n_steps < 1", "n_steps beyond floats", "record_every < 1", "negative order", "scheme partition size",
        "assembly partition size", "unknown jump variant"])
def test_public_constructors_reject_invalid_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
