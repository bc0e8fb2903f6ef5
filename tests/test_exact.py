import math
import os
import subprocess
import sys
import time
import tracemalloc
import zlib

import numpy as np
import pytest

import fgkls.exact
from fgkls import (
    DEFAULT_TOLERANCES,
    DensityMatrix,
    EnergySpectrum,
    bloch_to_matrix,
    matrix_to_bloch,
    random_density_matrix,
    run_pointer_scheme,
    stationarity_residual,
    unvec,
    vec,
    vectorize_liouvillian,
)
from fgkls.core import _hermitian_block, _real_embed, _vec_coordinates
from fgkls.exact import (
    EmptyKernelError,
    StepSizeError,
    Trajectory,
    TwoLevelParams,
    default_step,
    fit_exponential_rate,
    hermitian_affine_distance,
    integrate_trajectory,
    point_to_affine_distance,
    steady_state_basis,
    steady_state_basis_svd,
    two_level_bloch_exact,
    two_level_system,
    verify_identity_72,
)
from fgkls.exact import _bordered, _bordered_kernel, _certified_kernel, _swept_kernel
from fgkls.models import OscillatorSpinConfig, SigmaPlus, SigmaXY, build_oscillator_spin, build_two_level

from helpers import (connected_blocks, decoupled_level_model, kron_liouvillian,
                     orthonormal_hermitian_basis, orthonormal_span, protected_class_model,
                     random_jumps, random_nondegenerate_model, rk4_reference, structural_pattern,
                     swept_kernel_reference)


# --- null-space oracle -------------------------------------------------------

def test_kernel_two_level_unique_pointer():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    steady = steady_state_basis(spectrum, jumps)
    assert steady.kernel_dim == 1
    assert steady.physical_directions == ()
    assert np.max(np.abs(steady.physical_member - np.diag([0.2, 0.8]))) < 1e-12


def test_kernel_sigma_plus_spans_spin_up_diagonal():
    cfg = OscillatorSpinConfig(n_levels=6, omega=1.0, delta=0.3, jump_variant=SigmaPlus(0.3))
    spectrum, jumps = build_oscillator_spin(cfg)
    superop = vectorize_liouvillian(spectrum, jumps)
    steady = steady_state_basis(spectrum, jumps)
    assert steady.kernel_dim == 6
    # projector comparison against the expected span {|m,0><m,0|}
    def embed(mat):
        return np.concatenate([mat.real.ravel(), mat.imag.ravel()])

    basis = np.array([embed(b) for b in steady.basis])
    expected = []
    for m in range(6):
        unit = np.zeros((12, 12), dtype=complex)
        unit[2 * m, 2 * m] = 1.0
        expected.append(embed(unit))
    expected = np.array(expected)
    p_have = basis.T @ basis
    p_want = expected.T @ expected
    assert np.max(np.abs(p_have - p_want)) < 1e-10
    # every basis element is annihilated by the superoperator
    for b in steady.basis:
        assert np.linalg.norm(superop.apply(b)) < 1e-10


def test_kernel_zero_jumps_all_diagonals():
    spectrum = EnergySpectrum(np.array([0.4, 1.1, 2.3]))
    steady = steady_state_basis(spectrum, [])
    assert steady.kernel_dim == 3
    for b in steady.basis:
        off = b.copy()
        np.fill_diagonal(off, 0.0)
        assert np.max(np.abs(off)) < 1e-10
    assert abs(steady.physical_member.trace() - 1.0) < 1e-12
    assert len(steady.physical_directions) == 2


def dense_steady_reference(superop):
    """The oracle as one dense SVD of the whole superoperator.

    Returns (singular values, Hermitian kernel basis, physical member,
    physical directions), with the same cutoffs as `steady_state_basis`.
    """
    tol = DEFAULT_TOLERANCES.kernel
    _, s, vh = np.linalg.svd(superop.matrix)
    kernel = [unvec(vh[i].conj()) for i in range(s.size) if s[i] < tol * s[0]]
    candidates = []
    for k in kernel:
        candidates += [0.5 * (k + k.conj().T), (k - k.conj().T) / 2j]
    basis = [b for b in orthonormal_span(candidates)
             if np.linalg.norm(superop.matrix @ vec(b)) <= tol * max(s[0], 1.0)]
    traces = np.array([float(b.trace().real) for b in basis])
    member = sum((t / float(traces @ traces)) * b for t, b in zip(traces, basis))
    directions = []
    if len(basis) > 1:
        _, _, vt = np.linalg.svd(traces[None, :], full_matrices=True)
        directions = [sum(c * b for c, b in zip(row, basis)) for row in vt[1:]]
    return s, basis, member, directions


def worked_case(lam):
    """Four levels whose unique steady state |0><0| is reached through a lam^6 leak."""
    spectrum = EnergySpectrum(np.array([0.7, 1.5, 2.2, 3.0]))
    l1 = np.zeros((4, 4), dtype=complex)
    l1[0, 2], l1[1, 1], l1[1, 2] = 0.8 + 0.3j, 0.5 - 0.2j, -0.6 + 0.4j
    l2 = np.zeros((4, 4), dtype=complex)
    l2[1, 3] = 0.9 + 0.1j
    return spectrum, [0.1 * lam * l1, 0.1 * lam * l2]


def sigma_xy_case(n_levels, delta):
    cfg = OscillatorSpinConfig(n_levels=n_levels, omega=1.0, delta=delta,
                               jump_variant=SigmaXY(0.1 + 0.04j, 0.08 - 0.03j))
    return build_oscillator_spin(cfg)


BLOCK_CASES = {
    "sigma_xy_D8_integer_q": (lambda: sigma_xy_case(4, 1.0), 4),
    "sigma_xy_D16_noninteger_q": (lambda: sigma_xy_case(8, 0.3), 8),
    "two_level": (lambda: build_two_level(1.0, 2.0, 1.0 + 0.5j, 2.0), 1),
    # the population block's singular values (~1e-12) are kernel only under
    # the cutoff relative to the largest singular value over all blocks
    "two_level_weak_jumps": (lambda: build_two_level(1.0, 2.0, 1e-6, 2e-6), 2),
    # the lam^6 singular value is kernel at lam = 0.1 but not at lam = 1
    "worked_4x4_lam_0.1": (lambda: worked_case(0.1), 2),
    "worked_4x4_lam_1": (lambda: worked_case(1.0), 1),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_kernel_matches_dense_reference(case):
    build, expected_dim = BLOCK_CASES[case]
    spectrum, jumps = build()
    superop = vectorize_liouvillian(spectrum, jumps)
    steady = steady_state_basis(spectrum, jumps)
    s_ref, basis_ref, member_ref, dirs_ref = dense_steady_reference(superop)
    assert len(steady.block_sizes) > 1 and sum(steady.block_sizes) == superop.dim
    assert not steady.margin_is_bound
    assert steady.kernel_dim == len(basis_ref) == expected_dim
    assert hermitian_affine_distance(steady.physical_member, steady.physical_directions,
                                     member_ref, dirs_ref) < 1e-12
    s = steady.singular_values
    assert s.shape == (superop.dim,)
    assert np.all(np.diff(s) <= 0.0)
    assert np.max(np.abs(s - s_ref)) <= 1e-12 * s_ref[0]


def dense_case():
    return random_nondegenerate_model(np.random.default_rng(4), dim=6, n_jumps=2, coupling=0.3)


def test_one_block_kernel_matches_dense_reference():
    spectrum, jumps = dense_case()
    superop = vectorize_liouvillian(spectrum, jumps)
    steady = steady_state_basis(spectrum, jumps)
    s_ref, basis_ref, member_ref, dirs_ref = dense_steady_reference(superop)
    assert steady.block_sizes == (36,)
    assert steady.kernel_dim == len(basis_ref) == 1
    assert steady.margin_is_bound and steady.singular_values is None
    assert hermitian_affine_distance(steady.physical_member, steady.physical_directions,
                                     member_ref, dirs_ref) < 1e-12
    _assert_svd_route_matches(spectrum, jumps, steady, s_ref)


def test_one_block_dense_D12_kernel_matches_dense_reference():
    spectrum, jumps = spaced_dense_case(12, 0.15)
    superop = vectorize_liouvillian(spectrum, jumps)
    steady = steady_state_basis(spectrum, jumps)
    s_ref, basis_ref, member_ref, dirs_ref = dense_steady_reference(superop)
    assert steady.block_sizes == (144,)
    assert steady.kernel_dim == len(basis_ref) == 1
    assert steady.margin_is_bound and steady.singular_values is None
    assert hermitian_affine_distance(steady.physical_member, steady.physical_directions,
                                     member_ref, dirs_ref) < 1e-12
    _assert_svd_route_matches(spectrum, jumps, steady, s_ref)


def _assert_svd_route_matches(spectrum, jumps, steady, s_ref):
    """`steady_state_basis_svd` keeps every singular value and finds the same kernel."""
    full = steady_state_basis_svd(spectrum, jumps)
    assert not full.margin_is_bound and full.block_sizes == steady.block_sizes
    assert full.singular_values.shape == s_ref.shape
    assert np.max(np.abs(full.singular_values - s_ref)) <= 1e-12 * s_ref[0]
    assert full.kernel_dim == steady.kernel_dim
    assert hermitian_affine_distance(full.physical_member, full.physical_directions,
                                     steady.physical_member, steady.physical_directions) < 1e-12


def _record_svds(monkeypatch, values_only=False):
    """Shapes of the SVDs called while patched.

    Those that compute singular vectors, or with `values_only` those that do not.
    """
    shapes = []
    real_svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        if kwargs.get("compute_uv", True) != values_only:
            shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def test_one_block_kernel_takes_no_svd_with_vectors(monkeypatch):
    # one kernel value with a trace coordinate: the bordered solve gives the vector
    spectrum, jumps = dense_case()
    shapes = _record_svds(monkeypatch)
    assert steady_state_basis(spectrum, jumps).kernel_dim == 1
    assert shapes == []


def spaced_dense_case(dim, min_gap):
    """A dense model whose level gaps are at least `min_gap` by construction, without redraws."""
    rng = np.random.default_rng(dim)
    energies = np.sort(rng.uniform(0.5, 3.0 - (dim - 1) * min_gap, dim)) + min_gap * np.arange(dim)
    return EnergySpectrum(energies), random_jumps(rng, dim, 2, 0.3 * energies.max())


@pytest.mark.parametrize("dim", [18, 16])
def test_random_model_without_room_for_its_gaps_raises(dim):
    # 17 gaps of 0.15 exceed the 2.5-wide range; 15 fit, but almost no draw has them
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"dim {dim} .*min_gap 0.15"):
        random_nondegenerate_model(np.random.default_rng(0), dim=dim)
    assert time.perf_counter() - start < 1.0


def dense_D8_case(seed):
    return random_nondegenerate_model(np.random.default_rng(seed), dim=8, n_jumps=1, coupling=0.5)


def weak_dense_case():
    """A weakly coupled one-block model that the certificate cannot decide.

    Its smallest rejected singular value, 1.6e-9 of s_max, lies within
    KERNEL_MARGIN of the 1e-10 cutoff.
    """
    return random_nondegenerate_model(np.random.default_rng(0), dim=6, n_jumps=2, coupling=3e-5)


@pytest.mark.parametrize("build", [dense_case, lambda: dense_D8_case(0)], ids=["D6", "D8"])
def test_one_block_kernel_is_certified_without_svd(monkeypatch, build):
    spectrum, jumps = build()
    shapes = _record_svds(monkeypatch)
    values = _record_svds(monkeypatch, values_only=True)
    steady = steady_state_basis(spectrum, jumps)
    assert shapes == values == [] and steady.margin_is_bound
    assert steady.singular_values is None
    monkeypatch.undo()
    _assert_matches_dense_reference(spectrum, jumps, steady)


@pytest.mark.parametrize("build", [dense_case, lambda: dense_D8_case(0), lambda: dense_D8_case(1),
                                   lambda: worked_case(1.0)],
                         ids=["D6", "D8_0", "D8_1", "worked_4x4_lam_1"])
def test_certified_margin_bounds_the_singular_values(build):
    spectrum, jumps = build()
    steady = steady_state_basis(spectrum, jumps)
    s = np.linalg.svd(vectorize_liouvillian(spectrum, jumps).matrix, compute_uv=False)
    rel = s / s[0]
    kept, rejected = steady.kernel_margin
    if not steady.margin_is_bound:
        # several blocks: the margin is read off the singular values
        assert len(steady.block_sizes) > 1
        assert kept == pytest.approx(rel[-1], abs=1e-15) and rejected == pytest.approx(rel[-2])
        return
    assert steady.kernel_dim == 1
    assert rejected <= rel[-2]
    # the SVD finds the smallest value only to about n eps of s_max
    assert kept >= rel[-1] - s.size * np.finfo(float).eps


def known_singular_block(n=8):
    """R = U diag(s) V^T with u_n = v_n, its trace row u_n, and (v_n, s).

    The bordered solution is x = v_n exactly, so ||R x|| = s_n and the
    certificate's bounds can be checked against s.
    """
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w, _ = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
    v = u.copy()
    v[:, :-1] = u[:, :-1] @ w
    s = np.array([3.0, 2.0, 1.5, 1.2, 1.0, 0.8, 1e-4, 1e-12])
    return (u * s) @ v.T, u[:, -1], v[:, -1], s


def residual_rounding(core, lo):
    """Allowance for the rounding of ||R x|| / lo, for a unit x on `core`'s columns.

    Each entry of R x is a sum of n products, off by at most n u (|R| |x|)_i
    with u the unit roundoff, so ||R x|| is off by at most n u ||R||_F.  R is
    itself U diag(s) V^T rounded, which moves s_n by about u ||R||, well inside.
    On `known_singular_block` this is about 4e-3 of s_n / lo; without it a
    bound check holds only when ||R x|| happens to round up.
    """
    return core.shape[0] * np.finfo(float).eps / 2 * np.linalg.norm(core) / lo


def test_certificate_bounds_are_sharp_on_known_singular_values():
    # the bordered inverse of a built block, the route without a gapped coherence
    sub, trace, kernel, s = known_singular_block()
    solved, bounds = _bordered_kernel(sub, trace)
    lo, (kept, rejected) = _certified_kernel(*bounds, 1e-10)
    assert abs(solved @ kernel) / np.linalg.norm(solved) == pytest.approx(1.0, abs=1e-12)
    assert lo <= s[0]
    slack = residual_rounding(sub, lo)
    assert s[-1] / s[0] - slack <= kept <= min(s[-1] / lo + slack, 1e-10)
    assert 1e3 * 1e-10 < rejected <= s[-2] / s[0]


def test_gapped_certificate_bounds_are_sharp_on_known_singular_values():
    # every coherence of a weakly coupled D = 8 model is gapped: the sweeps'
    # bounds against the singular values of its built block R and of the
    # bordered B, within a few eta / min gap of them
    spectrum, jumps = random_nondegenerate_model(np.random.default_rng(3), dim=8, n_jumps=2,
                                                 coupling=0.01)
    sub, trace = certificate_inputs(spectrum, jumps)
    s = np.linalg.svd(sub, compute_uv=False)
    sigma_min = np.linalg.svd(_bordered(sub[None], trace[None])[0], compute_uv=False)[-1]
    solved, bounds, (sweeps, factor) = _swept_kernel(spectrum, jumps)
    residual, low, hi, lo = bounds
    assert factor < 0.05 and 0 < sweeps <= 2 + math.ceil(math.log(np.finfo(float).eps)
                                                          / math.log(factor))
    assert 0.99 * s[0] < lo <= s[0] <= hi < 1.01 * s[0]
    assert 0.95 * sigma_min < low <= sigma_min
    lo_certified, (kept, rejected) = _certified_kernel(*bounds, 1e-10)
    assert lo_certified == lo and kept == residual / lo
    # the SVD finds the smallest value only to about n eps of s_max
    assert s[-1] / s[0] - s.size * np.finfo(float).eps <= kept <= 1e-10
    assert 0.9 * s[-2] / s[0] < rejected <= s[-2] / s[0]
    x = solved / np.linalg.norm(solved)
    assert np.linalg.norm(sub @ x) <= 1e-15 * s[0]


@pytest.mark.parametrize("lam", [1.0, 0.1])
@pytest.mark.parametrize("dim", [6, 12])
def test_swept_kernel_keeps_the_bits_of_allocating_sweeps(dim, lam):
    # the sweeps write every stack into one workspace; the kernel vector and
    # the sweep count are those of a loop that allocates every product, with
    # some coherences ungapped at lambda = 1 and every one gapped at 0.1
    spectrum, jumps = spaced_dense_case(dim, 0.5 / dim)
    jumps = [0.2 * lam * L for L in jumps]
    solved, _, (sweeps, _) = _swept_kernel(spectrum, jumps)
    reference, reference_sweeps = swept_kernel_reference(spectrum, jumps)
    assert np.array_equal(solved, reference) and sweeps == reference_sweeps > 0
    count = gapped_coherences(spectrum, jumps)
    assert count == dim * (dim - 1) if lam < 1 else 0 < count < dim * (dim - 1)


def _record_solves(monkeypatch):
    """Shapes of the matrices `np.linalg.solve` factors while patched."""
    shapes = []
    real_solve = np.linalg.solve

    def recording(a, b):
        shapes.append(np.shape(a)[-2:])
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return shapes


def test_one_block_kernel_near_cutoff_falls_back_to_svd(monkeypatch):
    spectrum, jumps = weak_dense_case()
    values = _record_svds(monkeypatch, values_only=True)
    solves = _record_solves(monkeypatch)
    steady = steady_state_basis(spectrum, jumps)
    # the sweeps ran and their certificate failed, so the block is built and
    # its values-only SVD decides; the kernel vector is the one the sweeps
    # gave, so no solve, nor any other SVD, is larger than the levels and
    # the border: never the 37 x 37 B
    assert values[-1] == (1, 36, 36) and not steady.margin_is_bound
    assert steady.sweeps is not None
    assert all(shape[-1] <= 7 for shape in solves + values[:-1])
    monkeypatch.undo()
    s_ref, basis_ref, member_ref, _ = dense_steady_reference(
        vectorize_liouvillian(spectrum, jumps))
    assert 1e-10 < s_ref[-2] / s_ref[0] < 1e-7
    assert steady.kernel_margin[1] == pytest.approx(s_ref[-2] / s_ref[0], rel=1e-6)
    assert steady.kernel_dim == len(basis_ref) == 1
    # the kernel vector is only as well conditioned as the gap s_2 / s_max
    assert hermitian_affine_distance(steady.physical_member, (), member_ref, []) < 1e-6


def one_block_case(rng, spectrum_kind):
    """A random one-block model: D = 3-8, 1-2 jumps, coupling 1e-3 to 3 times max |E|.

    `spectrum_kind` is "distinct" (gaps of at least 0.1), "degenerate"
    (every level at one energy) or "near" (pairs of levels 1e-9 apart).
    """
    dim = int(rng.integers(3, 9))
    energies = np.sort(rng.uniform(0.5, 3.0 - 0.1 * (dim - 1), dim)) + 0.1 * np.arange(dim)
    if spectrum_kind == "degenerate":
        energies[:] = energies[0]
    elif spectrum_kind == "near":
        energies[1::2] = energies[:dim - dim % 2:2] + 1e-9
    coupling = 10.0 ** rng.uniform(-3, np.log10(3.0))
    jumps = random_jumps(rng, dim, int(rng.integers(1, 3)), coupling * energies.max())
    return EnergySpectrum(energies), jumps


def certificate_inputs(spectrum, jumps):
    """(R, t) of a one-block model: its built real block and trace row."""
    [((idx,), (sub,))] = list(fgkls.exact._real_blocks(spectrum, jumps))
    unknowns, _, _, _ = _vec_coordinates(spectrum.dim)
    return sub, (unknowns[idx, 0] == 0).astype(float)


def gapped_coherences(spectrum, jumps):
    """How many coherences (m, n) the sweeps gap: |eps_m - eps_n| > 4 sum_a ||L_a||_2^2."""
    e = spectrum.energies
    eta = 2 * sum(np.linalg.norm(L, 2) ** 2 for L in jumps)
    return int(np.sum(np.abs(e[:, None] - e[None, :]) > 2 * eta))


@pytest.mark.parametrize("spectrum_kind", ["distinct", "degenerate", "near"])
def test_split_certificate_is_sound_on_random_one_block_models(spectrum_kind):
    # low <= sigma_min(B) and lo <= s_max <= hi against SVDs of the built
    # block, on every model, certified or not; a certified kernel matches the
    # SVD route's
    rng = np.random.default_rng(["distinct", "degenerate", "near"].index(spectrum_kind))
    certified = 0
    gapped = set()
    for _ in range(40):
        spectrum, jumps = one_block_case(rng, spectrum_kind)
        sub, trace = certificate_inputs(spectrum, jumps)
        swept = _swept_kernel(spectrum, jumps)
        _, (_, low, hi, lo) = _bordered_kernel(sub, trace) if swept is None else swept[:2]
        count = gapped_coherences(spectrum, jumps)
        assert (swept is None) == (count == 0)
        coherences = spectrum.dim * (spectrum.dim - 1)
        gapped.add("none" if count == 0 else "all" if count == coherences else "part")
        sigma_min = np.linalg.svd(_bordered(sub[None], trace[None])[0], compute_uv=False)[-1]
        s_max = np.linalg.svd(sub, compute_uv=False)[0]
        assert low <= sigma_min * (1 + 1e-10)
        assert lo <= s_max * (1 + 1e-12) and s_max <= hi * (1 + 1e-12)
        steady = steady_state_basis(spectrum, jumps)
        if steady.margin_is_bound:
            certified += 1
            full = steady_state_basis_svd(spectrum, jumps)
            assert steady.kernel_dim == full.kernel_dim
            assert hermitian_affine_distance(steady.physical_member, steady.physical_directions,
                                             full.physical_member, full.physical_directions) < 1e-12
    # a degenerate spectrum has no gap and takes the bordered inverse; a near
    # pair is never gapped; distinct levels meet every case
    expected = {"distinct": {"none", "part", "all"}, "degenerate": {"none"},
                "near": {"none", "part"}}[spectrum_kind]
    assert certified > 0 and gapped == expected


def _certificate_from_bordered_inverse(sub, trace):
    """(B^-1[:n, n], certificate) from one inverse of the whole bordered matrix B."""
    n = sub.shape[0]
    inverse = np.linalg.inv(_bordered(sub[None], trace[None])[0])
    solved = inverse[:n, n]
    x = solved / np.linalg.norm(solved)
    low = 1.0 / float(np.linalg.norm(inverse))
    hi = math.sqrt(float(np.linalg.norm(sub, 1)) * float(np.linalg.norm(sub, np.inf)))
    lo = float(np.linalg.norm(sub, axis=0).max())
    residual = float(np.linalg.norm(sub @ x))
    return solved, (lo, (residual / lo, low / hi))


def test_certificate_without_hamiltonian_is_the_bordered_inverse():
    # H = 0: no gapped coherence, so no sweeps and one inverse of the whole
    # built B, bit for bit
    rng = np.random.default_rng(5)
    spectrum = EnergySpectrum(np.zeros(5))
    jumps = random_jumps(rng, 5, 2, 0.5)
    assert _swept_kernel(spectrum, jumps) is None
    sub, trace = certificate_inputs(spectrum, jumps)
    solved, bounds = _bordered_kernel(sub, trace)
    certificate = _certified_kernel(*bounds, 1e-10)
    solved_ref, certificate_ref = _certificate_from_bordered_inverse(sub, trace)
    assert certificate is not None
    assert np.array_equal(solved, solved_ref) and certificate == certificate_ref
    steady = steady_state_basis(spectrum, jumps)
    assert steady.sweeps is None and steady.kernel_margin == certificate[1]


def _record_builds(monkeypatch):
    """Names of the calls of `_real_blocks` and `_grid_blocks`, which build blocks, while patched."""
    builds = []
    for name in ("_real_blocks", "_grid_blocks"):
        real = getattr(fgkls.exact, name)
        monkeypatch.setattr(fgkls.exact, name,
                            lambda *args, _name=name, _real=real: builds.append(_name)
                            or _real(*args))
    return builds


def test_certificate_inverts_no_block_larger_than_the_levels(monkeypatch):
    # weak coupling gaps every coherence of a dense D = 12 model: the sweeps
    # build no block, and no solve, inverse or SVD is larger than the 12
    # populations and the border, never the 145 x 145 bordered matrix
    rng = np.random.default_rng(12)
    d = 12
    energies = np.sort(rng.uniform(0.5, 3.0 - 0.15 * (d - 1), d)) + 0.15 * np.arange(d)
    jumps = random_jumps(rng, d, 2, 0.05)
    inverses = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(np.shape(a)) or real_inv(a))
    solves = _record_solves(monkeypatch)
    values = _record_svds(monkeypatch, values_only=True)
    vectors = _record_svds(monkeypatch)
    builds = _record_builds(monkeypatch)
    steady = steady_state_basis(EnergySpectrum(energies), jumps)
    assert steady.margin_is_bound and steady.block_sizes == (d * d,) and steady.sweeps[0] > 0
    assert builds == [] and vectors == []
    assert solves and all(shape[-1] <= d + 1 for shape in solves + inverses + values)
    monkeypatch.undo()
    _assert_matches_dense_reference(EnergySpectrum(energies), jumps, steady)


@pytest.mark.parametrize("failure", ["singular", "non-finite"])
def test_failed_certificate_inverse_falls_back_to_svd(monkeypatch, failure):
    spectrum, jumps = dense_case()
    real_inv = np.linalg.inv

    def failing(a):
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        inverse = real_inv(a)
        inverse[0, -1] = np.inf
        return inverse

    monkeypatch.setattr(np.linalg, "inv", failing)
    values = _record_svds(monkeypatch, values_only=True)
    steady = steady_state_basis(spectrum, jumps)
    assert values == [(1, 36, 36)] and not steady.margin_is_bound
    monkeypatch.undo()
    _assert_matches_dense_reference(spectrum, jumps, steady)


def dense32_case(seed, lam):
    """The model of the benchmark's compare-dense32 workload for `seed`, jumps times `lam`.

    D = 32 levels in [0.5, 3] with every gap at least 1/64, and two complex
    Gaussian jumps of spectral norm 0.005 max E.
    """
    d = 32
    rng = np.random.default_rng([seed, zlib.crc32(b"compare-dense32")])
    energies = np.sort(rng.uniform(0.5, 3.0 - (d - 1) * 0.5 / d, d)) + 0.5 / d * np.arange(d)
    return EnergySpectrum(energies), [lam * L for L in random_jumps(rng, d, 2,
                                                                    0.005 * energies.max())]


@pytest.mark.parametrize("seed", range(6))
def test_dense32_kernel_at_weak_coupling_is_certified(monkeypatch, seed):
    # at lambda = 0.1 sigma_2 / s_max is about 4e-7, four times the 1e-7 the
    # certificate needs; 1 / ||S^-1||_F, a quarter of sigma_min(S), missed it
    spectrum, jumps = dense32_case(seed, 0.1)
    builds = _record_builds(monkeypatch)
    steady = steady_state_basis(spectrum, jumps)
    assert steady.margin_is_bound and steady.kernel_dim == 1 and builds == []
    count, factor = steady.sweeps
    assert factor < 1e-3 and count <= 8
    assert 1e-7 < steady.kernel_margin[1] < 5e-7
    if seed == 0:
        monkeypatch.undo()
        full = steady_state_basis_svd(spectrum, jumps)
        assert full.kernel_dim == 1
        assert full.kernel_margin[1] == pytest.approx(steady.kernel_margin[1], rel=0.05)
        assert np.linalg.norm(full.physical_member - steady.physical_member) < 1e-12


def test_certified_kernel_holds_no_block():
    # one (D^2, D^2) real block at D = 24 is 2.65 MB; the sweeps hold stacks
    # of D^3 complex entries
    d = 24
    spectrum, jumps = spaced_dense_case(d, 0.5 / d)
    jumps = [0.02 * L for L in jumps]
    tracemalloc.start()
    try:
        steady = steady_state_basis(spectrum, jumps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steady.margin_is_bound and steady.sweeps is not None
    assert peak < (d * d) ** 2 * 8


def protected_coherence_case():
    """Levels 0 and 1 degenerate, sigma_x dephasing between them, decay 2 -> 0.

    The real part of rho_01 is stationary: its block has one kernel value
    and no diagonal coordinate.
    """
    sx = np.zeros((3, 3), dtype=complex)
    sx[0, 1] = sx[1, 0] = 0.3
    decay = np.zeros((3, 3), dtype=complex)
    decay[0, 2] = 0.2
    return EnergySpectrum(np.array([1.0, 1.0, 2.0])), [sx, decay]


def _assert_matches_dense_reference(spectrum, jumps, steady):
    _, basis_ref, member_ref, dirs_ref = dense_steady_reference(
        vectorize_liouvillian(spectrum, jumps))
    assert steady.kernel_dim == len(basis_ref)
    assert hermitian_affine_distance(steady.physical_member, steady.physical_directions,
                                     member_ref, dirs_ref) < 1e-12


def test_kernel_block_without_trace_coordinate_takes_full_svd(monkeypatch):
    spectrum, jumps = protected_coherence_case()
    shapes = _record_svds(monkeypatch)
    steady = steady_state_basis(spectrum, jumps)
    assert steady.kernel_dim == 2 and steady.block_sizes == (2, 2, 2, 3)
    # the coherence block's full SVD, then the 1 x 2 trace row of the directions
    assert shapes == [(1, 2, 2), (1, 2)]
    _assert_matches_dense_reference(spectrum, jumps, steady)


@pytest.mark.parametrize("failure", ["residual", "singular"])
@pytest.mark.parametrize("case", ["dense_D6", "worked_4x4_lam_1"])
def test_kernel_failed_bordered_solve_falls_back_to_full_svd(monkeypatch, failure, case):
    # the one-block dense case takes its bordered solution from the
    # certificate's solve and inverse, which fail the same way
    spectrum, jumps = dense_case() if case == "dense_D6" else worked_case(1.0)

    def failing(real):
        def call(*args):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return real(*args) + 1e-3
        return call

    monkeypatch.setattr(np.linalg, "solve", failing(np.linalg.solve))
    monkeypatch.setattr(np.linalg, "inv", failing(np.linalg.inv))
    shapes = _record_svds(monkeypatch)
    steady = steady_state_basis(spectrum, jumps)
    assert steady.kernel_dim == 1
    assert len(shapes) == 1 and shapes[0][0] == 1
    _assert_matches_dense_reference(spectrum, jumps, steady)


@pytest.mark.parametrize("case", sorted(BLOCK_CASES) + ["dense_D6"])
def test_kernel_basis_is_hermitian_and_orthonormal(case):
    spectrum, jumps = dense_case() if case == "dense_D6" else BLOCK_CASES[case][0]()
    steady = steady_state_basis(spectrum, jumps)
    assert all(np.array_equal(b, b.conj().T) for b in steady.basis)
    flat = np.array([b.ravel() for b in steady.basis])
    assert np.max(np.abs(flat.conj() @ flat.T - np.eye(len(flat)))) < 1e-12
    assert sum(steady.block_sizes) == spectrum.dim ** 2


def test_kernel_zero_superoperator_is_everything():
    steady = steady_state_basis(EnergySpectrum(np.ones(3)), [])
    assert steady.kernel_dim == 9


def test_kernel_one_level_model_is_not_certified():
    # its one real block is the zero 1 x 1 matrix: no bound on s_max exists
    steady = steady_state_basis(EnergySpectrum(np.array([1.0])), [])
    assert steady.kernel_dim == 1 and not steady.margin_is_bound
    assert steady.kernel_margin == (0.0, None)


def test_svd_route_takes_no_inverse(monkeypatch):
    # `steady_state_basis_svd` keeps every singular value: one values-only
    # SVD of the one block and one bordered solve, and no certificate
    spectrum, jumps = dense_case()
    monkeypatch.setattr(np.linalg, "inv", None)
    values = _record_svds(monkeypatch, values_only=True)
    steady = steady_state_basis_svd(spectrum, jumps)
    assert values == [(1, 36, 36)] and not steady.margin_is_bound
    assert steady.singular_values.shape == (36,)
    monkeypatch.undo()
    _assert_matches_dense_reference(spectrum, jumps, steady)


@pytest.mark.parametrize("oracle", [steady_state_basis, steady_state_basis_svd])
@pytest.mark.parametrize("build", [dense_case, lambda: build_two_level(1.0, 2.0, 1.0, 2.0)],
                         ids=["dense_D6", "two_level"])
def test_kernel_cutoff_below_every_value_is_an_empty_kernel(oracle, build):
    with pytest.raises(EmptyKernelError, match="tol_kernel 1e-300 times s_max"):
        oracle(*build(), tol_kernel=1e-300)


def test_kernel_drops_candidates_the_direct_generator_rejects(monkeypatch):
    # every candidate fails the direct-generator check, so none is kept
    monkeypatch.setattr(fgkls.exact, "stationarity_residual", lambda *args: np.inf)
    with pytest.raises(RuntimeError, match="residual cutoff"):
        steady_state_basis(*build_two_level(1.0, 2.0, 1.0, 2.0))


# --- real Liouvillian blocks ----------------------------------------------------

def sigma_xy_equal_case():
    """SigmaXY with |gamma1| = |gamma2|: some superoperator entries cancel exactly."""
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(0.1, 0.1))
    return build_oscillator_spin(cfg)


def decoupled_case():
    """A dense D = 6 model with its last level decoupled: blocks of 1, 10 and 25 indices."""
    return decoupled_level_model(*random_nondegenerate_model(np.random.default_rng(5), dim=6,
                                                             n_jumps=2, coupling=0.3))


REAL_BLOCK_CASES = {
    "one_level": (lambda: (EnergySpectrum(np.array([1.0])), []), (1,)),
    "zero_jumps": (lambda: (EnergySpectrum(np.array([0.4, 1.1, 2.3])), []), (1, 1, 1, 2, 2, 2)),
    "dense_one_block": (dense_case, (36,)),
    "decoupled_level": (decoupled_case, (1, 10, 25)),
    "sigma_xy_equal_gamma": (sigma_xy_equal_case, (2,) * 8 + (4,) * 12),
    "sigma_xy_unequal_gamma": (lambda: sigma_xy_case(4, 1.0), (2,) * 8 + (4,) * 12),
}


@pytest.mark.parametrize("case", sorted(REAL_BLOCK_CASES))
def test_real_blocks_match_rotated_superoperator(case):
    # block by block Re(U^dag M U), with nothing outside the blocks, and the
    # blocks are the components of the structural pattern
    build, sizes = REAL_BLOCK_CASES[case]
    spectrum, jumps = build()
    u = orthonormal_hermitian_basis(spectrum.dim)
    reference = (u.conj().T @ kron_liouvillian(spectrum, jumps) @ u).real
    tol = 8 * np.finfo(float).eps * np.max(np.abs(reference))
    blocks = [(i, sub) for idx, subs in fgkls.exact._real_blocks(spectrum, jumps)
              for i, sub in zip(idx, subs)]
    assert tuple(i.size for i, _ in blocks) == sizes
    outside = reference.copy()
    for i, sub in blocks:
        assert np.max(np.abs(sub - reference[np.ix_(i, i)])) <= tol
        outside[np.ix_(i, i)] = 0.0
    assert np.max(np.abs(outside)) <= tol
    structural = connected_blocks(structural_pattern(spectrum, jumps))
    assert sorted(i.tolist() for i, _ in blocks) == [b.tolist() for b in structural]


def test_real_blocks_link_entries_that_cancel():
    # the superoperator's own nonzero pattern (with the mirror link) splits
    # 26 blocks; the blocks follow the jumps' patterns, and the kernel is the same
    spectrum, jumps = sigma_xy_equal_case()
    numeric = vectorize_liouvillian(spectrum, jumps).matrix != 0
    # without jumps the structural pattern is the mirror link alone
    numeric |= structural_pattern(spectrum, [])
    assert len(connected_blocks(numeric)) == 26
    steady = steady_state_basis(spectrum, jumps)
    assert len(steady.block_sizes) == 20 and steady.kernel_dim == 4
    _assert_matches_dense_reference(spectrum, jumps, steady)


def test_product_block_is_evaluated_on_its_grid(monkeypatch):
    # a block of every pair of a set of levels is built by the grid builder,
    # and matches the closed form on the block's gathered index arrays
    spectrum, jumps = decoupled_case()
    real = fgkls.exact._grid_blocks
    grids = []

    def recording(jumps, g, alpha, levels):
        out = real(jumps, g, alpha, levels)
        d = g.shape[0]
        idx = (levels[:, None, :] + d * levels[:, :, None]).reshape(len(levels), -1)
        rows = idx[:, :, None] % d, idx[:, :, None] // d, alpha[idx[:, :, None]]
        cols = idx[:, None, :] % d, idx[:, None, :] // d, alpha[idx[:, None, :]]
        gathered = _hermitian_block(jumps, g, rows, cols)
        assert out.shape == gathered.shape
        assert np.max(np.abs(out - gathered)) <= 8 * np.finfo(float).eps * np.max(np.abs(gathered))
        grids.append(idx.shape[1])
        return out

    monkeypatch.setattr(fgkls.exact, "_grid_blocks", recording)
    steady = steady_state_basis(spectrum, jumps)
    assert grids == [1, 25] and steady.block_sizes == (1, 10, 25)
    monkeypatch.undo()
    _assert_matches_dense_reference(spectrum, jumps, steady)


def test_product_block_holds_few_temporaries():
    # one dense block of D^2 indices: the builder's temporaries are slabs of
    # D^3 complex entries, not the D^4 images
    d = 24
    spectrum, jumps = spaced_dense_case(d, 0.05)
    tracemalloc.start()
    try:
        (idx, sub), = fgkls.exact._real_blocks(spectrum, jumps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sub.shape == (1, d * d, d * d)
    assert peak < 2 * sub.nbytes


_BLOCK_DIGEST = """
import hashlib
import numpy as np
import fgkls.exact
from helpers import random_nondegenerate_model
spectrum, jumps = random_nondegenerate_model(np.random.default_rng(0), dim=8, n_jumps=1,
                                             coupling=0.5)
digest = hashlib.sha256()
for idx, sub in fgkls.exact._real_blocks(spectrum, jumps):
    digest.update(idx.tobytes())
    digest.update(sub.tobytes())
print(digest.hexdigest())
"""


def test_product_block_bits_do_not_depend_on_blas_threads():
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests]
                                        + env.get("PYTHONPATH", "").split(os.pathsep))
    digests = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _BLOCK_DIGEST], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_oracle_at_D64_assembles_no_superoperator():
    # one complex D^4 superoperator at D = 64 is 268 MB
    cfg = OscillatorSpinConfig(n_levels=32, omega=1.0, delta=1.0,
                               jump_variant=SigmaXY(0.1 + 0.04j, 0.08 - 0.03j))
    spectrum, jumps = build_oscillator_spin(cfg)
    tracemalloc.start()
    try:
        steady = steady_state_basis(spectrum, jumps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert sum(steady.block_sizes) == 64 ** 2 and steady.kernel_dim == 32


# --- time-domain oracle ---------------------------------------------------------

def test_trajectory_steady_state_is_fixed_point():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    steady = steady_state_basis(spectrum, jumps)
    (traj,) = integrate_trajectory(spectrum, jumps, [DensityMatrix(steady.physical_member)],
                                   t_end=8.0, n_steps=2000)
    drift = max(np.max(np.abs(s - steady.physical_member)) for s in traj.states)
    assert drift < 1e-10


def test_trajectory_two_level_asymptotics():
    params = TwoLevelParams(eps0=0.7, eps3=1.0, a1=0.4, b1=0.1, a2=-0.2, b2=0.3)
    spectrum, jumps = two_level_system(params)
    rho0 = DensityMatrix(bloch_to_matrix(0.25, -0.15, 0.35))
    t_end = 14.0 / params.decay_sum
    (traj,) = integrate_trajectory(spectrum, jumps, [rho0], t_end=t_end,
                                   n_steps=int(t_end / 0.01), record_every=10)
    r1, r2, r3 = matrix_to_bloch(traj.final_state)
    assert abs(r3 - params.asymmetry / params.decay_sum) < 1e-6
    assert abs(r1) < 1e-6 and abs(r2) < 1e-6


def test_trajectory_sigma_xy_population_equalization():
    cfg = OscillatorSpinConfig(n_levels=3, omega=1.0, delta=0.5, jump_variant=SigmaXY(0.5, 0.4))
    spectrum, jumps = build_oscillator_spin(cfg)
    rho0 = random_density_matrix(6, np.random.default_rng(8))
    (traj,) = integrate_trajectory(spectrum, jumps, [rho0], t_end=45.0, n_steps=6000,
                                   record_every=50)
    final = traj.final_state.matrix
    for m in range(3):
        assert abs(final[2 * m, 2 * m] - final[2 * m + 1, 2 * m + 1]) < 1e-6


def _pinch_between_level_coherences(rho):
    """Keep only the per-oscillator-level 2x2 blocks of a flat-basis state.

    Both oscillator-spin jump variants act on the spin alone, so the
    spin-symmetric part of any between-level oscillator coherence is never
    damped: states carrying such coherences precess forever instead of
    relaxing.  Pinching onto the level blocks is a quantum channel, so the
    result is again a density matrix, and it lies in the fully relaxing
    (environment-monitored) component.
    """
    d = rho.shape[0]
    out = np.zeros_like(rho)
    for m in range(0, d, 2):
        out[m:m + 2, m:m + 2] = rho[m:m + 2, m:m + 2]
    return out


def test_trajectory_residual_decreases_late():
    cases = []
    # transverse decay matrix chosen normal (a1^2+b1^2 = a2^2+b2^2, cross term
    # zero) so the residual norm is a sum of pure exponentials
    params = TwoLevelParams(eps0=0.0, eps3=1.0, a1=0.4, b1=0.0, a2=0.0, b2=0.4)
    spectrum, jumps = two_level_system(params)
    rho0 = DensityMatrix(bloch_to_matrix(0.3, -0.2, 0.1))
    cases.append((spectrum, jumps, rho0, 30.0, 4000))

    cfg = OscillatorSpinConfig(n_levels=3, omega=1.0, delta=0.3, jump_variant=SigmaPlus(0.5))
    spectrum, jumps = build_oscillator_spin(cfg)
    raw = random_density_matrix(6, np.random.default_rng(19)).matrix
    rho0 = DensityMatrix(_pinch_between_level_coherences(raw))
    cases.append((spectrum, jumps, rho0, 40.0, 5000))

    for spectrum, jumps, rho0, t_end, n_steps in cases:
        (traj,) = integrate_trajectory(spectrum, jumps, [rho0], t_end=t_end, n_steps=n_steps,
                                       record_every=100)
        quarter = [k for k, t in enumerate(traj.times) if t >= 0.75 * traj.times[-1]]
        residuals = [stationarity_residual(spectrum, jumps, traj.states[k])
                     for k in quarter]
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= earlier * (1 + 1e-9) + 1e-13


def test_trajectory_trace_preserved_and_default_step():
    spectrum, jumps = build_two_level(1.0, 2.0, 0.5, 0.3)
    step = default_step(spectrum, jumps)
    assert step == pytest.approx(0.01 / 2.0)
    (traj,) = integrate_trajectory(spectrum, jumps, [DensityMatrix(0.5 * np.eye(2))], t_end=5.0)
    assert traj.step_size <= step
    drifts = [abs(s.trace() - 1.0) for s in traj.states]
    assert max(drifts) < 1e-8


def test_trajectory_step_too_large_reports_suggestion():
    spectrum = EnergySpectrum(np.array([0.0, 100.0]))
    jumps = [np.array([[0.0, 0.1], [0.0, 0.0]], dtype=complex)]
    rho0 = DensityMatrix(bloch_to_matrix(0.3, 0.2, 0.1))
    with pytest.raises(StepSizeError) as err:
        integrate_trajectory(spectrum, jumps, [rho0], t_end=10.0, n_steps=3)
    assert err.value.suggested_step < 10.0 / 3
    assert "suggested step" in str(err.value)


def test_trajectory_rounding_drift_at_the_default_step_blames_the_step_count():
    # at its own default step a two-level run drifts in trace past 1e-8 from
    # about 1e8 steps on: rounding piles up over the powers of the step map,
    # and no smaller step is suggested
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    h = default_step(spectrum, jumps)
    n_steps = 10 ** 8
    with pytest.raises(StepSizeError) as err:
        integrate_trajectory(spectrum, jumps, [DensityMatrix(0.5 * np.eye(2))],
                             t_end=n_steps * h, n_steps=n_steps, record_every=10 ** 5)
    message = str(err.value)
    assert message.startswith("accumulated rounding over 1e+08 steps: trace differs from 1")
    assert "use a shorter t_end" in message
    assert "too large" not in message and "suggested step" not in message
    assert err.value.suggested_step == h


def test_trajectory_rejects_t_end_without_a_finite_step_count():
    # t_end / default step overflows: no step count to derive or to suggest
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    for n_steps in (None, 1):
        with pytest.raises(ValueError, match="t_end 1e[+]308 is too large"):
            integrate_trajectory(spectrum, jumps, [DensityMatrix(0.5 * np.eye(2))], t_end=1e308,
                                 n_steps=n_steps)


def _batch_cases():
    two_level = build_two_level(1.0, 2.0, 0.6, 0.4)
    cfg = OscillatorSpinConfig(n_levels=3, omega=1.0, delta=0.5, jump_variant=SigmaXY(0.5, 0.4))
    return [(two_level, 8.0, 800), (build_oscillator_spin(cfg), 4.0, 400)]


def test_trajectory_batch_matches_single_calls_bitwise():
    for (spectrum, jumps), t_end, n_steps in _batch_cases():
        rng = np.random.default_rng(5)
        rho0s = [random_density_matrix(spectrum.dim, rng) for _ in range(3)]
        batch = integrate_trajectory(spectrum, jumps, rho0s, t_end=t_end,
                                     n_steps=n_steps, record_every=7)
        assert len(batch) == 3
        for rho0, traj in zip(rho0s, batch):
            (single,) = integrate_trajectory(spectrum, jumps, [rho0], t_end=t_end,
                                             n_steps=n_steps, record_every=7)
            assert np.array_equal(single.times, traj.times)
            assert single.step_size == traj.step_size
            assert len(single.states) == len(traj.states) == n_steps // 7 + 2
            assert np.array_equal(single.states, traj.states)


def test_trajectory_batch_returns_tuple_with_shared_times():
    spectrum, jumps = build_two_level(1.0, 2.0, 0.6, 0.4)
    rng = np.random.default_rng(6)
    rho0s = [random_density_matrix(2, rng).matrix for _ in range(3)]
    batch = integrate_trajectory(spectrum, jumps, rho0s, t_end=1.0, n_steps=100,
                                 record_every=10)
    assert isinstance(batch, tuple) and len(batch) == 3
    assert all(isinstance(traj, Trajectory) for traj in batch)
    for traj in batch[1:]:
        assert np.array_equal(traj.times, batch[0].times)
    assert not batch[0].times.flags.writeable
    single = integrate_trajectory(spectrum, jumps, rho0s[:1], t_end=1.0, n_steps=100)
    assert isinstance(single, tuple) and len(single) == 1
    # a 3-D array is a batch too
    stacked = integrate_trajectory(spectrum, jumps, np.stack(rho0s), t_end=1.0, n_steps=100,
                                   record_every=10)
    assert isinstance(stacked, tuple) and len(stacked) == 3


def test_trajectory_batch_step_too_large_raises():
    spectrum = EnergySpectrum(np.array([0.0, 100.0]))
    jumps = [np.array([[0.0, 0.1], [0.0, 0.0]], dtype=complex)]
    good = DensityMatrix(0.5 * np.eye(2))
    bad = DensityMatrix(bloch_to_matrix(0.3, 0.2, 0.1))
    with pytest.raises(StepSizeError) as err:
        integrate_trajectory(spectrum, jumps, [good, bad, good], t_end=10.0, n_steps=3)
    assert err.value.suggested_step < 10.0 / 3
    assert "suggested step" in str(err.value)
    assert "initial state 1" in str(err.value)


def test_trajectory_matches_rk4_reference_loop():
    cfg = OscillatorSpinConfig(n_levels=3, omega=1.0, delta=0.5, jump_variant=SigmaXY(0.5, 0.4))
    models = [build_two_level(1.0, 2.0, 0.6, 0.4), build_oscillator_spin(cfg),
              random_nondegenerate_model(np.random.default_rng(2), dim=5, n_jumps=2)]
    n_steps, t_end = 300, 3.0
    for spectrum, jumps in models:
        rng = np.random.default_rng(9)
        rho0s = [random_density_matrix(spectrum.dim, rng) for _ in range(3)]
        for record_every in (1, 7, n_steps, n_steps + 5):
            times, states = rk4_reference(spectrum, jumps, [r.matrix for r in rho0s],
                                          t_end, n_steps, record_every)
            batch = integrate_trajectory(spectrum, jumps, rho0s, t_end=t_end,
                                         n_steps=n_steps, record_every=record_every)
            for i, traj in enumerate(batch):
                assert np.array_equal(traj.times, times)
                assert np.max(np.abs(traj.states - states[:, i])) < 1e-12


def test_trajectory_unstable_step_reports_non_finite_state():
    # the stride power overflows on the coherence block; no floating-point
    # warning may escape, and a member without coherences is not blamed
    spectrum = EnergySpectrum(np.array([0.0, 1e6]))
    jumps = [np.array([[0.0, 0.0], [0.1, 0.0]], dtype=complex)]
    diagonal = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    coherent = random_density_matrix(2, np.random.default_rng(0))
    with pytest.raises(StepSizeError, match="non-finite state at t = ") as err:
        integrate_trajectory(spectrum, jumps, [diagonal, coherent], t_end=100.0,
                             n_steps=100000, record_every=100)
    assert "initial state 1" in str(err.value)
    # the coherence block is invariant, so without coherences the run is stable
    (traj,) = integrate_trajectory(spectrum, jumps, [diagonal], t_end=100.0, n_steps=100000,
                                   record_every=100)
    assert traj.final_state.matrix[0, 0] == pytest.approx(0.3 * np.exp(-1.0), abs=1e-9)
    assert traj.final_state.matrix[0, 1] == 0.0


def _coherence_growth_case(omega_h):
    """A level pair whose coherence RK4 amplifies per step at omega h > 2 sqrt 2.

    The trace and the populations stay exact, so a state with a coherence
    ends non-positive and, later, non-finite; a diagonal state stays valid.
    """
    spectrum = EnergySpectrum(np.array([0.0, 1.0]))
    jumps = [np.array([[0.0, 0.0], [0.1, 0.0]], dtype=complex)]
    diagonal = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    coherent = DensityMatrix(np.array([[0.5, 0.01], [0.01, 0.5]], dtype=complex))
    return spectrum, jumps, [diagonal, coherent], omega_h


def test_trajectory_step_error_names_the_member_failing_in_a_later_chunk(monkeypatch):
    spectrum, jumps, rho0s, h = _coherence_growth_case(2.85)
    n_steps = 150
    _, states = rk4_reference(spectrum, jumps, [r.matrix for r in rho0s], n_steps * h, n_steps, 1)
    min_eig = np.linalg.eigvalsh(states).min(axis=2)
    first = int(np.argmax(min_eig[:, 1] < -1e-8))
    assert first > 0 and (min_eig[:, 0] > 0).all()
    messages = []
    # one record per chunk validates record by record, as one check per
    # record did; with 4 records per chunk the failure lies in chunk 25; the
    # default chunk holds the whole run
    assert first // 4 == 24
    for chunk in (1, 4 * len(rho0s) * 4, fgkls.exact._RECORD_CHUNK):
        monkeypatch.setattr(fgkls.exact, "_RECORD_CHUNK", chunk)
        with pytest.raises(StepSizeError) as err:
            integrate_trajectory(spectrum, jumps, rho0s, t_end=n_steps * h, n_steps=n_steps)
        messages.append(str(err.value))
    assert "not positive semidefinite" in messages[0] and "in initial state 1;" in messages[0]
    assert messages[1] == messages[0] and messages[2] == messages[0]


def test_trajectory_non_psd_record_precedes_a_later_non_finite_one():
    spectrum, jumps, rho0s, h = _coherence_growth_case(10.0)
    n_steps = 200
    with np.errstate(all="ignore"):
        _, states = rk4_reference(spectrum, jumps, [r.matrix for r in rho0s], n_steps * h,
                                  n_steps, 1)
    assert not np.isfinite(states[-1, 1]).all()
    assert np.linalg.eigvalsh(states[1, 1]).min() < -1e-8
    # both records lie in the one chunk of this run
    assert (n_steps + 1) * len(rho0s) * 4 <= fgkls.exact._RECORD_CHUNK
    with pytest.raises(StepSizeError, match="not positive semidefinite") as err:
        integrate_trajectory(spectrum, jumps, rho0s, t_end=n_steps * h, n_steps=n_steps)
    assert "in initial state 1;" in str(err.value)


def test_trajectory_batch_rejects_wrongly_sized_member():
    spectrum, jumps = build_two_level(1.0, 2.0, 0.6, 0.4)
    members = [DensityMatrix(0.5 * np.eye(2)), DensityMatrix(np.eye(3) / 3)]
    with pytest.raises(ValueError, match="initial state 1 dimension"):
        integrate_trajectory(spectrum, jumps, members, t_end=1.0, n_steps=10)
    with pytest.raises(ValueError, match="no initial states"):
        integrate_trajectory(spectrum, jumps, [], t_end=1.0, n_steps=10)


def test_trajectory_endpoints_land_on_steady_slice():
    # every endpoint must sit near the exact steady-state set; the
    # oscillator-spin initial states are pinched into the relaxing component
    # (the spin-only jumps never damp spin-symmetric oscillator coherences)
    cases = []
    spectrum, jumps = build_two_level(1.0, 2.0, 0.6, 0.4)
    cases.append((spectrum, jumps, 60.0, 6000, False))
    cfg = OscillatorSpinConfig(n_levels=2, omega=1.0, delta=0.3, jump_variant=SigmaPlus(0.6))
    sp, jp = build_oscillator_spin(cfg)
    cases.append((sp, jp, 80.0, 6000, True))
    cfg = OscillatorSpinConfig(n_levels=2, omega=1.0, delta=0.5, jump_variant=SigmaXY(0.5, 0.4))
    sx, jx = build_oscillator_spin(cfg)
    cases.append((sx, jx, 45.0, 5000, True))

    rng = np.random.default_rng(123)
    for spectrum, jumps, t_end, n_steps, pinch in cases:
        steady = steady_state_basis(spectrum, jumps)
        rho0s = []
        for _ in range(20):
            rho0 = random_density_matrix(spectrum.dim, rng)
            if pinch:
                rho0 = DensityMatrix(_pinch_between_level_coherences(rho0.matrix))
            rho0s.append(rho0)
        trajectories = integrate_trajectory(spectrum, jumps, rho0s, t_end=t_end,
                                            n_steps=n_steps, record_every=n_steps)
        for traj in trajectories:
            dist = point_to_affine_distance(traj.final_state.matrix,
                                            steady.physical_member,
                                            list(steady.physical_directions))
            assert dist < 1e-6


# --- closed-form two-level solution ----------------------------------------------

def test_bloch_exact_limit_value():
    params = TwoLevelParams(eps0=0.0, eps3=1.0, a1=0.1, b1=0.0, a2=0.0, b2=0.1)
    out = two_level_bloch_exact(params, (0.2, -0.1, 0.0), 1e6)
    assert np.allclose(out, [0.0, 0.0, 0.5], atol=1e-12)
    # corresponding state is the pure upper level
    assert np.max(np.abs(bloch_to_matrix(*out) - np.diag([1.0, 0.0]))) < 1e-12


def test_bloch_exact_fixed_point_constant():
    params = TwoLevelParams(eps0=0.3, eps3=1.2, a1=0.4, b1=0.2, a2=0.1, b2=-0.3)
    r3inf = params.asymmetry / params.decay_sum
    for t in (0.0, 0.7, 3.0, 25.0):
        out = two_level_bloch_exact(params, (0.0, 0.0, r3inf), t)
        assert np.max(np.abs(out - np.array([0.0, 0.0, r3inf]))) < 1e-12


def test_bloch_exact_repeated_root_branch():
    # S^2 = 4 (w^2 + eps3^2) with w = 0: a1 = b1 = 1, eps3 = 1 gives a double root
    params = TwoLevelParams(eps0=0.0, eps3=1.0, a1=1.0, b1=1.0, a2=0.0, b2=0.0)
    assert params.decay_sum ** 2 == pytest.approx(4 * (params.asymmetry ** 2 + 1.0))
    spectrum, jumps = two_level_system(params)
    b0 = (0.3, -0.2, 0.1)
    (traj,) = integrate_trajectory(spectrum, jumps, [DensityMatrix(bloch_to_matrix(*b0))],
                                   t_end=2.0, n_steps=4000, record_every=400)
    for t, state in zip(traj.times, traj.states):
        exact = two_level_bloch_exact(params, b0, t)
        assert np.max(np.abs(np.array(matrix_to_bloch(state)) - exact)) < 1e-9


def test_bloch_exact_matches_trajectory_randomized():
    rng = np.random.default_rng(77)
    for _ in range(100):
        coeffs = rng.uniform(-0.8, 0.8, 4)
        if np.sum(coeffs**2) < 0.05:
            coeffs = coeffs + 0.3
        params = TwoLevelParams(eps0=rng.standard_normal(), eps3=rng.uniform(0.5, 1.5),
                                a1=coeffs[0], b1=coeffs[1], a2=coeffs[2], b2=coeffs[3])
        spectrum, jumps = two_level_system(params)
        b0 = tuple(rng.uniform(-0.28, 0.28, 3))  # keep |r| < 1/2 so the state is physical
        (traj,) = integrate_trajectory(spectrum, jumps, [DensityMatrix(bloch_to_matrix(*b0))],
                                       t_end=4.0, n_steps=800, record_every=200)
        exact = two_level_bloch_exact(params, b0, traj.times)
        numeric = np.array([matrix_to_bloch(s) for s in traj.states]).T
        assert np.max(np.abs(exact - numeric)) < 1e-6


def test_bloch_exact_liouville_case_rotates():
    params = TwoLevelParams(eps0=0.0, eps3=1.0, a1=0.0, b1=0.0, a2=0.0, b2=0.0)
    out = two_level_bloch_exact(params, (0.3, 0.0, 0.2), np.array([0.0, np.pi / 2.0]))
    assert np.allclose(out[:, 0], [0.3, 0.0, 0.2], atol=1e-12)
    assert out[2, 1] == pytest.approx(0.2)  # population frozen without jumps
    assert np.hypot(out[0, 1], out[1, 1]) == pytest.approx(0.3, abs=1e-12)


def test_decay_rate_fit():
    params = TwoLevelParams(eps0=0.5, eps3=1.0, a1=0.5, b1=-0.2, a2=0.3, b2=0.4)
    spectrum, jumps = two_level_system(params)
    rho0 = DensityMatrix(bloch_to_matrix(0.1, 0.1, -0.3))
    t_end = 10.0 / params.decay_sum
    (traj,) = integrate_trajectory(spectrum, jumps, [rho0], t_end=t_end,
                                   n_steps=int(t_end / 0.005), record_every=20)
    r3 = np.array([matrix_to_bloch(s)[2] for s in traj.states])
    rate = fit_exponential_rate(traj.times, r3, params.asymmetry / params.decay_sum,
                                window=(0.0, 0.4), floor=1e-9)
    assert abs(rate - 2 * params.decay_sum) / (2 * params.decay_sum) < 0.01


# --- parameterization identity ------------------------------------------------------

def test_identity_symmetric_jump():
    assert verify_identity_72(TwoLevelParams(0.0, 1.0, 1.0, 0.0, 0.0, 0.0)) < 1e-15


def test_identity_hand_evaluated_case():
    # a1 = b2 = 1: l12 = 2, l21 = 0, both sides equal 1
    params = TwoLevelParams(0.0, 1.0, 1.0, 0.0, 0.0, 1.0)
    from fgkls.models import pauli_to_offdiag

    l12, l21 = pauli_to_offdiag(1.0, 0.0, 0.0, 1.0)
    assert l12 == pytest.approx(2.0) and l21 == pytest.approx(0.0)
    assert verify_identity_72(params) < 1e-15


def test_identity_random_draws():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        a1, b1, a2, b2 = rng.standard_normal(4)
        worst = max(worst, verify_identity_72(TwoLevelParams(0.0, 1.0, a1, b1, a2, b2)))
    assert worst < 1e-12


def test_identity_zero_jump_rejected():
    with pytest.raises(ValueError):
        verify_identity_72(TwoLevelParams(0.0, 1.0, 0.0, 0.0, 0.0, 0.0))


def test_two_level_params_require_splitting():
    with pytest.raises(ValueError):
        TwoLevelParams(0.0, 0.0, 0.1, 0.0, 0.0, 0.0)


# --- family vs oracle distances -------------------------------------------------------

def test_affine_distance_member_matching():
    a = np.diag([0.5, 0.5]).astype(complex)
    direction = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2)
    b = a + 0.2 * direction
    # b lies in the family a + span(direction), so that side matches exactly,
    # but a is not in the singleton family {b}: the symmetric distance sees it
    assert point_to_affine_distance(b, a, [direction]) == pytest.approx(0.0, abs=1e-12)
    assert hermitian_affine_distance(a, [direction], b, []) == pytest.approx(0.2, abs=1e-12)
    assert hermitian_affine_distance(a, [], b, []) == pytest.approx(0.2, abs=1e-12)
    # identical affine sets match to zero
    assert hermitian_affine_distance(b, [direction], a, [direction]) == pytest.approx(0.0, abs=1e-12)


def test_affine_distance_rejects_non_orthonormal_directions():
    a = np.diag([0.5, 0.5]).astype(complex)
    z = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / np.sqrt(2)
    for dirs in ([np.sqrt(2) * z], [x, x], [x, (x + z) / np.sqrt(2)], [np.nan * x]):
        with pytest.raises(ValueError, match="not Frobenius-orthonormal"):
            point_to_affine_distance(a + 0.1 * x, a, dirs)
        with pytest.raises(ValueError, match="not Frobenius-orthonormal"):
            hermitian_affine_distance(a, dirs, a, [])
    # within 1e-10 of orthonormal is accepted, and projects out the direction
    assert point_to_affine_distance(a + 0.1 * x, a, [x, (1 + 1e-12) * z]) < 1e-15


def test_physical_directions_are_frobenius_orthonormal_and_traceless():
    rng = np.random.default_rng(67)
    models = [(EnergySpectrum(np.array([0.4, 1.1, 2.3])), []), worked_case(0.1),
              sigma_xy_case(4, 1.0)] + [protected_class_model(rng) for _ in range(4)]
    for spectrum, jumps in models:
        for oracle in (steady_state_basis, steady_state_basis_svd):
            steady = oracle(spectrum, jumps)
            dirs = steady.physical_directions
            assert len(dirs) == steady.kernel_dim - 1 >= 1
            e = np.array([_real_embed(v) for v in dirs])
            assert np.max(np.abs(e @ e.T - np.eye(len(dirs)))) < 1e-12
            assert max(abs(v.trace()) for v in dirs) < 1e-12


def test_three_way_agreement_random_model():
    rng = np.random.default_rng(55)
    spectrum, jumps = random_nondegenerate_model(rng, dim=3, coupling=0.1)
    family = run_pointer_scheme(spectrum, jumps, max_order=2)
    steady = steady_state_basis(spectrum, jumps)
    rho0 = random_density_matrix(3, rng)
    # slow relaxation ~ coupling^2 demands a long horizon
    (traj,) = integrate_trajectory(spectrum, jumps, [rho0], t_end=1000.0, n_steps=50000,
                                   record_every=50000)
    end = traj.final_state.matrix
    assert point_to_affine_distance(end, steady.physical_member,
                                    list(steady.physical_directions)) < 1e-6
    # perturbative member at full coupling agrees with the exact one to the
    # truncation error, which is small for this weakly coupled draw
    assert np.max(np.abs(family.evaluate(1.0) - steady.physical_member)) < 1e-4
