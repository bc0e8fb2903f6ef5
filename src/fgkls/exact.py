"""Exact references the perturbative pointer construction is validated against.

Three independent routes are provided; the first two take the model
(spectrum and jumps) and share its Liouvillian's real blocks (`_real_blocks`),
built in closed form in real Hermitian coordinates:

* the Liouvillian's kernel, every exact steady state as an affine trace-1
  slice of the kernel span, decided per block with its cutoff and margin
  recorded, or for one block certified by Neumann sweeps of the dissipator
  without building it, one series of sweeps serving every lambda of a
  model (`steady_state_bases`, `steady_state_basis`, `steady_state_basis_svd`);
* fixed-step RK4 integration of the FGKLS equation, confirming that pointers
  are attractors, with one propagator per real block (`integrate_trajectory`);
* the closed-form solution of the dissipative two-level (Bloch vector)
  dynamics, including its exact asymptotics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DensityMatrix,
    EnergySpectrum,
    InvalidStateError,
    _check_states,
    _hermitian_block,
    _real_embed,
    _scatter,
    _stacked_dissipator,
    _vec_coordinates,
    stationarity_residual,
)
from .models import pauli_to_offdiag

__all__ = [
    "SteadyStateSet",
    "Trajectory",
    "TwoLevelParams",
    "EmptyKernelError",
    "StepSizeError",
    "steady_state_bases",
    "steady_state_basis",
    "steady_state_basis_svd",
    "integrate_trajectory",
    "default_step",
    "two_level_bloch_exact",
    "verify_identity_72",
    "point_to_affine_distance",
    "hermitian_affine_distance",
]


# the certificate demands this headroom between a rejected singular value and
# the kernel cutoff; report.txt notes a smaller one, where the kernel
# dimension depends on tol_kernel
KERNEL_MARGIN = 1e3

# `integrate_trajectory` validates and stores its records this many complex
# entries at a time, which bounds the temporaries of the check
_RECORD_CHUNK = 2 ** 14


@dataclass(frozen=True)
class SteadyStateSet:
    """Hermitian basis of the Liouvillian kernel plus its physical trace-1 slice.

    `basis` and the traceless `physical_directions` are Frobenius-orthonormal
    by construction (orthonormal coordinates in an orthonormal Hermitian
    basis).  `block_sizes` are the sizes of the independent real blocks (a vec
    index and its mirror share one) of the kernel search, in the order solved.
    `tol_kernel` is the relative cutoff that decided the kernel dimension.
    `singular_values` holds all D^2 singular values of the Liouvillian in
    descending order, or None when the kernel was certified without them.
    `kernel_margin` is (largest kept, smallest rejected) singular value over
    the largest one, kept meaning counted as kernel under `tol_kernel`; the
    rejected value is None when every value is kept.  Without singular
    values (`margin_is_bound`) the pair is the certificate's bounds on the
    true values (`_certified_kernel`), whose bounds on s_max come from Weyl's
    inequality, max |omega| -+ eta over the level gaps omega.  `sweeps` is
    (count, eta / min gapped |omega|) of `_swept_kernel`'s sweeps when they
    ran, certified or not; the count is that of the series run at the largest
    lambda of its group, which a smaller lambda's kernel was summed from.
    """

    basis: tuple[np.ndarray, ...]
    physical_member: np.ndarray
    physical_directions: tuple[np.ndarray, ...]
    singular_values: np.ndarray | None
    block_sizes: tuple[int, ...]
    tol_kernel: float
    kernel_margin: tuple[float, float | None]
    sweeps: tuple[int, float] | None = None

    @property
    def kernel_dim(self) -> int:
        return len(self.basis)

    @property
    def margin_is_bound(self) -> bool:
        return self.singular_values is None


def _block_labels(jumps: Sequence[np.ndarray], k: np.ndarray) -> np.ndarray:
    """The smallest vec index of each vec index's real Liouvillian block, in vec order.

    Vec index m + D n is linked to its mirror n + D m, to p + D q where one
    jump has L[m, p] and L[n, q] nonzero, and to p + D n where K[m, p] != 0:
    the closed form's structural pattern, the weak symmetries' blocks for
    the oscillator-spin models (Buca & Prosen, New J. Phys. 14, 073007
    (2012)).  Min-label propagation over a (D, D) label array, O(D^3) per
    sweep; each sweep ends by replacing every label with its own label.
    """
    d = k.shape[0]
    patterns = [nonzero for L in jumps for nonzero in (L != 0, (L != 0).T)]
    decay = (k != 0) | (k != 0).T
    label = np.arange(d * d).reshape(d, d).T
    while True:
        new = np.minimum(label, label.T)
        for pattern in patterns:
            # half[p, n] is the least label[p, q] with pattern[n, q], or d * d
            half = np.where(pattern[None], new[:, None, :], d * d).min(axis=2)
            new = np.minimum(new, np.where(pattern[:, :, None], half[None], d * d).min(axis=1))
        # the mirror link carries this to (m, n) ~ (m, q) where K[n, q] != 0
        new = np.minimum(new, np.where(decay[:, :, None], new[None], d * d).min(axis=1))
        new = new.T.ravel()[new]
        if np.array_equal(new, label):
            return label.T.ravel()
        label = new


def _real_blocks(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray],
                 labels: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The model's Liouvillian in real Hermitian coordinates, one block size at a time.

    R[i, j] = <B_i, L(B_j)> in the orthonormal Hermitian basis B_i of
    `core._vec_coordinates` (`core._hermitian_block`, G = -iH - K/2, weights
    alpha) has the superoperator's singular values.  Yields (idx, sub) per
    block size of `_block_labels`, increasing: idx (B, size) holds the sorted
    vec indices of the B blocks, by smallest index, and sub (B, size, size)
    their real sub-blocks.  A block of every pair of a set of levels is built
    one row level at a time by `_grid_blocks`, any other block on its index
    arrays by `core._hermitian_block`.  `labels`, when given, are the
    model's `_block_labels`.
    """
    d = spectrum.dim
    jumps = [np.asarray(L, dtype=complex) for L in jumps]
    k = sum((L.conj().T @ L for L in jumps), np.zeros((d, d), dtype=complex))
    g = -0.5 * k - 1j * np.diag(spectrum.energies)
    _, _, alpha, _ = _vec_coordinates(d)
    if labels is None:
        labels = _block_labels(jumps, k)
    _, block, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    members = np.argsort(block, kind="stable")
    starts = np.cumsum(sizes) - sizes
    for size in sorted(set(sizes.tolist())):
        idx = members[starts[sizes == size][:, None] + np.arange(size)]
        side = math.isqrt(size)
        levels = idx[:, :side] % d
        if side * side == size and np.array_equal(
                idx, (levels[:, None, :] + d * levels[:, :, None]).reshape(-1, size)):
            yield idx, _grid_blocks(jumps, g, alpha, levels)
        else:
            rows = idx[:, :, None] % d, idx[:, :, None] // d, alpha[idx[:, :, None]]
            cols = idx[:, None, :] % d, idx[:, None, :] // d, alpha[idx[:, None, :]]
            yield idx, _hermitian_block(jumps, g, rows, cols)


def _grid_blocks(jumps: Sequence[np.ndarray], g: np.ndarray, alpha: np.ndarray,
                 levels: np.ndarray) -> np.ndarray:
    """Real blocks of every pair (m, n) of each row of `levels` (B, s), in vec order: n major.

    The closed form of `core._hermitian_block` on the product grid, built one
    row level n at a time: the complex slab T[b, m, q, p], entry (m, n) of
    the image of E_pq, is G[m, p] delta_nq + delta_mp conj(G[n, q]) +
    sum_a L[m, p] conj(L[n, q]) on the levels of block b, and the image of
    E_qp is T with q and p swapped.  The terms are added in
    `_hermitian_block`'s order, which keeps its bits on the gathered indices.
    Elementwise products only, so the bits do not depend on the BLAS thread
    count; the temporaries are slabs of B s^3 complex entries beside the
    (B, s^2, s^2) real result.
    """
    d = g.shape[0]
    b, s = levels.shape
    rows, cols = levels[:, :, None], levels[:, None, :]
    on_levels = [L[rows, cols] for L in jumps]
    g_levels = g[rows, cols]
    # weight[b, n, m] = alpha[m + D n] on the levels of block b
    weight = alpha[cols + d * rows]
    diag = np.arange(s)
    out = np.empty((b, s, s, s, s))
    for n in range(s):
        slab = np.zeros((b, s, s, s), dtype=complex)
        slab[:, :, n, :] += g_levels
        slab[:, diag, :, diag] += g_levels[:, n].conj()
        for L in on_levels:
            slab += L[:, :, None, :] * L[:, None, n, :, None].conj()
        z = slab * weight[:, None]
        z += slab.swapaxes(2, 3) * weight[:, None].conj()
        z *= weight[:, n, :, None, None].conj()
        out[:, n] = 2 * z.real
    return out.reshape(b, s * s, s * s)


def _is_kernel(s: np.ndarray, smax: float, tol_kernel: float) -> np.ndarray:
    """Which singular values `s` are kernel: below tol_kernel * smax, or zero.

    Zero values are kernel also when smax is zero (a zero Liouvillian).
    """
    return (s < tol_kernel * smax) | (s == 0.0)


class EmptyKernelError(RuntimeError):
    """No singular value of the Liouvillian lies below the kernel cutoff."""


def _bordered(sub: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """The bordered matrices [[R, t], [t^T, 0]] of blocks R (B, n, n) and rows t (B, n)."""
    count, n, _ = sub.shape
    bordered = np.zeros((count, n + 1, n + 1))
    bordered[:, :n, :n] = sub
    bordered[:, :n, n] = bordered[:, n, :n] = trace
    return bordered


# (||R x||, low, hi, lo) for a unit kernel candidate x of a one-block model's
# block R: low <= sigma_min(B), B = [[R, t], [t^T, 0]] with t the trace row,
# and hi >= s_max >= lo
Bounds = tuple[float, float, float, float]
_NO_BOUNDS = (math.nan,) * 4


def _certified_kernel(residual: float, low: float, hi: float, lo: float,
                      tol_kernel: float) -> tuple[float, tuple[float, float]] | None:
    """The certificate (lo, (||R x|| / lo, low / hi)) that R's kernel is span(x), or None.

    The arguments are `Bounds`.  sigma_min(B) <= sigma_2(R), since a unit x'
    in the span of R's two smallest right singular vectors has t^T x' = 0.
    So R's kernel under tol_kernel * s_max is span(x) when
    low > KERNEL_MARGIN * tol_kernel * hi and ||R x|| <= tol_kernel * lo; the
    pair bounds the kept value from above and the rejected one from below,
    over s_max.  A NaN bound certifies nothing; lo = max |omega| - eta is
    positive, as a gapped coherence has |omega| > 2 eta.
    """
    if low > KERNEL_MARGIN * tol_kernel * hi and residual <= tol_kernel * lo:
        return lo, (residual / lo, low / hi)
    return None


Swept = tuple[np.ndarray, Bounds, tuple[int, float]]


def _swept_kernel(spectrum: EnergySpectrum, lambdas: Sequence[float],
                  jump_sets: Sequence[Sequence[np.ndarray]]) -> list[Swept | None]:
    """One-block models' bordered kernels and `Bounds` by Neumann sweeps, with no block built.

    jump_sets[i] are the jumps at lambdas[i].  R = Omega + E: the Hamiltonian
    part Omega multiplies coherence (m, n) by -i omega, omega = eps_m - eps_n,
    and ||E||_2 = ||Diss||_2 <= eta = 2 sum_a ||L_a||_2^2, inflated for
    rounding.  O holds the gapped coherences, |omega| > 2 eta, and I the rest
    of B's coordinates: the populations, the other coherences and the border.
    With A = B[O, O], F = B[O, I], G = B[I, O] and C = B[I, I], sweeps
    X <- Omega_O^-1 (F - P_O Diss(X)) sum the scheme's closed form to
    X = A^-1 F (Kato, Perturbation Theory for Linear Operators, ch. II).
    Each is one stacked dissipator product (`core._stacked_dissipator`) on
    the (k, D, D) stack of I's basis elements less their columns of X, whose
    generator image holds the Schur complement S = C - G X on I and the
    residual F - A X on O.  Exact sweeps shrink their change by
    q = eta / min_O |omega| < 1/2 at least, so they stop at the first that
    does not, and after 2 + log(eps) / log(q).  The lambdas with one O share
    the sweeps, run at their largest, lambda_max: step n scales as
    lambda^(2(n + 1)), so another lambda's stack is z_0 - sum_n r^(n+1)
    step_n, r = (lambda / lambda_max)^2, whose image at its own jumps gives
    its S and residual.  The stacks, z's image and two product buffers are
    the (k, D, D) arrays.  Weyl gives sigma_min(A) >= a = min_O |omega| - eta
    and hi, lo = max |omega| +- eta.  The block LDU factors of B give
    (Higham, chs. 6 and 15) low = min(a, s) / ((1 + ||G|| / a)
    (1 + ||F|| / a)), s the smallest singular value of S less
    (k + 1) u ||S||_F for the SVD's backward error and ||G|| ||A X - F|| / a
    for an inexact X; ||F|| and, through Diss's adjoint, ||G|| are Frobenius
    norms on I's basis elements at lambda_max, times r (Diss is quadratic in
    the jumps), capped by eta.  The kernel is z_I = S^-1 e_last,
    z_O = -X z_I.  Returns per lambda None when no coherence is gapped, else
    (its coordinates in vec order, the bounds, (sweeps, q)), NaN coordinates
    and `_NO_BOUNDS` when S is singular.
    """
    d = spectrum.dim
    eps = sys.float_info.epsilon
    omega = spectrum.energies[:, None] - spectrum.energies[None, :]
    # a backward-stable SVD per jump, squared, summed and doubled
    etas = [2 * sum(float(np.linalg.norm(L, 2)) ** 2 for L in jumps)
            * (1 + 4 * (d + len(jumps)) * eps) for jumps in jump_sets]
    groups: dict[bytes, list[int]] = {}
    for i, eta in enumerate(etas):
        if (np.abs(omega) > 2 * eta).any():
            groups.setdefault((np.abs(omega) > 2 * eta).tobytes(), []).append(i)
    unknowns, scale, alpha, mirror = _vec_coordinates(d)
    hamiltonian = -1j * omega
    swept: list[Swept | None] = [None] * len(lambdas)
    for members in groups.values():
        members.sort(key=lambda i: -lambdas[i])
        ratios = [(lambdas[i] / lambdas[members[0]]) ** 2 for i in members]
        gapped = np.abs(omega) > 2 * etas[members[0]]
        gap, top = float(np.abs(omega[gapped]).min()), float(np.abs(omega).max())
        inner = np.flatnonzero(~gapped.T.ravel())  # vec index m + D n is entry (m, n)
        k, rows, cols = inner.size, inner % d, inner // d
        inverse = np.divide(1.0, hamiltonian, out=np.zeros_like(hamiltonian), where=gapped)
        models = [(sum((L.conj().T @ L for L in jump_sets[i]), np.zeros((d, d), dtype=complex)),
                   [(L, L.conj().T) for L in jump_sets[i]]) for i in members]
        # the workspace: z is the stack of Z_j = B_j - X_j, with X = 0 before the first
        # sweep, w its image, then two product buffers and the other lambdas' stacks
        z = _scatter(d, unknowns[inner], np.diag(scale[inner]))
        w, first, second = (np.empty_like(z) for _ in range(3))
        stacks = [z] + [z.copy() for _ in members[1:]]

        def generator(j: int, z: np.ndarray):
            """w = the generator at lambdas[members[j]] of z."""
            _stacked_dissipator(*models[j], z, w, first, second)
            np.add(w, np.multiply(hamiltonian, z, out=first), out=w)

        # the adjoint of Diss swaps each pair's factors
        decay, pairs = models[0]
        _stacked_dissipator(decay, [(dag, L) for L, dag in pairs], z, w, first, second)
        g_norm = float(np.linalg.norm(w[:, gapped]))
        generator(0, z)
        f_norm = float(np.linalg.norm(w[:, gapped]))
        factor = etas[members[0]] / gap
        cap = 2 + math.ceil(math.log(eps) / math.log(max(factor, eps)))
        change, sweeps = math.inf, 0
        while sweeps < cap:
            # P_O W = F - A X, so this step is X's next sweep less X; exact
            # steps shrink by the factor at least, so one that does not is rounding
            size = float(np.linalg.norm(np.multiply(inverse, w, out=first)))
            if not size < factor * change:
                break
            z -= first
            for r, stack in zip(ratios[1:], stacks[1:]):
                stack -= np.multiply(first, r ** (sweeps + 1), out=second)
            generator(0, z)
            change, sweeps = size, sweeps + 1
        for j, (i, r, stack) in enumerate(zip(members, ratios, stacks)):
            if j:
                generator(j, stack)
            eta, a = etas[i], gap - etas[i]
            residual = float(np.linalg.norm(w[:, gapped]))
            schur = np.zeros((k + 1, k + 1))
            # <B_i, W_j> = Re(conj(alpha_i) W_j[m, n] + alpha_i W_j[n, m]) for i = m + D n
            schur[:k, :k] = (alpha[inner].conj() * w[:, rows, cols]
                             + alpha[inner] * w[:, cols, rows]).real.T
            schur[:k, k] = schur[k, :k] = rows == cols
            try:
                s = float(np.linalg.svd(schur, compute_uv=False)[-1])
                z_inner = np.linalg.solve(schur, np.eye(k + 1)[k])
            except np.linalg.LinAlgError:
                s, z_inner = math.nan, np.full(k + 1, np.nan)
            v = np.tensordot(z_inner[:k], stack, 1).T.ravel()
            solved = (alpha.conj() * v + alpha * v[mirror]).real
            bounds = _NO_BOUNDS
            if np.isfinite(solved).all():
                g_r, f_r = min(r * g_norm, eta), min(r * f_norm, eta)
                s -= (k + 1) * eps * float(np.linalg.norm(schur)) + g_r * residual / a
                # s first: a NaN s makes low NaN, which certifies nothing
                low = min(s, a) / ((1.0 + g_r / a) * (1.0 + f_r / a))
                x = _scatter(d, unknowns, scale * (solved / np.linalg.norm(solved))[None])[0]
                bounds = stationarity_residual(spectrum, jump_sets[i], x), low, top + eta, top - eta
            swept[i] = solved, bounds, (sweeps, eta / gap)
    return swept


def _kernel_coordinates(sub: np.ndarray, trace: np.ndarray, counts: np.ndarray,
                        cutoff: float, solved: np.ndarray | None) -> dict[int, np.ndarray]:
    """Kernel coordinates of the real blocks `sub` (B, n, n), keyed by block.

    counts[b] is block b's number of kernel singular values; the result maps
    each b with counts[b] > 0 to a (counts[b], n) array of orthonormal rows.
    trace (B, n) is 1 on the blocks' E_mm coordinates and 0 elsewhere.
    Trace preservation makes trace[b] a left null vector of sub[b], so the
    bordered matrix [[R, t], [t^T, 0]] is nonsingular exactly when R's kernel
    is one vector x of nonzero trace, and [R, t; t^T, 0] [x; mu] = [0; 1]
    gives it.  Blocks with one kernel value and a trace coordinate get x from
    one stacked solve, or from `solved` (B, n) when the caller has it; x is
    kept when it is finite and |R x| <= cutoff after normalisation.  Every
    other block with a kernel (none of those, a failed solve or check) takes
    the right singular vectors of its full SVD.
    """
    n = sub.shape[1]
    coords = {}
    single = np.flatnonzero((counts == 1) & trace.any(axis=1))
    if single.size:
        if solved is not None:
            x = solved[single]
        else:
            rhs = np.zeros((single.size, n + 1, 1))
            rhs[:, n] = 1.0
            try:
                x = np.linalg.solve(_bordered(sub[single], trace[single]), rhs)[:, :n, 0]
            except np.linalg.LinAlgError:
                x = np.full((single.size, n), np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            residual = np.linalg.norm(np.matmul(sub[single], x[..., None])[..., 0], axis=1)
        ok = np.isfinite(x).all(axis=1) & (residual <= cutoff)
        coords.update((b, x[i, None]) for i, b in enumerate(single.tolist()) if ok[i])
    rest = [b for b in np.flatnonzero(counts).tolist() if b not in coords]
    if rest:
        _, _, vh = np.linalg.svd(sub[rest])
        coords.update((b, v[n - counts[b]:]) for b, v in zip(rest, vh))
    return coords


def steady_state_bases(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray],
                       lambdas: Sequence[float],
                       tol_kernel: float = DEFAULT_TOLERANCES.kernel) -> tuple[SteadyStateSet, ...]:
    """`steady_state_basis` of the model with jumps lambda * L at each of `lambdas`, in order.

    The block labels are found once per zero pattern of the scaled jumps and
    K (a small lambda can underflow an entry), and `_swept_kernel` sweeps
    once per group of one-block lambdas.  A failed check's error carries its
    lambda as `lam`.
    """
    distinct = list(dict.fromkeys(lambdas))
    sets = dict(zip(distinct, _steady_states(spectrum, jumps, distinct, tol_kernel, certify=True)))
    return tuple(sets[lam] for lam in lambdas)


def steady_state_basis(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray],
                       tol_kernel: float = DEFAULT_TOLERANCES.kernel) -> SteadyStateSet:
    """Exact steady states of the model, the kernel of its Liouvillian M: `steady_state_bases` at 1.

    When M is a single real block (`_block_labels`) and some coherence's
    energy gap exceeds twice the dissipative part's norm, `_swept_kernel`
    tries to certify that its kernel is one vector without building the
    block: Neumann sweeps of the stacked dissipator on the populations (and
    ungapped coherences), then one solve and values-only SVD of their
    bordered Schur complement, 33 x 33 at D = 32.  A certified block takes
    no SVD of the Liouvillian, `singular_values` is None, `kernel_margin`
    holds the certificate's bounds, and its lower bound on s_max stands for
    s_max below.  Otherwise (several blocks, no gapped coherence or a failed
    certificate) the blocks are built and the kernel decided as in
    `steady_state_basis_svd`, a single block's bordered solution taken from
    the failed certificate where the sweeps ran.  Members whose direct
    generator residual (`stationarity_residual`) exceeds tol_kernel times
    max(s_max, 1) are dropped.  The physical slice is the trace-1 affine
    subset of the kernel span: one member and traceless directions.
    """
    return steady_state_bases(spectrum, jumps, (1.0,), tol_kernel)[0]


def steady_state_basis_svd(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray],
                           tol_kernel: float = DEFAULT_TOLERANCES.kernel) -> SteadyStateSet:
    """`steady_state_basis` decided from all D^2 singular values, with no certificate.

    M's real blocks (`_real_blocks`) of equal size get one stacked
    values-only SVD.  A singular value is kernel when it is zero or below
    tol_kernel times the largest one over all blocks (one global cutoff),
    which fixes each block's kernel dimension.  The kernel coordinates come
    from `_kernel_coordinates`: a bordered solve with the trace row for a
    block with one kernel value, the block's full SVD otherwise.  They give
    Hermitian, Frobenius-orthonormal matrices.  `singular_values` holds the
    D^2 values in descending order and `kernel_margin` the values on either
    side of the cutoff.  `fgkls exact` prints the smallest values, so it
    takes this route, which skips the sweeps.
    """
    return _steady_states(spectrum, jumps, (1.0,), tol_kernel, certify=False)[0]


def _steady_states(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray], lambdas: Sequence[float],
                   tol_kernel: float, certify: bool) -> list[SteadyStateSet]:
    """The body of `steady_state_bases` (certify) and `steady_state_basis_svd`."""
    jump_sets = [[lam * np.asarray(L, dtype=complex) for L in jumps] for lam in lambdas]
    labels, patterns = [], {}
    for scaled in jump_sets:
        k = sum((L.conj().T @ L for L in scaled), np.zeros((spectrum.dim,) * 2, dtype=complex))
        pattern = np.array([L != 0 for L in scaled + [k]]).tobytes()
        if pattern not in patterns:
            patterns[pattern] = _block_labels(scaled, k)
        labels.append(patterns[pattern])
    one_block = [i for i, label in enumerate(labels) if certify and not label.any()]
    swept = dict(zip(one_block, _swept_kernel(spectrum, [lambdas[i] for i in one_block],
                                              [jump_sets[i] for i in one_block])))
    sets = []
    for i, lam in enumerate(lambdas):
        try:
            sets.append(_steady_state_set(spectrum, jump_sets[i], labels[i], swept.get(i),
                                          tol_kernel))
        except RuntimeError as err:
            err.lam = lam
            raise
    return sets


def _steady_state_set(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray], labels: np.ndarray,
                      swept: Swept | None, tol_kernel: float) -> SteadyStateSet:
    """One lambda's set from its jumps, `_block_labels` and `_swept_kernel` result."""
    d = spectrum.dim
    unknowns, scale, _, _ = _vec_coordinates(d)
    solved, bounds, sweeps = swept or (None, None, None)
    certificate = bounds and _certified_kernel(*bounds, tol_kernel)
    blocks = [] if certificate else list(_real_blocks(spectrum, jumps, labels))
    s = None
    if certificate is not None:
        smax, margin = certificate
        x = solved / np.linalg.norm(solved)
        candidates = list(_scatter(d, unknowns, scale * x[None]))
    else:
        spectra = [np.linalg.svd(sub, compute_uv=False) for _, sub in blocks]
        s = np.sort(np.concatenate([sv.ravel() for sv in spectra]))[::-1]
        smax = s[0]
        candidates = []
        for (idx, sub), sv in zip(blocks, spectra):
            counts = _is_kernel(sv, smax, tol_kernel).sum(axis=1)
            trace = (unknowns[idx, 0] == 0).astype(float)
            coords = _kernel_coordinates(sub, trace, counts, tol_kernel * smax,
                                         None if solved is None else solved[None])
            for b in sorted(coords):
                candidates += list(_scatter(d, unknowns[idx[b]], scale[idx[b]] * coords[b]))
        if not candidates:
            raise EmptyKernelError(f"empty Liouvillian kernel: no singular value is below "
                                   f"tol_kernel {tol_kernel:g} times s_max; the smallest is "
                                   f"{s[-1] / smax:.3e} of s_max")
        kept = _is_kernel(s, smax, tol_kernel)
        rel = s / smax if smax > 0 else s
        margin = float(rel[kept][0]), None if kept.all() else float(rel[~kept][-1])

    cutoff = tol_kernel * max(smax, 1.0)
    basis = [b for b in candidates if stationarity_residual(spectrum, jumps, b) <= cutoff]
    if not basis:
        raise RuntimeError("no Hermitian kernel element below the residual cutoff")

    traces = np.array([float(b.trace().real) for b in basis])
    if np.max(np.abs(traces)) < 1e-12:
        raise RuntimeError("steady-state set has no trace-1 member")
    member = sum((t / float(traces @ traces)) * b for t, b in zip(traces, basis))

    directions: list[np.ndarray] = []
    if len(basis) > 1:
        _, _, vt = np.linalg.svd(traces[None, :], full_matrices=True)
        for row in vt[1:]:
            directions.append(sum(c * b for c, b in zip(row, basis)))
    block_sizes = tuple(idx.shape[1] for idx, _ in blocks for _block in idx) or (d * d,)
    return SteadyStateSet(basis=tuple(basis), physical_member=member,
                          physical_directions=tuple(directions), singular_values=s,
                          block_sizes=block_sizes, tol_kernel=tol_kernel, kernel_margin=margin,
                          sweeps=sweeps)


class StepSizeError(RuntimeError):
    """A recorded state drifted beyond tolerance: the step is too large, or rounding piled up."""

    def __init__(self, message: str, suggested_step: float):
        super().__init__(message)
        self.suggested_step = suggested_step


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step integration record: the density matrices `states` (R, D, D) at `times`."""

    times: np.ndarray
    states: np.ndarray
    step_size: float

    @property
    def final_state(self) -> DensityMatrix:
        return DensityMatrix(self.states[-1])


def default_step(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray]) -> float:
    """Conservative step 0.01 / max(energy scale, dissipative scale)."""
    scale = float(np.max(np.abs(spectrum.energies)))
    if jumps:
        k = sum(np.asarray(L, complex).conj().T @ np.asarray(L, complex) for L in jumps)
        scale = max(scale, float(np.linalg.norm(k, 2)))
    return 0.01 / scale if scale > 0 else math.inf


def integrate_trajectory(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray], rho0s: Sequence,
                         t_end: float, n_steps: int | None = None,
                         record_every: int = 1) -> tuple[Trajectory, ...]:
    """Classical RK4 integration of the FGKLS equation from each state of `rho0s`.

    `rho0s` is a sequence of states (each a `DensityMatrix` or a square
    array).  Returns a tuple of `Trajectory`, one per state in input order,
    sharing one read-only `times` array; each `states` is a read-only
    (R, D, D) array whose record 0 is the initial state as given.

    For the linear generator A, one RK4 step of size h is exactly the map
    P = I + hA (I + hA/2 (I + hA/3 (I + hA/4))).  It is built once per real
    block of the Liouvillian (`_real_blocks`) and raised to the recording
    stride, so states advance in real Hermitian coordinates by one
    matrix-vector product per block and record; intermediate steps are
    never formed.  Each member's product is independent of the batch, so
    its record is bit-identical to a batch of that state alone.

    When `n_steps` is omitted it is derived from `default_step`; a `t_end`
    for which t_end / default_step is not finite raises `ValueError`.  States are
    recorded every `record_every` steps, the final state always included.
    The records are validated as density matrices (`_check_states`), in time
    order and `_RECORD_CHUNK` complex entries at a time, before they are
    stored.  The earliest failing (record, member) pair raises
    `StepSizeError`, which names the member and the record's time and carries
    a suggested step size; from the default step count on, its message blames
    rounding accumulated over `n_steps` steps instead.
    """
    if len(rho0s) == 0:
        raise ValueError("no initial states")
    initial = [r if isinstance(r, DensityMatrix) else DensityMatrix(np.asarray(r, dtype=complex))
               for r in rho0s]
    for i, state in enumerate(initial):
        if state.dim != spectrum.dim:
            raise ValueError(f"initial state {i} dimension does not match the spectrum")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    h_default = default_step(spectrum, jumps)
    if not math.isfinite(t_end / h_default):
        raise ValueError(f"t_end {t_end:g} is too large: t_end / default step "
                         f"{h_default:.3e} is not finite")
    default_count = max(1, int(math.ceil(t_end / h_default)))
    if n_steps is None:
        n_steps = default_count
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if n_steps > sys.float_info.max:  # an int compares with a float exactly
        raise ValueError("n_steps exceeds the float range: t_end / n_steps overflows")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    h = t_end / n_steps

    def too_large(detail: str, member: int) -> StepSizeError:
        where = f"{detail} in initial state {member}"
        if n_steps >= default_count:  # no larger than the default step: rounding piled up
            return StepSizeError(f"accumulated rounding over {n_steps:.3g} steps: {where}; step "
                                 f"size {h:.3e} is not above the default step {h_default:.3e}, "
                                 f"so use a shorter t_end than {t_end:g}", h_default)
        return StepSizeError(f"step size {h:.3e} too large: {where}; suggested step "
                             f"{h_default:.3e} ({default_count} steps for t_end {t_end:g})",
                             h_default)

    d = spectrum.dim
    unknowns, scale, alpha, mirror = _vec_coordinates(d)
    steps = []
    for idx, sub in _real_blocks(spectrum, jumps):
        eye = np.eye(idx.shape[1])
        step = eye
        for k in (4, 3, 2, 1):
            step = eye + (h / k * sub) @ step
        steps.append((idx, step))
    rho0 = np.stack([state.matrix for state in initial])
    count = len(rho0)
    v = rho0.transpose(0, 2, 1).reshape(count, -1)
    x = (alpha.conj() * v + alpha * v[:, mirror]).real

    full, rest = divmod(n_steps, record_every)
    strides = [record_every] * full + [rest] * (rest > 0)
    times = np.cumsum([0] + strides) * h
    times.flags.writeable = False
    states = np.empty((count, len(times), d, d), dtype=complex)
    states[:, 0] = rho0
    pending = []  # coordinates of the records after the stored ones
    chunk = max(1, _RECORD_CHUNK // (count * d * d))

    def store(end: int):
        """Validate the pending records, in time order, and store them before record `end`."""
        if pending:
            mats = _scatter(d, unknowns, scale * np.concatenate(pending))
            try:
                _check_states(mats)
            except InvalidStateError as err:
                record, member = divmod(err.index, count)
                at = times[end - len(pending) + record]
                raise too_large(f"{err} at t = {at:.4g}", member) from err
            states[:, end - len(pending):end] = mats.reshape(-1, count, d, d).swapaxes(0, 1)
            pending.clear()

    # an unstable step overflows to a non-finite state, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        propagators = {power: [(idx, np.linalg.matrix_power(step, power)) for idx, step in steps]
                       for power in set(strides)}
        for record, power in enumerate(strides, 1):
            advanced = np.empty_like(x)
            for idx, prop in propagators[power]:
                part = x[:, idx]
                block = np.matmul(prop, part[..., None])[..., 0]
                # blocks are invariant, so a member without weight in one
                # keeps none, also where an overflowed P^r makes 0 * inf
                block[~part.any(axis=-1)] = 0.0
                advanced[:, idx] = block
            x = advanced
            pending.append(x)
            if len(pending) == chunk:
                store(record + 1)
        store(len(times))
    states.flags.writeable = False
    return tuple(Trajectory(times=times, states=member, step_size=h) for member in states)


@dataclass(frozen=True)
class TwoLevelParams:
    """Two-level model data: H = eps0 I + eps3 s3, L = (a1+i b1) s1 + (a2+i b2) s2.

    eps0 multiplies the identity and drops out of the dynamics; it is kept for
    completeness.  eps3 must not vanish (non-degenerate level pair).
    """

    eps0: float
    eps3: float
    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self):
        if self.eps3 == 0.0:
            raise ValueError("eps3 must be nonzero (degenerate two-level system)")

    @property
    def decay_sum(self) -> float:
        """a1^2 + a2^2 + b1^2 + b2^2, the overall dissipative strength."""
        return self.a1 ** 2 + self.a2 ** 2 + self.b1 ** 2 + self.b2 ** 2

    @property
    def asymmetry(self) -> float:
        """a1 b2 - a2 b1, the source term of the population imbalance."""
        return self.a1 * self.b2 - self.a2 * self.b1


def two_level_bloch_exact(params: TwoLevelParams, bloch0, t):
    """Closed-form Bloch vector (r1, r2, r3)(t) of the dissipative two-level model.

    r3 relaxes exponentially at rate 2*(a1^2+a2^2+b1^2+b2^2) towards
    (a1 b2 - a2 b1) / (a1^2+a2^2+b1^2+b2^2).  The transverse pair solves a
    second-order equation with characteristic roots

        lam = -S +/- sqrt(S^2 - 4 ((a1 b2 - a2 b1)^2 + eps3^2)),  S = decay_sum,

    handled in complex arithmetic; a vanishing discriminant selects the
    (c1 + c2 t) e^(lam t) branch.  Accepts scalar or 1-D `t`; returns shape
    (3,) or (3, len(t)).
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    tt = np.atleast_1d(t_arr)
    r10, r20, r30 = (float(c) for c in bloch0)
    s_sum = params.decay_sum
    w = params.asymmetry

    if s_sum > 0.0:
        r3inf = w / s_sum
        r3 = r3inf + (r30 - r3inf) * np.exp(-2.0 * s_sum * tt)
    else:
        r3 = np.full_like(tt, r30)

    c = params.a1 * params.a2 + params.b1 * params.b2
    m = 2.0 * np.array([
        [-(params.a2 ** 2 + params.b2 ** 2), -params.eps3 + c],
        [params.eps3 + c, -(params.a1 ** 2 + params.b1 ** 2)],
    ])
    x0 = np.array([r10, r20])
    v0 = m @ x0
    disc = s_sum ** 2 - 4.0 * (w ** 2 + params.eps3 ** 2)
    if abs(disc) < 1e-12 * s_sum ** 2:
        lam = -s_sum
        r12 = (x0[:, None] + np.outer(v0 - lam * x0, tt)) * np.exp(lam * tt)[None, :]
    else:
        root = np.sqrt(complex(disc))
        lam_p = -s_sum + root
        lam_m = -s_sum - root
        c_p = (v0 - lam_m * x0) / (lam_p - lam_m)
        c_m = x0 - c_p
        r12 = (c_p[:, None] * np.exp(lam_p * tt)[None, :]
               + c_m[:, None] * np.exp(lam_m * tt)[None, :]).real

    out = np.vstack([r12, r3[None, :]])
    return out[:, 0] if scalar else out


def verify_identity_72(params: TwoLevelParams) -> float:
    """Consistency residual between the off-diagonal and Pauli parameterizations.

    Both express the spin-up population of the asymptotic state; the residual

        | |l12|^2/(|l12|^2+|l21|^2) - 1/2 - (a1 b2 - a2 b1)/(a1^2+a2^2+b1^2+b2^2) |

    vanishes identically.
    """
    if params.decay_sum == 0.0:
        raise ValueError("zero jump operator: identity undefined")
    l12, l21 = pauli_to_offdiag(params.a1, params.b1, params.a2, params.b2)
    lhs = abs(l12) ** 2 / (abs(l12) ** 2 + abs(l21) ** 2)
    rhs = 0.5 + params.asymmetry / params.decay_sum
    return abs(lhs - rhs)


def point_to_affine_distance(point: np.ndarray, base: np.ndarray,
                             directions: Sequence[np.ndarray]) -> float:
    """Frobenius distance from `point` to the affine set base + span(directions).

    `directions` must be Frobenius-orthonormal, as both oracles' are: a Gram
    matrix more than 1e-10 from the identity raises `ValueError`.
    """
    r = _real_embed(np.asarray(point, complex) - np.asarray(base, complex))
    if len(directions) == 0:
        return float(np.linalg.norm(r))
    e = np.array([_real_embed(np.asarray(v, complex)) for v in directions])
    gram_err = float(np.max(np.abs(e @ e.T - np.eye(len(e)))))
    if not gram_err <= 1e-10:
        raise ValueError(f"directions are not Frobenius-orthonormal: "
                         f"max |Gram - I| = {gram_err:.3e}")
    return float(np.linalg.norm(r - (e @ r) @ e))


def hermitian_affine_distance(point_a: np.ndarray, dirs_a: Sequence[np.ndarray],
                              point_b: np.ndarray, dirs_b: Sequence[np.ndarray]) -> float:
    """Symmetric distance between two affine families after optimal member matching.

    Each family's representative is matched against the closest member of the
    other family; the larger of the two mismatches is returned, so the value
    is zero iff the representatives lie in each other's (orthonormal) families.
    """
    return max(point_to_affine_distance(point_a, point_b, dirs_b),
               point_to_affine_distance(point_b, point_a, dirs_a))
