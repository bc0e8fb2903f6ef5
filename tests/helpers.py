"""Shared constructions for the test suite."""

import math
import sys

import numpy as np

from fgkls import EnergySpectrum
from fgkls.core import _real_embed, _scatter, _vec_coordinates
from fgkls.exact import TwoLevelParams
from fgkls.models import build_two_level, pauli_to_offdiag


# `random_nondegenerate_model` gives up after this many draws of the energies
MAX_ENERGY_DRAWS = 10 ** 4


def random_nondegenerate_model(rng, dim=None, n_jumps=1, coupling=0.1, min_gap=0.15):
    """Random spectrum with separated gaps and jumps of spectral norm coupling*||H||.

    The energies are drawn from [0.5, 3.0] until every gap is at least
    `min_gap`, at most MAX_ENERGY_DRAWS times.  ValueError when `dim` such
    gaps cannot fit in the range, or when no draw had them.
    """
    if dim is None:
        dim = int(rng.integers(3, 7))
    if (dim - 1) * min_gap >= 2.5:
        raise ValueError(f"dim {dim} levels with min_gap {min_gap} do not fit in [0.5, 3.0]")
    for _ in range(MAX_ENERGY_DRAWS):
        e = np.sort(rng.uniform(0.5, 3.0, dim))
        if np.min(np.diff(e)) >= min_gap:
            return EnergySpectrum(e), random_jumps(rng, dim, n_jumps,
                                                   coupling * float(np.max(np.abs(e))))
    raise ValueError(f"no draw of dim {dim} levels in [0.5, 3.0] had every gap at least "
                     f"min_gap {min_gap} in {MAX_ENERGY_DRAWS} draws")


# the sparse D = 4 draws that expose the scheme's false `SchemeFailure`s
SPARSE_D4_DRAWS = 875


def sparse_d4_model(rng):
    """Random non-degenerate D = 4 model with sparse jumps.

    Energies U(0.5, 3), redrawn until every gap is at least 0.2; 1-2 jumps,
    each with 1-3 entries 0.1 (N + iN) at uniform positions (a repeated
    position keeps the last entry).  From `default_rng(0)`, 14 of the first
    SPARSE_D4_DRAWS models stop at order 2 of `run_pointer_scheme`.
    """
    while True:
        energies = np.sort(rng.uniform(0.5, 3.0, 4))
        if np.min(np.diff(energies)) >= 0.2:
            break
    jumps = []
    for _ in range(int(rng.integers(1, 3))):
        L = np.zeros((4, 4), dtype=complex)
        for _ in range(int(rng.integers(1, 4))):
            m, n = rng.integers(0, 4, 2)
            L[m, n] = 0.1 * (rng.standard_normal() + 1j * rng.standard_normal())
        jumps.append(L)
    return EnergySpectrum(energies), jumps


def augmented_rank_reference(system, rhs, tol_rank):
    """rank [A | rhs] from its values-only SVD, over tol_rank * max(s_max, system.scale)."""
    s = np.linalg.svd(np.column_stack([system.matrix, rhs]), compute_uv=False)
    return int(np.sum(s > tol_rank * max(s.max(initial=0.0), system.scale)))


def random_jumps(rng, dim, n_jumps, scale):
    """`n_jumps` complex Gaussian jump operators of spectral norm `scale`."""
    jumps = []
    for _ in range(n_jumps):
        L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        jumps.append(L * (scale / np.linalg.norm(L, 2)))
    return jumps


def protected_class_model(rng, n_classes=3, n_jumps=2, coupling=0.1):
    """Random degenerate model whose stationary states carry internal coherences.

    Each energy class holds 1-3 levels, the first at least two.  The first
    class, and each other class with probability 1/2, is protected: every
    jump acts on it as a random complex scalar, so the coherences inside it
    are stationary.  The other classes get a random Hermitian block per
    jump.  The jumps are block-diagonal in the classes.
    """
    sizes = rng.integers(1, 4, size=n_classes)
    sizes[0] = max(sizes[0], 2)
    protected = rng.random(n_classes) < 0.5
    protected[0] = True
    energies = np.repeat(rng.permutation(n_classes) + 0.5, sizes).astype(float)
    dim = energies.size
    jumps = []
    for _ in range(n_jumps):
        L = np.zeros((dim, dim), dtype=complex)
        start = 0
        for size, keep in zip(sizes, protected):
            block = slice(start, start + size)
            if keep:
                L[block, block] = (rng.standard_normal() + 1j * rng.standard_normal()) * np.eye(size)
            else:
                L[block, block] = random_hermitian(rng, size)
            start += size
        jumps.append(coupling * L)
    return EnergySpectrum(energies), jumps


def decoupled_level_model(spectrum, jumps):
    """The model with its last level decoupled: the jumps' last row and column zeroed.

    Its real Liouvillian blocks are the pairs of the other levels, the pairs
    between them and the last level, and the last level's population.
    """
    jumps = [np.array(L, dtype=complex) for L in jumps]
    for L in jumps:
        L[-1, :] = L[:, -1] = 0.0
    return spectrum, jumps


def orthonormal_span(mats):
    """Frobenius-orthonormal basis of the real span of `mats` (one SVD), cut at 1e-12 relative."""
    if not mats:
        return []
    dim = mats[0].shape[0]
    _, s, vt = np.linalg.svd(np.array([_real_embed(m) for m in mats]), full_matrices=False)
    if s[0] == 0.0:
        return []
    return [v[:dim * dim].reshape(dim, dim) + 1j * v[dim * dim:].reshape(dim, dim)
            for v, sv in zip(vt, s) if sv > 1e-12 * s[0]]


def span_gap(mats_a, mats_b):
    """Spectral norm of the difference of the projectors onto the real spans of two matrix lists.

    It is the sine of the largest principal angle, taken from the residual of
    one orthonormal basis against the other; inf when the dimensions differ.
    """
    qa = np.array([_real_embed(m) for m in orthonormal_span(list(mats_a))])
    qb = np.array([_real_embed(m) for m in orthonormal_span(list(mats_b))])
    if len(qa) != len(qb):
        return float("inf")
    return float(np.linalg.norm(qb - (qb @ qa.T) @ qa, 2))


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def component_generator(energies, jumps, rho):
    """Independent elementwise evaluation of the FGKLS right-hand side.

    Implements the componentwise sums directly with explicit loops; used as a
    brute-force oracle against the matrix-product implementation.
    """
    energies = np.asarray(energies, dtype=float)
    rho = np.asarray(rho, dtype=complex)
    d = energies.size
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            val = -1j * rho[m, n] * (energies[m] - energies[n])
            for L in jumps:
                for k in range(d):
                    for l in range(d):
                        val += L[m, k] * rho[k, l] * np.conj(L[n, l])
                        val -= 0.5 * np.conj(L[k, m]) * L[k, l] * rho[l, n]
                        val -= 0.5 * rho[m, k] * np.conj(L[l, k]) * L[l, n]
            out[m, n] = val
    return out


def dissipator_columns(jumps, unknowns):
    """Per-column reference for the scheme's system matrix.

    Builds each (kind, m, n) unknown's Hermitian basis matrix (E_mm,
    E_mn + E_nm or i(E_mn - E_nm)), applies `dissipator` to it and reads the
    image at every row: the real part of entry (m, n) for kinds 0 and 1, the
    imaginary part for kind 2.  One dissipator call per column.
    """
    from fgkls import dissipator

    unknowns = np.asarray(unknowns)
    dim = np.asarray(jumps[0]).shape[0]
    out = np.empty((len(unknowns), len(unknowns)))
    for j, (kind, p, q) in enumerate(unknowns):
        basis = np.zeros((dim, dim), dtype=complex)
        basis[p, q] = (1.0, 1.0, 1.0j)[kind]
        if kind:
            basis[q, p] = (1.0, 1.0, -1.0j)[kind]
        image = dissipator(jumps, basis)
        out[:, j] = [image[m, n].imag if k == 2 else image[m, n].real for k, m, n in unknowns]
    return out


def rk4_reference(spectrum, jumps, rho0s, t_end, n_steps, record_every):
    """Matrix-form classical RK4, one right-hand-side evaluation per stage.

    Advances the (S, D, D) stack `rho0s` step by step and returns the record
    times and the recorded stacks, (R, S, D, D): the initial stack, every
    `record_every`-th step and the final step.  Reference for the
    propagator form of `integrate_trajectory`.
    """
    e = spectrum.energies
    gap = (-1j * (e[:, None] - e[None, :]))[None]
    jump_pairs = [(L, L.conj().T) for L in (np.asarray(L, dtype=complex) for L in jumps)]
    k_total = sum((Ld @ L for L, Ld in jump_pairs),
                  np.zeros((spectrum.dim, spectrum.dim), dtype=complex))

    def rhs(r):
        out = gap * r
        for L, Ld in jump_pairs:
            out += L @ r @ Ld
        out -= 0.5 * (k_total @ r + r @ k_total)
        return out

    h = t_end / n_steps
    rho = np.array(rho0s, dtype=complex)
    times, states = [0.0], [rho]
    for step in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % record_every == 0 or step == n_steps:
            times.append(step * h)
            states.append(rho)
    return np.array(times), np.array(states)


def vec(rho):
    """Column-stacking vectorization: vec(rho)[m + D*n] = rho[m, n]."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v):
    """Inverse of `vec`."""
    v = np.asarray(v, dtype=complex)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError("vector length is not a perfect square")
    return v.reshape(d, d, order="F")


def kron_liouvillian(spectrum, jumps):
    """Reference assembly through kron products against the identity."""
    d = spectrum.dim
    ident = np.eye(d)
    h = np.diag(spectrum.energies)
    mat = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
    for L in jumps:
        L = np.asarray(L, dtype=complex)
        K = L.conj().T @ L
        mat += np.kron(L.conj(), L) - 0.5 * np.kron(ident, K) - 0.5 * np.kron(K.T, ident)
    return mat


def orthonormal_hermitian_basis(dim):
    """Columns vec(B_i) of the orthonormal Hermitian basis, i = m + D n.

    B_i is E_mm for m = n, (E_mn + E_nm)/sqrt(2) for m < n and
    i (E_nm - E_mn)/sqrt(2) for m > n, vectorized by column stacking.
    """
    basis = np.zeros((dim * dim, dim * dim), dtype=complex)
    for n in range(dim):
        for m in range(dim):
            b = np.zeros((dim, dim), dtype=complex)
            if m == n:
                b[m, m] = 1.0
            elif m < n:
                b[m, n] = b[n, m] = np.sqrt(0.5)
            else:
                b[n, m], b[m, n] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
            basis[:, m + dim * n] = b.reshape(-1, order="F")
    return basis


def structural_pattern(spectrum, jumps):
    """Boolean D^2 x D^2 pattern of the Liouvillian's closed form, with each vec index's mirror.

    Entry (m + D n, p + D q) holds when one jump has L[m, p] and L[n, q]
    nonzero, when n = q and K[m, p] != 0, when m = p and K[q, n] != 0, and
    when (p, q) = (n, m); entries that happen to cancel still count.
    """
    d = spectrum.dim
    eye = np.eye(d, dtype=bool)
    k = sum((np.asarray(L).conj().T @ np.asarray(L) for L in jumps), np.zeros((d, d)))
    pattern = np.kron(eye, k != 0) | np.kron((k != 0).T, eye)
    for L in jumps:
        nz = np.asarray(L) != 0
        pattern |= np.kron(nz, nz)
    n, m = np.divmod(np.arange(d * d), d)
    pattern[np.arange(d * d), n + d * m] = True
    return pattern


def connected_blocks(pattern):
    """Sorted index arrays of the connected components of the boolean `pattern`.

    i and j are linked when pattern[i, j] or pattern[j, i] holds.  Each
    component is grown from its smallest unseen index by a frontier search.
    """
    linked = pattern | pattern.T
    unseen = np.ones(linked.shape[0], dtype=bool)
    blocks = []
    for start in range(unseen.size):
        if not unseen[start]:
            continue
        frontier = np.array([start])
        members = []
        while frontier.size:
            unseen[frontier] = False
            members.append(frontier)
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & unseen)
        blocks.append(np.sort(np.concatenate(members)))
    return blocks


def stacked_dissipator_reference(jumps, rho):
    """The dissipator on a (k, D, D) stack with a new array for every product.

    The stacked product's operation order: K rho, + rho K, * -0.5, then
    + (L rho) L^dag per jump, with K = sum_a L_a^dag L_a.
    """
    K = sum((L.conj().T @ L for L in jumps), np.zeros_like(rho[0]))
    out = K @ rho
    out += rho @ K
    out *= -0.5
    for L in jumps:
        out += L @ rho @ L.conj().T
    return out


def swept_kernel_reference(spectrum, jumps, lambdas=(1.0,)):
    """(solved, sweeps) per lambda of `exact._swept_kernel`, with a new array per product.

    The same Neumann sweeps X <- Omega_O^-1 (F - P_O Diss(X)) on the stack
    of the ungapped basis elements, at the jumps times the largest lambda,
    lambda_max, with the same stopping rule.  Each other lambda's stack is
    z_0 - sum_n r^(n+1) step_n, r = (lambda / lambda_max)^2, and gets its
    image at lambda times the jumps; then the same bordered Schur complement
    solve per lambda, with every stack allocated afresh.  The lambdas must
    gap the same coherences; None when none is gapped.
    """
    d = spectrum.dim
    eps = sys.float_info.epsilon
    omega = spectrum.energies[:, None] - spectrum.energies[None, :]
    top = max(lambdas)
    scaled = {lam: [lam * np.asarray(L, dtype=complex) for L in jumps] for lam in lambdas}
    eta = 2 * sum(float(np.linalg.norm(L, 2)) ** 2 for L in scaled[top])
    eta *= 1 + 4 * (d + len(jumps)) * eps
    gapped = np.abs(omega) > 2 * eta
    if not gapped.any():
        return None
    unknowns, scale, alpha, mirror = _vec_coordinates(d)
    inner = np.flatnonzero(~gapped.T.ravel())
    k = inner.size
    hamiltonian = -1j * omega
    inverse = np.divide(1.0, hamiltonian, out=np.zeros_like(hamiltonian), where=gapped)

    def generator(lam, z):
        out = stacked_dissipator_reference(scaled[lam], z)
        out += hamiltonian * z
        return out

    z = _scatter(d, unknowns[inner], np.diag(scale[inner]))
    stacks = {lam: z for lam in lambdas}
    w = generator(top, z)
    factor = eta / float(np.abs(omega[gapped]).min())
    cap = 2 + math.ceil(math.log(eps) / math.log(max(factor, eps)))
    change, sweeps = math.inf, 0
    while sweeps < cap:
        step = inverse * w
        size = float(np.linalg.norm(step))
        if not size < factor * change:
            break
        stacks = {lam: stack - step if lam == top
                  else stack - ((lam / top) ** 2) ** (sweeps + 1) * step
                  for lam, stack in stacks.items()}
        w = generator(top, stacks[top])
        change, sweeps = size, sweeps + 1
    rows, cols = inner % d, inner // d
    results = []
    for lam in lambdas:
        image = w if lam == top else generator(lam, stacks[lam])
        schur = np.zeros((k + 1, k + 1))
        schur[:k, :k] = (alpha[inner].conj() * image[:, rows, cols]
                         + alpha[inner] * image[:, cols, rows]).real.T
        schur[:k, k] = schur[k, :k] = rows == cols
        z_inner = np.linalg.solve(schur, np.eye(k + 1)[k])
        v = np.tensordot(z_inner[:k], stacks[lam], 1).T.ravel()
        results.append(((alpha.conj() * v + alpha * v[mirror]).real, sweeps))
    return results


def two_level_system(params: TwoLevelParams) -> tuple[EnergySpectrum, list[np.ndarray]]:
    """Energy-basis form of the two-level model described by `params`."""
    l12, l21 = pauli_to_offdiag(params.a1, params.b1, params.a2, params.b2)
    return build_two_level(params.eps0 + params.eps3, params.eps0 - params.eps3, l12, l21)


def fit_exponential_rate(times: np.ndarray, values: np.ndarray, asymptote: float,
                         window: tuple[float, float] = (0.0, 0.5),
                         floor: float = 1e-12) -> float:
    """Least-squares decay rate of |values - asymptote| ~ exp(-rate t).

    Only samples inside the relative time `window` and above `floor` enter the
    fit, keeping late-time roundoff out.
    """
    times = np.asarray(times, dtype=float)
    resid = np.abs(np.asarray(values, dtype=float) - asymptote)
    t0 = times[0] + window[0] * (times[-1] - times[0])
    t1 = times[0] + window[1] * (times[-1] - times[0])
    mask = (times >= t0) & (times <= t1) & (resid > floor)
    if np.sum(mask) < 2:
        raise ValueError("not enough usable samples to fit a decay rate")
    slope, _ = np.polyfit(times[mask], np.log(resid[mask]), 1)
    return float(-slope)
