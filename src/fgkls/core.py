"""Energy-basis building blocks for FGKLS (Lindblad) open-system dynamics.

All operators live in the eigenbasis of the system Hamiltonian, so the
Hamiltonian itself is represented by its spectrum alone and every operator is
a dense complex matrix.  The module provides the FGKLS generator

    rho_dot = -i[H, rho] + sum_a L_a rho L_a^dag - 1/2 {sum_a L_a^dag L_a, rho},

its stationarity residual, the vectorized superoperator form, degeneracy
classification of the spectrum, and small-dimension Bloch helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "EnergySpectrum",
    "DegeneracyPartition",
    "DensityMatrix",
    "LiouvillianSuperoperator",
    "classify_pairs",
    "default_tol_degen",
    "dissipator",
    "fgkls_generator",
    "stationarity_residual",
    "vectorize_liouvillian",
    "vec",
    "unvec",
    "matrix_to_bloch",
    "bloch_to_matrix",
    "random_density_matrix",
    "weak_coupling_ratio",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances, sized for double precision at dimensions <= 64.

    herm / trace    validity of density matrices (Hermiticity, unit trace)
    psd             allowed negative eigenvalue magnitude of a state
    assembly        superoperator vs direct generator agreement
    rank            relative singular-value cutoff for rank decisions
    kernel          relative cutoff for Liouvillian null-space extraction
    """

    herm: float = 1e-10
    trace: float = 1e-10
    psd: float = 1e-8
    assembly: float = 1e-12
    rank: float = 1e-10
    kernel: float = 1e-10


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class EnergySpectrum:
    """Eigenvalues of the Hamiltonian in a fixed ordered basis (hbar = 1).

    The basis ordering is part of the data: index k of `energies` labels the
    k-th basis vector everywhere else in the package.
    """

    energies: np.ndarray

    def __post_init__(self):
        arr = np.array(self.energies, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("energies must be a non-empty 1-D real sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("all energies must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "energies", arr)

    @property
    def dim(self) -> int:
        return int(self.energies.size)

    def hamiltonian(self) -> np.ndarray:
        """Dense diagonal Hamiltonian matrix."""
        return np.diag(self.energies).astype(complex)


def default_tol_degen(spectrum: EnergySpectrum) -> float:
    """Default degeneracy tolerance: 1e-9 times the largest energy scale."""
    scale = float(np.max(np.abs(spectrum.energies)))
    return 1e-9 * (scale if scale > 0.0 else 1.0)


@dataclass(frozen=True)
class DegeneracyPartition:
    """Partition of basis indices into groups of (numerically) equal energy.

    A pair of distinct indices sharing a class is called *internal*; all other
    pairs are *external*.  Internal pairs are exactly those whose commutator
    term -i (eps_m - eps_n) f_mn vanishes identically.
    """

    classes: tuple[tuple[int, ...], ...]
    tol_degen: float
    # class_ids[m] is the index in `classes` of the class holding m
    class_ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty degeneracy class")
            if seen & set(cls):
                raise ValueError("degeneracy classes must be disjoint")
            seen.update(cls)
        if seen != set(range(len(seen))):
            raise ValueError("degeneracy classes must cover indices 0..D-1")
        ids = np.empty(len(seen), dtype=int)
        for cid, cls in enumerate(self.classes):
            ids[list(cls)] = cid
        ids.flags.writeable = False
        object.__setattr__(self, "class_ids", ids)

    @property
    def dim(self) -> int:
        return int(self.class_ids.size)

    def class_of(self, m: int) -> int:
        return int(self.class_ids[m])

    def is_internal(self, m: int, n: int) -> bool:
        return bool(self.class_ids[m] == self.class_ids[n])

    @property
    def has_degeneracy(self) -> bool:
        return any(len(c) > 1 for c in self.classes)

    def internal_pairs(self) -> list[tuple[int, int]]:
        """All internal pairs (m, n) with m < n, in lexicographic order."""
        ids = self.class_ids
        m, n = np.nonzero(np.triu(ids[:, None] == ids[None, :], 1))
        return list(zip(m.tolist(), n.tolist()))


def classify_pairs(spectrum: EnergySpectrum, tol_degen: float | None = None) -> DegeneracyPartition:
    """Group basis indices whose energies agree within `tol_degen`.

    Clustering links sorted neighbours with gap <= tol_degen and then checks
    that the result is pairwise consistent: every in-class pair must be within
    the tolerance and every cross-class pair beyond it.  A tolerance that
    merges two genuinely distinct levels (chain of small gaps with a large
    total spread) is rejected, as is a tolerance within a factor two of the
    smallest true level gap, and one that puts levels differing by more than
    `default_tol_degen` into one class: the scheme drops the commutator term
    of an internal pair, which is exact only for equal energies.
    """
    resolution = default_tol_degen(spectrum)
    if tol_degen is None:
        tol_degen = resolution
    if tol_degen < 0:
        raise ValueError("tol_degen must be nonnegative")

    e = spectrum.energies
    order = np.argsort(e, kind="stable")
    classes: list[list[int]] = [[int(order[0])]]
    for k in range(1, e.size):
        idx = int(order[k])
        prev = int(order[k - 1])
        if abs(e[idx] - e[prev]) <= tol_degen:
            classes[-1].append(idx)
        else:
            classes.append([idx])

    for cls in classes:
        vals = e[np.array(cls)]
        if vals.max() - vals.min() > tol_degen:
            raise ValueError(
                "tol_degen too coarse: a chain of near-degenerate levels spans "
                f"{vals.max() - vals.min():.3e} > tol {tol_degen:.3e}; clustering is "
                "not transitive-consistent"
            )
        if vals.max() - vals.min() > resolution:
            raise ValueError(
                f"tol_degen {tol_degen:.3e} merges levels {vals.min():.6g} and "
                f"{vals.max():.6g}, which differ by {vals.max() - vals.min():.3e} > "
                f"{resolution:.3e} (the default tolerance); their commutator "
                "terms would be dropped"
            )

    if len(classes) > 1:
        means = np.array([e[np.array(c)].mean() for c in classes])
        min_gap = float(np.min(np.diff(np.sort(means))))
        if tol_degen >= 0.5 * min_gap:
            raise ValueError(
                f"tol_degen {tol_degen:.3e} is not smaller than half the minimal "
                f"level gap {min_gap:.3e}"
            )

    ordered = tuple(tuple(sorted(c)) for c in classes)
    return DegeneracyPartition(classes=ordered, tol_degen=float(tol_degen))


def _as_operator(op, dim: int) -> np.ndarray:
    arr = np.asarray(op, dtype=complex)
    if arr.shape != (dim, dim):
        raise ValueError(f"operator has shape {arr.shape}, expected {(dim, dim)}")
    return arr


def dissipator(jumps: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Jump-operator part of the generator: sum_a L_a rho L_a^dag - 1/2 {L_a^dag L_a, rho}."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for L in jumps:
        L = _as_operator(L, rho.shape[0])
        K = L.conj().T @ L
        out += L @ rho @ L.conj().T - 0.5 * (K @ rho + rho @ K)
    return out


# Weight w of the Hermitian basis element w E_mn + conj(w) E_nm of each kind:
# E_mm (kind 0, n = m), E_mn + E_nm (kind 1) and i (E_mn - E_nm) (kind 2).
_KIND_WEIGHTS = np.array([0.5, 1.0, 1.0j])


def _hermitian_block(jumps: Sequence[np.ndarray], unknowns: np.ndarray) -> np.ndarray:
    """Real matrix of the dissipator on Hermitian basis elements, in closed form.

    Row and column i stand for the (kind, m, n) row `unknowns[i]`.  Column j is
    Diss(B_j) for the basis element B_j of kind 0, 1 or 2 on (m_j, n_j), read
    at row i as the real part of entry (m_i, n_i) for kinds 0 and 1 and as
    its imaginary part for kind 2.  Entry (m, n) of Diss(E_pq) is
    sum_a L[m, p] conj(L[n, q]) - 1/2 K[m, p] delta_nq - 1/2 delta_mp K[q, n].
    """
    kind, m, n = np.asarray(unknowns, dtype=int).T
    w = _KIND_WEIGHTS[kind][None, :]
    p, q = m[None, :], n[None, :]
    m, n = m[:, None], n[:, None]
    out = np.zeros((kind.size, kind.size), dtype=complex)
    for L in jumps:
        L = np.asarray(L, dtype=complex)
        K = L.conj().T @ L

        def unit(p, q):
            """Entry (m, n) of this jump's Diss(E_pq)."""
            return L[m, p] * L[n, q].conj() - 0.5 * (K[m, p] * (n == q) + (m == p) * K[q, n])

        out += w * unit(p, q) + w.conj() * unit(q, p)
    return np.where(kind[:, None] == 2, out.imag, out.real)


def fgkls_generator(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray], rho) -> np.ndarray:
    """Right-hand side of the FGKLS equation evaluated at `rho`.

    The output is Hermitian whenever `rho` is Hermitian and is always
    traceless.  `rho` may be any operator (stationarity is checked on
    candidate states, but no density-matrix validity is required here).
    """
    if isinstance(rho, DensityMatrix):
        rho = rho.matrix
    rho = _as_operator(rho, spectrum.dim)
    e = spectrum.energies
    out = -1j * (e[:, None] - e[None, :]) * rho
    out += dissipator([_as_operator(L, spectrum.dim) for L in jumps], rho)
    return out


def stationarity_residual(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray], rho) -> float:
    """Frobenius norm of the generator at `rho`; zero iff `rho` is a pointer."""
    return float(np.linalg.norm(fgkls_generator(spectrum, jumps, rho)))


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(rho)[m + D*n] = rho[m, n]."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of `vec`."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError("vector length is not a perfect square")
    return v.reshape(d, d, order="F")


@dataclass(frozen=True)
class LiouvillianSuperoperator:
    """D^2 x D^2 matrix form of the FGKLS generator under column stacking.

    Acting with `matrix` on vec(rho) reproduces the direct generator
    entrywise; its null space is the exact steady-state set.
    """

    hilbert_dim: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        """Dimension of the vectorized space (D squared)."""
        return self.hilbert_dim ** 2

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho))


def vectorize_liouvillian(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray]) -> LiouvillianSuperoperator:
    """Assemble the superoperator matrix of the FGKLS generator.

    With column stacking, left multiplication by A maps to (I kron A) and
    right multiplication by A maps to (A^T kron I).  The matrix is filled as a
    (D, D, D, D) array t[n, m, q, p] = matrix[m + D n, p + D q], without the
    kron products against the identity: the Hamiltonian sits on the n = q,
    m = p diagonal, and each jump adds conj(L)[n, q] L[m, p] minus K / 2 on
    the n = q slice and K^T / 2 on the m = p slice.  Every entry is summed in
    the same order as in the kron form, so the two matrices are equal.
    """
    d = spectrum.dim
    e = spectrum.energies
    diag = np.arange(d)
    n, m = np.ix_(diag, diag)
    mat = np.zeros((d, d, d, d), dtype=complex)
    mat[n, m, n, m] = -1j * (e[m] - e[n])
    for L in jumps:
        L = _as_operator(L, d)
        K = L.conj().T @ L
        term = L.conj()[:, None, :, None] * L[None, :, None, :]
        term[diag, :, diag, :] -= 0.5 * K
        term[:, diag, :, diag] -= 0.5 * K.T
        mat += term
    return LiouvillianSuperoperator(hilbert_dim=d, matrix=mat.reshape(d * d, d * d))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive within tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density matrix must be square")
        tol = DEFAULT_TOLERANCES
        herm_err = float(np.max(np.abs(arr - arr.conj().T)))
        if herm_err > tol.herm:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_err:.3e}")
        trace_err = abs(arr.trace() - 1.0)
        if trace_err > tol.trace:
            raise ValueError(f"trace differs from 1 by {trace_err:.3e}")
        min_eig = float(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T)).min())
        if min_eig < -tol.psd:
            raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _real_embed(mat: np.ndarray) -> np.ndarray:
    """Flatten a complex matrix to a real vector preserving the Frobenius norm."""
    return np.concatenate([mat.real.ravel(), mat.imag.ravel()])


def _embed_to_matrix(row: np.ndarray, dim: int) -> np.ndarray:
    re, im = row[: dim * dim], row[dim * dim:]
    return re.reshape(dim, dim) + 1j * im.reshape(dim, dim)


def _orthonormal_span(mats: Sequence[np.ndarray], rel_tol: float = 1e-12) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of the real span of the given matrices."""
    if not mats:
        return []
    dim = mats[0].shape[0]
    rows = np.array([_real_embed(m) for m in mats])
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    return [_embed_to_matrix(vt[i], dim) for i in range(s.size) if s[i] > rel_tol * s[0]]


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Reproducible random state: normalize A A^dag for complex Gaussian A."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = a @ a.conj().T
    return DensityMatrix(w / w.trace())


_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def matrix_to_bloch(rho) -> tuple[float, float, float]:
    """Components (r1, r2, r3) of rho = 1/2 I + r1 s1 + r2 s2 + r3 s3 (2x2 only).

    Works for any 2x2 matrix; for traceless input the returned triple are the
    Pauli components directly.
    """
    if isinstance(rho, DensityMatrix):
        rho = rho.matrix
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError("Bloch decomposition requires a 2x2 matrix")
    r1 = float(arr[0, 1].real)
    r2 = float(-arr[0, 1].imag)
    r3 = float((arr[0, 0] - arr[1, 1]).real) / 2.0
    return (r1, r2, r3)


def bloch_to_matrix(r1: float, r2: float, r3: float) -> np.ndarray:
    """Inverse of `matrix_to_bloch`: 1/2 I + r . sigma."""
    return 0.5 * np.eye(2, dtype=complex) + r1 * _SIGMA1 + r2 * _SIGMA2 + r3 * _SIGMA3


def weak_coupling_ratio(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray]) -> float:
    """Diagnostic ratio max_a ||L_a||^2 / ||H|| in spectral norms.

    The perturbative regime expects this to be small; it is reported, never
    enforced.  Returns inf for a zero Hamiltonian with nonzero jumps.
    """
    h_norm = float(np.max(np.abs(spectrum.energies)))
    l_sq = 0.0
    for L in jumps:
        L = _as_operator(L, spectrum.dim)
        l_sq = max(l_sq, float(np.linalg.norm(L, 2)) ** 2)
    if h_norm == 0.0:
        return float("inf") if l_sq > 0 else 0.0
    return l_sq / h_norm
