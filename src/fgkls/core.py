"""Energy-basis building blocks for FGKLS (Lindblad) open-system dynamics.

All operators live in the eigenbasis of the system Hamiltonian, so the
Hamiltonian itself is represented by its spectrum alone and every operator is
a dense complex matrix.  The module provides the FGKLS generator

    rho_dot = -i[H, rho] + sum_a L_a rho L_a^dag - 1/2 {sum_a L_a^dag L_a, rho},

its stationarity residual, its closed form on Hermitian basis elements, the
dense superoperator as a reference, degeneracy classification of the
spectrum, and small-dimension Bloch helpers.
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
    rank            singular-value cutoff for rank decisions: relative, with an
                    absolute floor (tol * max(s_max, sum_a ||L_a||_F^2))
    kernel          relative cutoff for Liouvillian null-space extraction
    """

    herm: float = 1e-10
    trace: float = 1e-10
    psd: float = 1e-8
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


def _as_operator(op, dim: int, stack: bool = False) -> np.ndarray:
    """`op` as a complex (dim, dim) array, or with `stack` also a (k, dim, dim) stack."""
    arr = np.asarray(op, dtype=complex)
    if arr.ndim not in ((2, 3) if stack else (2,)) or arr.shape[-2:] != (dim, dim):
        raise ValueError(f"operator has shape {arr.shape}, expected {(dim, dim)}"
                         + (" or (k, D, D)" if stack else ""))
    return arr


def _stacked_dissipator(decay: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                        rho: np.ndarray, out: np.ndarray, first: np.ndarray,
                        second: np.ndarray) -> np.ndarray:
    """sum_a A_a rho B_a - 1/2 (K rho + rho K) on a (k, D, D) stack, written into `out`.

    `pairs` (A_a, B_a) are (L_a, L_a^dag) for the dissipator and
    (L_a^dag, L_a) for its adjoint, `decay` = K = sum_a L_a^dag L_a for both.
    `first` and `second` are scratch of `rho`'s shape, so nothing of that
    size is allocated.  The order is K rho, + rho K, * -0.5, then
    + (A_a rho) B_a per pair.  Returns `out`.
    """
    np.matmul(decay, rho, out=out)
    out += np.matmul(rho, decay, out=first)
    out *= -0.5
    for a, b in pairs:
        out += np.matmul(np.matmul(a, rho, out=first), b, out=second)
    return out


def dissipator(jumps: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Jump-operator part of the generator: sum_a L_a rho L_a^dag - 1/2 {L_a^dag L_a, rho}.

    `rho` is one (D, D) matrix or a (k, D, D) stack, mapped member by member
    with batched products (`_stacked_dissipator`).  A stack sums
    K = sum_a L_a^dag L_a first, two products fewer per jump, so its members
    agree with single calls to rounding; one matrix keeps the per-jump sum
    and its bits.
    """
    rho = np.asarray(rho, dtype=complex)
    rho = _as_operator(rho, rho.shape[-1] if rho.ndim else 0, stack=True)
    jumps = [_as_operator(L, rho.shape[-1]) for L in jumps]
    if rho.ndim == 3:
        K = sum((L.conj().T @ L for L in jumps), np.zeros_like(rho[0]))
        return _stacked_dissipator(K, [(L, L.conj().T) for L in jumps], rho,
                                   *(np.empty(rho.shape, complex) for _ in range(3)))
    out = np.zeros_like(rho)
    for L in jumps:
        K = L.conj().T @ L
        out += L @ rho @ L.conj().T - 0.5 * (K @ rho + rho @ K)
    return out


# Weight w of the Hermitian basis element w E_mn + conj(w) E_nm of each kind:
# E_mm (kind 0, n = m), E_mn + E_nm (kind 1) and i (E_mn - E_nm) (kind 2).
_KIND_WEIGHTS = np.array([0.5, 1.0, 1.0j])
# Weights of the elements whose Frobenius product with Hermitian X is X_mm, Re X_mn, Im X_mn.
_KIND_READS = np.array([0.5, 0.5, 0.5j])


def _hermitian_block(jumps: Sequence[np.ndarray], g: np.ndarray, rows, cols) -> np.ndarray:
    """Real matrix of the generator between Hermitian elements, in closed form.

    `rows` (m, n, v) and `cols` (p, q, w) are triples of broadcastable index
    and weight arrays naming the elements v E_mn + conj(v) E_nm and
    w E_pq + conj(w) E_qp.  Entry [row, col] is the Frobenius product of the
    row's element with the column's image X, 2 Re(conj(v) X[m, n]).  Entry
    (m, n) of the image of E_pq is sum_a L[m, p] conj(L[n, q]) +
    G[m, p] delta_nq + delta_mp conj(G[n, q]), with `g` = G = -iH - K/2 and
    K = sum_a L^dag L; G = -K/2 gives the dissipator.
    """
    m, n, v = rows
    p, q, w = cols

    def image(p, q):
        """Entry (m, n) of the image of E_pq."""
        out = g[m, p] * (n == q)
        out += (m == p) * g[n, q].conj()
        for L in jumps:
            out += L[m, p] * L[n, q].conj()
        return out

    z = image(p, q) * w
    z += image(q, p) * w.conj()
    z *= v.conj()
    return 2 * z.real


def _scatter(dim: int, unknowns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian matrices sum_j values[k, j] B_j, one per row k of `values`.

    B_j is the basis element w E_mn + conj(w) E_nm of unknown j (see
    `_KIND_WEIGHTS`).  The entries are accumulated, not assigned: the real
    and imaginary part of a pair land on the same entry.
    """
    kind, m, n = unknowns.T
    weighted = _KIND_WEIGHTS[kind] * values
    out = np.zeros((len(values), dim, dim), dtype=complex)
    np.add.at(out, (slice(None), m, n), weighted)
    np.add.at(out, (slice(None), n, m), weighted.conj())
    return out


def _vec_coordinates(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(unknowns, scale, alpha, mirror) of the orthonormal Hermitian basis B_i.

    Vec index i = m + D n names B_i = E_mm if m = n, (E_mn + E_nm)/sqrt(2) if
    m < n and i(E_nm - E_mn)/sqrt(2) if m > n: scale[i] times the element of
    unknowns[i], so coordinates x give `_scatter(dim, unknowns, scale * x)`.
    vec(B_i) = alpha[i] e_i + conj(alpha[i]) e_mirror[i], mirror[m + D n] = n + D m.
    """
    n, m = np.divmod(np.arange(dim * dim), dim)
    kind = np.select([m < n, m > n], [1, 2])
    scale = np.where(kind == 0, 1.0, np.sqrt(0.5))
    alpha = scale * np.where(m > n, _KIND_WEIGHTS[kind].conj(), _KIND_WEIGHTS[kind])
    return np.stack([kind, np.minimum(m, n), np.maximum(m, n)], 1), scale, alpha, n + dim * m


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
    """The dense superoperator of the FGKLS generator, a reference for the closed form.

    Filled as a (D, D, D, D) array t[n, m, q, p] = matrix[m + D n, p + D q]:
    the Hamiltonian on the n = q, m = p diagonal, and per jump
    conj(L)[n, q] L[m, p] minus K / 2 on the n = q slice and K^T / 2 on the
    m = p slice, summed in the order of the kron form I kron A, A^T kron I.
    """
    d = spectrum.dim
    e = spectrum.energies
    diag = np.arange(d)
    n, m = np.ix_(diag, diag)
    mat = np.zeros((d, d, d, d), dtype=complex)
    mat[n, m, n, m] = -1j * (e[m] - e[n])
    # one buffer for every jump's term keeps the peak at two D^4 arrays
    term = np.empty_like(mat)
    for L in jumps:
        L = _as_operator(L, d)
        K = L.conj().T @ L
        np.multiply(L.conj()[:, None, :, None], L[None, :, None, :], out=term)
        term[diag, :, diag, :] -= 0.5 * K
        term[:, diag, :, diag] -= 0.5 * K.T
        mat += term
    return LiouvillianSuperoperator(hilbert_dim=d, matrix=mat.reshape(d * d, d * d))


class InvalidStateError(ValueError):
    """A member of a stack of candidate states is not a density matrix.

    The message is the one `DensityMatrix` gives for that member alone;
    `index` is its position in the stack.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _check_states(arr: np.ndarray) -> None:
    """Validate every member of the (S, D, D) complex stack `arr` at once.

    Each member must be finite, Hermitian, of unit trace and positive
    semidefinite within `DEFAULT_TOLERANCES`, checked in that order.  The
    first invalid member in stack order raises `InvalidStateError`;
    eigenvalues are taken only of members that pass the first three checks.
    """
    tol = DEFAULT_TOLERANCES
    finite = np.isfinite(arr).all(axis=(1, 2))
    adj = arr.conj().transpose(0, 2, 1)
    with np.errstate(invalid="ignore"):
        herm_err = np.abs(arr - adj).max(axis=(1, 2))
        trace_err = np.abs(arr.trace(axis1=1, axis2=2) - 1.0)
    bad = ~finite | (herm_err > tol.herm) | (trace_err > tol.trace)
    min_eig = np.zeros(len(arr))
    min_eig[~bad] = np.linalg.eigvalsh(0.5 * (arr + adj)[~bad]).min(axis=1)
    bad |= min_eig < -tol.psd
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if not finite[i]:
        message = "non-finite entries"
    elif herm_err[i] > tol.herm:
        message = f"not Hermitian: max |rho - rho^dag| = {herm_err[i]:.3e}"
    elif trace_err[i] > tol.trace:
        message = f"trace differs from 1 by {trace_err[i]:.3e}"
    else:
        message = f"not positive semidefinite: min eigenvalue {min_eig[i]:.3e}"
    raise InvalidStateError(message, i)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive within tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density matrix must be square")
        _check_states(arr[None])
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _real_embed(mat: np.ndarray) -> np.ndarray:
    """Flatten a complex matrix to a real vector preserving the Frobenius norm."""
    return np.concatenate([mat.real.ravel(), mat.imag.ravel()])


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
    enforced.  Returns inf for a zero Hamiltonian with nonzero jumps, and
    where the ratio exceeds the float range.
    """
    h_norm = float(np.max(np.abs(spectrum.energies)))
    l_sq = 0.0
    for L in jumps:
        L = _as_operator(L, spectrum.dim)
        try:
            l_sq = max(l_sq, float(np.linalg.norm(L, 2)) ** 2)
        except OverflowError:  # a norm above sqrt(float max)
            l_sq = float("inf")
    if h_norm == 0.0:
        return float("inf") if l_sq > 0 else 0.0
    return l_sq / h_norm
