"""Order-by-order construction of pointer states of the FGKLS equation.

Writing the jump operators with a formal bookkeeping scale lam (L -> lam*L),
stationary density matrices admit an expansion in even powers,

    f_mn = f_mn^(0) + lam^2 f_mn^(1) + lam^4 f_mn^(2) + ...,

because the jump terms of the generator are quadratic in lam.  Splitting the
stationarity condition by matrix element gives two kinds of constraints at
each order s:

* entries whose energies differ ("external" pairs) follow in closed form from
  the complete previous order,

      f_mn^(s) = -i [Diss(f^(s-1))]_mn / (eps_m - eps_n),

  where Diss is the dissipator built from the unscaled jumps;
* diagonal entries, together with off-diagonal entries inside a degenerate
  energy class ("internal" pairs), satisfy a linear system of the same order,

      [Diss(f^(s))]_mm = 0  for every m,
      [Diss(f^(s))]_mn = 0  for every internal pair m != n,

  whose right-hand side collects the known external entries of order s.

A non-degenerate spectrum needs no separate scheme: its classes are
singletons, every off-diagonal pair is external and only the diagonal
unknowns remain.  One path serves every spectrum, and the "branch" label of a
family is read off its partition.  The system matrix depends only on the jumps
and the partition, so it is assembled and factorised (one SVD) once per run;
each order builds only its right-hand side and reads the stored factors.

The linear systems are real: diagonal unknowns are real by Hermiticity and
each internal pair contributes a real and an imaginary part.  Each unknown is
one (kind, m, n) row of an integer array (kind 0: f_mm; kinds 1 and 2: real
and imaginary part of f_mn), and the system matrix is the dissipator written
in the matching Hermitian basis E_mm, E_mn + E_nm, i(E_mn - E_nm), built in
closed form from the jumps over those index arrays.  Ranks count singular
values above tol_rank * max(s_max, sum_a ||L_a||_F^2); solvability (rank A =
rank [A | b]) is read off b's component in A's cokernel.  The null space left
after the trace condition (trace 1 at order zero, traceless corrections above)
is the pointer family's freedom.  It depends on the matrix alone, so every
order shares one set of free directions.

Coefficients are stored lam-independent; lam enters only when a family member
is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DegeneracyPartition,
    EnergySpectrum,
    _KIND_READS,
    _KIND_WEIGHTS,
    _hermitian_block,
    _scatter,
    classify_pairs,
    dissipator,
)

__all__ = [
    "OrderCoefficients",
    "LinearSystem",
    "RankReport",
    "AffineSolution",
    "NoSolution",
    "SchemeFailure",
    "PointerFamily",
    "offdiag_next_deg",
    "assemble_internal_system_deg",
    "solve_with_rank_check",
    "apply_trace_condition",
    "run_pointer_scheme",
]


@dataclass(frozen=True)
class OrderCoefficients:
    """Coefficient matrix of lam^(2s): Hermitian, trace 1 at s = 0, traceless above."""

    order: int
    coeff: np.ndarray

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        arr = np.array(self.coeff, dtype=complex)
        # relative to the entries, which grow as powers of 1 / (smallest gap)
        scale = max(1.0, float(np.max(np.abs(arr))))
        herm_err = float(np.max(np.abs(arr - arr.conj().T)))
        if herm_err > DEFAULT_TOLERANCES.herm * scale:
            raise ValueError(f"order {self.order} coefficients not Hermitian ({herm_err:.3e})")
        target = 1.0 if self.order == 0 else 0.0
        trace_err = abs(arr.trace() - target)
        if trace_err > DEFAULT_TOLERANCES.trace * scale:
            raise ValueError(f"order {self.order} trace differs from {target} by {trace_err:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeff", arr)


@dataclass(frozen=True)
class LinearSystem:
    """Real square system matrix A, factorised once; row and column i stand for `unknowns[i]`.

    `unknowns` is an (N, 3) integer array of rows (kind, m, n): kind 0 is the
    diagonal entry f_mm (n = m), kinds 1 and 2 the real and imaginary parts of
    f_mn for an internal pair m < n.  Row i is the same part of entry (m, n)
    of the stationarity condition.  `scale` (sum_a ||L_a||_F^2 when assembled)
    floors rank cutoffs.  A and its full SVD (u, s, vt) are stored read-only;
    every order reads its rank, its consistency and its solution from them.
    """

    matrix: np.ndarray
    unknowns: np.ndarray
    scale: float = 0.0
    svd: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        svd = np.linalg.svd(matrix, full_matrices=True)
        for arr in (matrix, *svd):
            arr.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "svd", tuple(svd))


@dataclass(frozen=True)
class RankReport:
    rank: int
    rank_augmented: int
    singular_values: np.ndarray


@dataclass(frozen=True)
class AffineSolution:
    """Particular solution plus a null-space basis (see `apply_trace_condition` for its metric)."""

    particular: np.ndarray
    nullspace_basis: tuple[np.ndarray, ...]
    rank_report: RankReport


@dataclass(frozen=True)
class NoSolution:
    """Kronecker-Capelli failure (or unsatisfiable trace condition): the scheme stops."""

    rank_report: RankReport | None
    reason: str


@dataclass(frozen=True)
class SchemeFailure:
    """Reported when the per-order construction stops before max_order."""

    order: int
    reason: str
    rank_report: RankReport | None


def offdiag_next_deg(jumps: Sequence[np.ndarray], spectrum: EnergySpectrum,
                     partition: DegeneracyPartition, prev) -> np.ndarray:
    """External entries of order s, -i Diss(prev)_mn / (eps_m - eps_n); the rest is left zero."""
    if partition.dim != spectrum.dim:
        raise ValueError("partition does not match spectrum dimension")
    ids = partition.class_ids
    mask = ids[:, None] != ids[None, :]
    e = spectrum.energies
    gaps = (e[:, None] - e[None, :])[mask]
    if np.any(np.abs(gaps) <= partition.tol_degen):
        raise ValueError("internal pair routed to the external closed form")
    diss = dissipator(jumps, np.asarray(prev, dtype=complex))
    out = np.zeros_like(diss)
    out[mask] = -1j * diss[mask] / gaps
    return out


def _rhs(jumps, known, rows: np.ndarray) -> np.ndarray:
    """Right-hand side of the same-order system: minus the known entries' image."""
    kind, m, n = rows.T
    image = dissipator(jumps, known)[m, n]
    return -np.where(kind == 2, image.imag, image.real)


def assemble_internal_system_deg(jumps: Sequence[np.ndarray],
                                 partition: DegeneracyPartition) -> LinearSystem:
    """Factorised system matrix for the diagonal and internal-pair entries of every order.

    The unknowns are (kind, m, n) rows (see `LinearSystem`): the diagonal
    entries first (ascending index), then the internal pairs (m, n), m < n, in
    lexicographic order, each as a real (kind 1) and an imaginary (kind 2)
    part.  The rows are the unknowns: the diagonal conditions and, per
    internal pair, the real and imaginary parts of [Diss(f)]_mn = 0.  The
    matrix is the dissipator in the Hermitian basis of the unknowns, built in
    closed form by `_hermitian_block`, and factorised once; each order passes
    its own right-hand side.  For a spectrum without degeneracy only the
    diagonal unknowns remain: their matrix is the rate matrix whose columns
    each sum to zero, so one singular value is structurally zero.
    """
    dim = partition.dim
    jumps = [np.asarray(L, dtype=complex) for L in jumps]
    if any(L.shape != (dim, dim) for L in jumps):
        raise ValueError("partition does not match operator dimension")
    pairs = np.array(partition.internal_pairs(), dtype=int).reshape(-1, 2)
    diag = np.arange(dim)
    unknowns = np.concatenate([
        np.column_stack([np.zeros(dim, dtype=int), diag, diag]),
        np.column_stack([np.tile([1, 2], len(pairs)), np.repeat(pairs, 2, axis=0)]),
    ])
    # internal pairs drop the commutator, so G holds no energies
    g = -0.5 * sum((L.conj().T @ L for L in jumps), np.zeros((dim, dim), dtype=complex))
    kind, m, n = unknowns.T
    matrix = _hermitian_block(jumps, g, (m[:, None], n[:, None], _KIND_READS[kind][:, None]),
                              (m, n, _KIND_WEIGHTS[kind]))
    return LinearSystem(matrix, unknowns, sum(float(np.linalg.norm(L)) ** 2 for L in jumps))


def solve_with_rank_check(system: LinearSystem, rhs: np.ndarray,
                          tol_rank: float = DEFAULT_TOLERANCES.rank):
    """Solve A x = rhs for the factorised (possibly singular) system, reporting ranks.

    Everything is read from A's stored factors (u, s, vt).  rank(A) counts the
    singular values above tol_rank * max(s_max, system.scale).  rhs is
    consistent when its cokernel component ||u[:, rank:]^T rhs|| is at most
    tol_rank * max(s_max, ||rhs||, system.scale), within sqrt(2) of the rank
    floor of [A | rhs] (Golub & Van Loan, Matrix Computations, 5.5).  If not,
    rank_augmented is rank + 1 and `NoSolution` is returned; if so, the
    minimum-norm particular solution and an orthonormal null-space basis are.
    """
    b = np.asarray(rhs, dtype=float)
    u, s, vt = system.svd
    rank = int(np.sum(s > tol_rank * max(s.max(initial=0.0), system.scale)))
    floor = tol_rank * max(s.max(initial=0.0), float(np.linalg.norm(b)), system.scale)
    rank_aug = rank + int(np.linalg.norm(u[:, rank:].T @ b) > floor)

    report = RankReport(rank=rank, rank_augmented=rank_aug, singular_values=s)
    if rank_aug > rank:
        return NoSolution(rank_report=report, reason="rank(matrix) < rank(augmented)")

    # rank 0 leaves an empty sum: the zero vector
    particular = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    return AffineSolution(particular, tuple(vt[rank:]), report)


def apply_trace_condition(sol: AffineSolution, order: int, unknowns: np.ndarray):
    """Impose the per-order trace target, eliminating one free parameter.

    The target is 1 at order zero and 0 above.  The free direction with the
    largest diagonal-sum component absorbs the constraint.  The remaining
    directions, which have zero diagonal sum, are orthonormalised (one QR) in
    the metric sum_j w_j x_j y_j, with w_j the Frobenius norm squared of
    unknown j's basis element (1 for kind 0, 2 for kinds 1 and 2), so that
    their `_scatter`ed matrices are Frobenius-orthonormal and traceless.  If
    no direction can move the trace, `sol` is returned unchanged when it
    meets the target; otherwise the scheme has failed.
    """
    t = (np.asarray(unknowns)[:, 0] == 0).astype(float)
    target = 1.0 if order == 0 else 0.0
    components = np.array([float(t @ v) for v in sol.nullspace_basis])
    current = float(t @ sol.particular)

    dir_tol = 1e-12 * max(1.0, float(np.linalg.norm(t)))
    if components.size == 0 or np.max(np.abs(components)) <= dir_tol:
        if abs(current - target) <= DEFAULT_TOLERANCES.trace:
            return sol
        return NoSolution(
            rank_report=sol.rank_report,
            reason=f"trace condition unsatisfiable at order {order}: "
                   f"trace {current:.3e}, target {target}",
        )

    j = int(np.argmax(np.abs(components)))
    pivot = sol.nullspace_basis[j]
    particular = sol.particular + ((target - current) / components[j]) * pivot
    remaining = [
        v - (components[i] / components[j]) * pivot
        for i, v in enumerate(sol.nullspace_basis)
        if i != j
    ]
    if remaining:
        root_w = np.sqrt(2.0 - t)  # sqrt(w): 1 on kind 0, sqrt(2) on kinds 1 and 2
        q, r = np.linalg.qr(root_w[:, None] * np.column_stack(remaining))
        keep = np.abs(np.diag(r)) > 1e-12
        basis = tuple(q[:, k] / root_w for k in range(q.shape[1]) if keep[k])
    else:
        basis = ()
    return AffineSolution(particular=particular, nullspace_basis=basis,
                          rank_report=sol.rank_report)


@dataclass(frozen=True)
class PointerFamily:
    """Affine family of stationary states produced by the per-order scheme.

    `orders[s].coeff` is the lam-independent coefficient of lam^(2s) for the
    particular member; `free_directions`, shared by every order, are
    Frobenius-orthonormal traceless Hermitian matrices spanning the freedom
    after the trace condition.
    """

    spectrum: EnergySpectrum
    partition: DegeneracyPartition
    orders: tuple[OrderCoefficients, ...]
    free_directions: tuple[np.ndarray, ...]
    rank_reports: tuple[RankReport, ...]

    @property
    def branch(self) -> str:
        """Report label of the spectrum: "degenerate" if any class has two members."""
        return "degenerate" if self.partition.has_degeneracy else "non-degenerate"

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def evaluate(self, lam: float = 1.0, max_order: int | None = None,
                 direction_coefficients=None) -> np.ndarray:
        """Member sum_s lam^(2s) (f^(s) + sum_i c_si V_i) truncated at max_order.

        `direction_coefficients`, when given, maps order -> sequence of real
        coefficients c_si, one per shared (Frobenius-orthonormal) free
        direction V_i; omitted orders use the particular member.
        """
        if max_order is None:
            max_order = self.max_order
        if not 0 <= max_order <= self.max_order:
            raise ValueError(f"max_order must be in [0, {self.max_order}]")
        coeffs = direction_coefficients or {}
        if any(s not in range(self.max_order + 1) for s in coeffs):
            raise ValueError(f"direction_coefficients orders must be in [0, {self.max_order}]")
        dirs = self.free_directions
        if any(len(c) != len(dirs) for c in coeffs.values()):
            raise ValueError(f"expected {len(dirs)} direction coefficients per order")
        out = np.zeros_like(self.orders[0].coeff)
        for s in range(max_order + 1):
            term = self.orders[s].coeff.copy()
            for c, v in zip(coeffs.get(s, ()), dirs):
                term = term + c * v
            out = out + (lam ** (2 * s)) * term
        return out


def run_pointer_scheme(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray],
                       partition: DegeneracyPartition | None = None,
                       max_order: int = 3, tol_rank: float = DEFAULT_TOLERANCES.rank):
    """Alternate the closed form and the linear solve up to `max_order`.

    Every spectrum takes the same path: a spectrum without degeneracy is the
    case of singleton classes, which leaves no internal pairs.  The system
    matrix depends only on the jumps and the partition, so it is assembled
    and factorised once; each order then fills the external entries from the
    previous order, builds the right-hand side from them, checks solvability,
    and applies the trace condition.  The free directions depend on the
    matrix alone, so only order zero scatters them.  Returns a
    `PointerFamily`, or a `SchemeFailure` naming the order at which the
    construction stopped.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    if partition is None:
        partition = classify_pairs(spectrum)
    if partition.dim != spectrum.dim:
        raise ValueError("partition does not match spectrum dimension")

    dim = spectrum.dim
    jumps = [np.asarray(L, dtype=complex) for L in jumps]
    orders: list[OrderCoefficients] = []
    reports: list[RankReport] = []
    prev = np.zeros((dim, dim), dtype=complex)
    system = assemble_internal_system_deg(jumps, partition)

    for s in range(max_order + 1):
        # the closed form leaves the diagonal and internal entries zero
        offdiag = offdiag_next_deg(jumps, spectrum, partition, prev)
        sol = solve_with_rank_check(system, _rhs(jumps, offdiag, system.unknowns), tol_rank)
        if not isinstance(sol, NoSolution):
            sol = apply_trace_condition(sol, s, system.unknowns)
        if isinstance(sol, NoSolution):
            return SchemeFailure(order=s, reason=sol.reason, rank_report=sol.rank_report)

        free = sol.nullspace_basis if s == 0 else ()
        mats = _scatter(dim, system.unknowns, np.array([sol.particular, *free]))
        prev = offdiag + mats[0]
        orders.append(OrderCoefficients(order=s, coeff=prev))
        if s == 0:
            directions = tuple(mats[1:])
        reports.append(sol.rank_report)

    return PointerFamily(spectrum=spectrum, partition=partition, orders=tuple(orders),
                         free_directions=directions, rank_reports=tuple(reports))
