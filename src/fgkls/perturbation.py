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
and the partition, so it is assembled once per run; each order rebuilds only
the right-hand side.

The linear systems are real: diagonal unknowns are real by Hermiticity and
each internal pair contributes a real and an imaginary part.  Each unknown is
one (kind, m, n) row of an integer array (kind 0: f_mm; kinds 1 and 2: real
and imaginary part of f_mn), and the system matrix is the dissipator written
in the matching Hermitian basis E_mm, E_mn + E_nm, i(E_mn - E_nm), built in
closed form from the jumps over those index arrays.  Solvability is
decided per order by the Kronecker-Capelli rank comparison; the leftover null
space is the pointer family's freedom, reduced by one parameter per order by
the trace condition (trace 1 at order zero, traceless corrections above).

Coefficients are stored lam-independent; lam enters only when a family member
is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DegeneracyPartition,
    EnergySpectrum,
    _KIND_WEIGHTS,
    _hermitian_block,
    _orthonormal_span,
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

def _scatter(dim: int, unknowns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian matrices sum_j values[k, j] B_j, one per row k of `values`.

    B_j is the basis element w E_mn + conj(w) E_nm of unknown j (see
    `core._KIND_WEIGHTS`).  The entries are accumulated, not assigned: the
    real and imaginary part of a pair land on the same entry.
    """
    kind, m, n = unknowns.T
    weighted = _KIND_WEIGHTS[kind] * values
    out = np.zeros((len(values), dim, dim), dtype=complex)
    np.add.at(out, (slice(None), m, n), weighted)
    np.add.at(out, (slice(None), n, m), weighted.conj())
    return out


@dataclass(frozen=True)
class OrderCoefficients:
    """Coefficient matrix of lam^(2s): Hermitian, trace 1 at s = 0, traceless above."""

    order: int
    coeff: np.ndarray

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        arr = np.array(self.coeff, dtype=complex)
        tol = DEFAULT_TOLERANCES
        herm_err = float(np.max(np.abs(arr - arr.conj().T)))
        if herm_err > tol.herm:
            raise ValueError(f"order {self.order} coefficients not Hermitian ({herm_err:.3e})")
        target = 1.0 if self.order == 0 else 0.0
        trace_err = abs(arr.trace() - target)
        if trace_err > tol.trace:
            raise ValueError(
                f"order {self.order} trace differs from {target} by {trace_err:.3e}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coeff", arr)


@dataclass(frozen=True)
class LinearSystem:
    """Real square linear system; row and column i both stand for `unknowns[i]`.

    `unknowns` is an (N, 3) integer array of rows (kind, m, n): kind 0 is the
    diagonal entry f_mm (n = m), kinds 1 and 2 the real and imaginary parts of
    f_mn for an internal pair m < n.  Row i is the same part of entry (m, n)
    of the stationarity condition.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    unknowns: np.ndarray


@dataclass(frozen=True)
class RankReport:
    rank: int
    rank_augmented: int
    singular_values: np.ndarray


@dataclass(frozen=True)
class AffineSolution:
    """Particular solution of minimum norm plus an orthonormal null-space basis."""

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


def assemble_internal_system_deg(jumps: Sequence[np.ndarray], partition: DegeneracyPartition,
                                 external: np.ndarray) -> LinearSystem:
    """Stacked system for diagonal and internal-pair entries of one order.

    The unknowns are (kind, m, n) rows (see `LinearSystem`): the diagonal
    entries first (ascending index), then the internal pairs (m, n), m < n, in
    lexicographic order, each as a real (kind 1) and an imaginary (kind 2)
    part.  The rows are the unknowns: the diagonal conditions and, per
    internal pair, the real and imaginary parts of [Diss(f)]_mn = 0.  The
    matrix is the dissipator in the Hermitian basis of the unknowns, built in
    closed form by `_hermitian_block`; the right-hand side is minus the image
    of the known external entries.  For a spectrum without degeneracy only
    the diagonal unknowns remain: their matrix is the rate matrix whose
    columns each sum to zero, so one singular value is structurally zero.
    """
    external = np.asarray(external, dtype=complex)
    dim = external.shape[0]
    if partition.dim != dim:
        raise ValueError("partition does not match operator dimension")
    pairs = np.array(partition.internal_pairs(), dtype=int).reshape(-1, 2)
    diag = np.arange(dim)
    unknowns = np.concatenate([
        np.column_stack([np.zeros(dim, dtype=int), diag, diag]),
        np.column_stack([np.tile([1, 2], len(pairs)), np.repeat(pairs, 2, axis=0)]),
    ])
    ids = partition.class_ids
    known = np.where(ids[:, None] != ids[None, :], external, 0.0)
    return LinearSystem(matrix=_hermitian_block(jumps, unknowns),
                        rhs=_rhs(jumps, known, unknowns), unknowns=unknowns)


def solve_with_rank_check(system: LinearSystem, tol_rank: float | None = None):
    """Solve a (possibly singular) real system, reporting ranks.

    Rank is the number of singular values above tol_rank times the largest
    one, for the system matrix and for the augmented matrix.  Unequal ranks
    mean the system is inconsistent and `NoSolution` is returned.  Otherwise
    the minimum-norm particular solution and an orthonormal null-space basis
    are produced.
    """
    if tol_rank is None:
        tol_rank = DEFAULT_TOLERANCES.rank
    a = np.asarray(system.matrix, dtype=float)
    b = np.asarray(system.rhs, dtype=float)
    n = a.shape[1]
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol_rank * smax)) if smax > 0 else 0

    aug = np.concatenate([a, b[:, None]], axis=1)
    s_aug = np.linalg.svd(aug, compute_uv=False)
    smax_aug = s_aug[0] if s_aug.size else 0.0
    rank_aug = int(np.sum(s_aug > tol_rank * smax_aug)) if smax_aug > 0 else 0

    report = RankReport(rank=rank, rank_augmented=rank_aug, singular_values=s)
    if rank_aug > rank:
        return NoSolution(rank_report=report, reason="rank(matrix) < rank(augmented)")

    if rank > 0:
        particular = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    else:
        particular = np.zeros(n)
    basis = tuple(vt[i] for i in range(rank, n))
    return AffineSolution(particular=particular, nullspace_basis=basis, rank_report=report)


def apply_trace_condition(sol: AffineSolution, order: int, unknowns: np.ndarray,
                          tol_trace: float | None = None):
    """Impose the per-order trace target, eliminating one free parameter.

    The target is 1 at order zero and 0 above.  The free direction with the
    largest diagonal-sum component absorbs the constraint; the remaining
    directions are re-orthonormalized with zero diagonal sum.  If no direction
    can move the trace and the particular solution misses the target, the
    scheme has failed.
    """
    if tol_trace is None:
        tol_trace = DEFAULT_TOLERANCES.trace
    t = (np.asarray(unknowns)[:, 0] == 0).astype(float)
    target = 1.0 if order == 0 else 0.0
    components = np.array([float(t @ v) for v in sol.nullspace_basis])
    current = float(t @ sol.particular)

    dir_tol = 1e-12 * max(1.0, float(np.linalg.norm(t)))
    if components.size == 0 or np.max(np.abs(components)) <= dir_tol:
        if abs(current - target) <= tol_trace:
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
        q, r = np.linalg.qr(np.column_stack(remaining))
        keep = np.abs(np.diag(r)) > 1e-12
        basis = tuple(q[:, k] for k in range(q.shape[1]) if keep[k])
    else:
        basis = ()
    return AffineSolution(particular=particular, nullspace_basis=basis,
                          rank_report=sol.rank_report)


@dataclass(frozen=True)
class PointerFamily:
    """Affine family of stationary states produced by the per-order scheme.

    `orders[s].coeff` is the lam-independent coefficient of lam^(2s) for the
    particular member; `free_directions[s]` are Hermitian traceless matrices
    spanning the residual freedom left at order s after the trace condition.
    """

    spectrum: EnergySpectrum
    partition: DegeneracyPartition
    orders: tuple[OrderCoefficients, ...]
    free_directions: tuple[tuple[np.ndarray, ...], ...]
    rank_reports: tuple[RankReport, ...]
    lambda_scale: float = 1.0

    @property
    def branch(self) -> str:
        """Report label of the spectrum: "degenerate" if any class has two members."""
        return "degenerate" if self.partition.has_degeneracy else "non-degenerate"

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def free_direction_count(self, order: int) -> int:
        return len(self.free_directions[order])

    def evaluate(self, lam: float | None = None, max_order: int | None = None,
                 direction_coefficients=None) -> np.ndarray:
        """Member sum_s lam^(2s) (f^(s) + sum_i c_si V_si) truncated at max_order.

        `direction_coefficients`, when given, maps order -> sequence of real
        coefficients for that order's free directions; omitted orders use the
        particular member.
        """
        if lam is None:
            lam = self.lambda_scale
        if max_order is None:
            max_order = self.max_order
        if not 0 <= max_order <= self.max_order:
            raise ValueError(f"max_order must be in [0, {self.max_order}]")
        out = np.zeros_like(self.orders[0].coeff)
        for s in range(max_order + 1):
            term = self.orders[s].coeff.copy()
            if direction_coefficients and s in direction_coefficients:
                coeffs = direction_coefficients[s]
                dirs = self.free_directions[s]
                if len(coeffs) != len(dirs):
                    raise ValueError(f"expected {len(dirs)} coefficients at order {s}")
                for c, v in zip(coeffs, dirs):
                    term = term + c * v
            out = out + (lam ** (2 * s)) * term
        return out

    def affine_directions(self, max_order: int | None = None) -> list[np.ndarray]:
        """Orthonormal Hermitian basis of the union of all free directions."""
        if max_order is None:
            max_order = self.max_order
        return _orthonormal_span([v for s in range(max_order + 1)
                                  for v in self.free_directions[s]])


def run_pointer_scheme(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray],
                       partition: DegeneracyPartition | None = None,
                       max_order: int = 3, tol_rank: float | None = None):
    """Alternate the closed form and the linear solve up to `max_order`.

    Every spectrum takes the same path: a spectrum without degeneracy is the
    case of singleton classes, which leaves no internal pairs.  The system
    matrix depends only on the jumps and the partition, so it is assembled
    once; each order then fills the external entries from the previous order,
    rebuilds the right-hand side from them, checks solvability, and applies
    the trace condition.  Returns a `PointerFamily`, or a `SchemeFailure`
    naming the order at which the construction stopped.
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
    directions: list[tuple[np.ndarray, ...]] = []
    reports: list[RankReport] = []
    prev = np.zeros((dim, dim), dtype=complex)
    system = assemble_internal_system_deg(jumps, partition, prev)

    for s in range(max_order + 1):
        # the closed form leaves the diagonal and internal entries zero
        offdiag = offdiag_next_deg(jumps, spectrum, partition, prev)
        system = replace(system, rhs=_rhs(jumps, offdiag, system.unknowns))

        sol = solve_with_rank_check(system, tol_rank=tol_rank)
        if isinstance(sol, NoSolution):
            return SchemeFailure(order=s, reason=sol.reason, rank_report=sol.rank_report)
        sol = apply_trace_condition(sol, s, system.unknowns)
        if isinstance(sol, NoSolution):
            return SchemeFailure(order=s, reason=sol.reason, rank_report=sol.rank_report)

        mats = _scatter(dim, system.unknowns, np.array([sol.particular, *sol.nullspace_basis]))
        coeff = offdiag + mats[0]
        orders.append(OrderCoefficients(order=s, coeff=coeff))
        for mat in mats[1:]:
            mat /= np.linalg.norm(mat)
        directions.append(tuple(mats[1:]))
        reports.append(sol.rank_report)
        prev = coeff

    return PointerFamily(spectrum=spectrum, partition=partition, orders=tuple(orders),
                         free_directions=tuple(directions), rank_reports=tuple(reports))
