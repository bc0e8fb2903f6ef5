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
family is read off its partition.

The linear systems are real: diagonal unknowns are real by Hermiticity and
each internal pair contributes a real and an imaginary part.  Each unknown is
one (kind, m, n) row of an integer array (kind 0: f_mm; kinds 1 and 2: real
and imaginary part of f_mn), and the system matrix is the dissipator written
in the matching Hermitian basis E_mm, E_mn + E_nm, i(E_mn - E_nm), built in
closed form from the jumps over those index arrays.  Ranks count singular
values above tol_rank * max(s_max, sum_a ||L_a||_F^2); solvability (rank A =
rank [A | b]) is read off b's component in A's cokernel.  The null space left
after the trace condition (trace 1 at order zero, traceless corrections above)
is the pointer family's freedom.

The system matrix A depends only on the jumps and the partition, so all that
does not change between orders is worked out once per run: A's full SVD, its
rank and null space (`assemble_internal_system_deg`); the trace condition's
pivot, its trace component and the free directions, with one weighted QR
(`apply_trace_condition`); and the closed form's table of external pairs and
gaps (`_external_pairs`).  Each order then does four steps: the closed form,
the right-hand side, the cokernel projection and particular solution read from
the stored factors (`solve_with_rank_check`), and one trace shift along the
stored pivot.  Every order shares the one set of free directions.

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
    "TraceCondition",
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
        if not np.isfinite(arr).all():
            # every comparison below is false for NaN
            raise ValueError(f"order {self.order} coefficients are not finite")
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
    of the stationarity condition.  `rank` counts the singular values above
    tol_rank * max(s_max, scale), where `scale` (sum_a ||L_a||_F^2 when
    assembled) floors the cutoff.  A, its full SVD (u, s, vt) and its rank
    are computed once and stored read-only; `nullspace` is vt[rank:].
    """

    matrix: np.ndarray
    unknowns: np.ndarray
    scale: float = 0.0
    tol_rank: float = DEFAULT_TOLERANCES.rank
    svd: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)
    rank: int = field(init=False)

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        svd = np.linalg.svd(matrix, full_matrices=True)
        for arr in (matrix, *svd):
            arr.flags.writeable = False
        s = svd[1]
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "svd", tuple(svd))
        object.__setattr__(self, "rank", int(np.sum(
            s > self.tol_rank * max(s.max(initial=0.0), self.scale))))

    @property
    def nullspace(self) -> np.ndarray:
        """Orthonormal basis of A's null space, one vector per row."""
        return self.svd[2][self.rank:]


@dataclass(frozen=True)
class TraceCondition:
    """The trace condition on A's null space; it depends on A alone, so every order shares it.

    The trace of x is `diagonal @ x`, `diagonal` marking the kind-0 unknowns.
    Each order moves its particular solution along `pivot`, the null vector
    whose trace is `component`, onto its trace target.  `pivot` is None when
    no null vector moves the trace.  `free` holds one free direction per row.
    """

    diagonal: np.ndarray
    pivot: np.ndarray | None
    component: float
    free: np.ndarray


@dataclass(frozen=True)
class SchemeFailure:
    """Reported when the per-order construction stops before max_order.

    `rank` is A's; `rank_augmented` is [A | b]'s, b the stopping order's right-hand side.
    """

    order: int
    reason: str
    rank: int
    rank_augmented: int


def _external_pairs(spectrum: EnergySpectrum,
                    partition: DegeneracyPartition) -> tuple[np.ndarray, np.ndarray]:
    """(mask, gaps): the closed form's external entries and their eps_m - eps_n, in mask order."""
    if partition.dim != spectrum.dim:
        raise ValueError("partition does not match spectrum dimension")
    ids = partition.class_ids
    mask = ids[:, None] != ids[None, :]
    e = spectrum.energies
    gaps = (e[:, None] - e[None, :])[mask]
    if np.any(np.abs(gaps) <= partition.tol_degen):
        raise ValueError("internal pair routed to the external closed form")
    return mask, gaps


def offdiag_next_deg(jumps: Sequence[np.ndarray], external: tuple[np.ndarray, np.ndarray],
                     prev) -> np.ndarray:
    """External entries of order s, -i Diss(prev)_mn / (eps_m - eps_n); the rest is left zero.

    `external` is the (mask, gaps) table of `_external_pairs`; an overflow gives inf.
    """
    mask, gaps = external
    diss = dissipator(jumps, np.asarray(prev, dtype=complex))
    out = np.zeros_like(diss)
    with np.errstate(over="ignore"):
        out[mask] = -1j * diss[mask] / gaps
    return out


def _rhs(jumps, known, rows: np.ndarray) -> np.ndarray:
    """Right-hand side of the same-order system: minus the known entries' image."""
    kind, m, n = rows.T
    image = dissipator(jumps, known)[m, n]
    return -np.where(kind == 2, image.imag, image.real)


def assemble_internal_system_deg(jumps: Sequence[np.ndarray], partition: DegeneracyPartition,
                                 tol_rank: float = DEFAULT_TOLERANCES.rank) -> LinearSystem:
    """Factorised system matrix for the diagonal and internal-pair entries of every order.

    The unknowns are (kind, m, n) rows (see `LinearSystem`): the diagonal
    entries first (ascending index), then the internal pairs (m, n), m < n, in
    lexicographic order, each as a real (kind 1) and an imaginary (kind 2)
    part.  The rows are the unknowns: the diagonal conditions and, per
    internal pair, the real and imaginary parts of [Diss(f)]_mn = 0.  The
    matrix is the dissipator in the Hermitian basis of the unknowns, built in
    closed form by `_hermitian_block`, and factorised once, with its rank
    under `tol_rank`; each order passes its own right-hand side.  For a
    spectrum without degeneracy only the diagonal unknowns remain: their
    matrix is the rate matrix whose columns each sum to zero, so one singular
    value is structurally zero.
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
    return LinearSystem(matrix, unknowns, sum(float(np.linalg.norm(L)) ** 2 for L in jumps),
                        tol_rank)


def solve_with_rank_check(system: LinearSystem, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """(particular, rank_augmented): the minimum-norm least-squares solution of A x = rhs.

    Everything is read from A's stored factors (u, s, vt) and rank, which is
    `system.rank` for every rhs.  rhs is consistent when its cokernel
    component ||u[:, rank:]^T rhs|| is at most tol_rank * max(s_max, ||rhs||,
    system.scale), within sqrt(2) of the rank floor of [A | rhs] (Golub & Van
    Loan, Matrix Computations, 5.5); if not, rank_augmented is rank + 1 and
    the solution does not solve the system.  Everything is computed on
    rhs / 2^e, which brings max |rhs| >= 1 into [1/2, 1) (e = 0 below 1):
    exact scaling, where no norm's square overflows.  The solution is scaled
    back by 2^e without a warning; entries past the float range become inf.
    """
    b = np.asarray(rhs, dtype=float)
    u, s, vt = system.svd
    rank = system.rank
    e = max(int(np.frexp(np.max(np.abs(b), initial=0.0))[1]), 0)
    unit = np.ldexp(b, -e)
    floor = system.tol_rank * max(np.ldexp(max(s.max(initial=0.0), system.scale), -e),
                                  float(np.linalg.norm(unit)))
    rank_aug = rank + int(np.linalg.norm(u[:, rank:].T @ unit) > floor)
    # rank 0 leaves an empty sum: the zero vector
    with np.errstate(over="ignore"):
        particular = np.ldexp(vt[:rank].T @ ((u[:, :rank].T @ unit) / s[:rank]), e)
    return particular, rank_aug


def apply_trace_condition(system: LinearSystem) -> TraceCondition:
    """Split A's null space into the trace condition's pivot and the free directions.

    The null vector with the largest diagonal-sum component is the pivot,
    along which each order meets its trace target (1 at order zero, 0
    above).  The other null vectors, less their pivot multiples, have zero
    diagonal sum; they are orthonormalised (one QR) in the metric
    sum_j w_j x_j y_j, with w_j the Frobenius norm squared of unknown j's
    basis element (1 for kind 0, 2 for kinds 1 and 2), so that their
    `_scatter`ed matrices are Frobenius-orthonormal and traceless.  If no
    null vector moves the trace, there is no pivot and the null space is left
    as it is: each order must then meet its target as solved.
    """
    t = (system.unknowns[:, 0] == 0).astype(float)
    null = system.nullspace
    components = np.array([float(t @ v) for v in null])
    dir_tol = 1e-12 * max(1.0, float(np.linalg.norm(t)))
    if components.size == 0 or np.max(np.abs(components)) <= dir_tol:
        return TraceCondition(t, None, 0.0, null)

    j = int(np.argmax(np.abs(components)))
    others = np.arange(len(null)) != j
    free = null[others] - np.outer(components[others] / components[j], null[j])
    if len(free):
        root_w = np.sqrt(2.0 - t)  # sqrt(w): 1 on kind 0, sqrt(2) on kinds 1 and 2
        q, r = np.linalg.qr(root_w[:, None] * free.T)
        free = (q[:, np.abs(np.diag(r)) > 1e-12] / root_w[:, None]).T
    return TraceCondition(t, null[j], float(components[j]), free)


@dataclass(frozen=True)
class PointerFamily:
    """Affine family of stationary states produced by the per-order scheme.

    `orders[s].coeff` is the lam-independent coefficient of lam^(2s) for the
    particular member; `free_directions`, shared by every order, are
    Frobenius-orthonormal traceless Hermitian matrices spanning the freedom
    after the trace condition.  Every order solves with the one matrix A, of
    `rank` and read-only `singular_values`; each order's [A | b] has that rank too.
    """

    partition: DegeneracyPartition
    orders: tuple[OrderCoefficients, ...]
    free_directions: tuple[np.ndarray, ...]
    rank: int
    singular_values: np.ndarray

    @property
    def branch(self) -> str:
        """Report label of the spectrum: "degenerate" if any class has two members."""
        return "degenerate" if self.partition.has_degeneracy else "non-degenerate"

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def evaluate(self, lam: float = 1.0, max_order: int | None = None) -> np.ndarray:
        """Particular member sum_s lam^(2s) f^(s), truncated at max_order."""
        if max_order is None:
            max_order = self.max_order
        if not 0 <= max_order <= self.max_order:
            raise ValueError(f"max_order must be in [0, {self.max_order}]")
        out = np.zeros_like(self.orders[0].coeff)
        for s in range(max_order + 1):
            out = out + (lam ** (2 * s)) * self.orders[s].coeff
        return out


def run_pointer_scheme(spectrum: EnergySpectrum, jumps: Sequence[np.ndarray],
                       partition: DegeneracyPartition | None = None,
                       max_order: int = 3, tol_rank: float = DEFAULT_TOLERANCES.rank):
    """Alternate the closed form and the linear solve up to `max_order`.

    Every spectrum takes the same path: a spectrum without degeneracy is the
    case of singleton classes, which leaves no internal pairs.  What depends
    only on the jumps and the partition is set up once per run: the table of
    external pairs, the system matrix with its SVD, rank and null space, and
    the trace condition's pivot and free directions.  Each order then fills
    the external entries from the previous order, builds the right-hand side
    from them, checks solvability and solves from the stored factors, and
    shifts the solution's trace along the stored pivot.  Returns a
    `PointerFamily`, or a `SchemeFailure` naming the order at which the
    construction stopped: no solution, or coefficients that are not finite.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    if partition is None:
        partition = classify_pairs(spectrum)
    external = _external_pairs(spectrum, partition)
    jumps = [np.asarray(L, dtype=complex) for L in jumps]
    system = assemble_internal_system_deg(jumps, partition, tol_rank)
    trace = apply_trace_condition(system)

    dim, rank = spectrum.dim, system.rank
    orders: list[OrderCoefficients] = []
    prev = np.zeros((dim, dim), dtype=complex)
    for s in range(max_order + 1):
        not_finite = f"order {s} coefficients are not finite"
        # the closed form leaves the diagonal and internal entries zero
        offdiag = offdiag_next_deg(jumps, external, prev)
        if not np.isfinite(offdiag).all():  # stop before its image reaches the solve
            return SchemeFailure(s, not_finite, rank, rank)
        particular, rank_aug = solve_with_rank_check(system, _rhs(jumps, offdiag, system.unknowns))
        if rank_aug > rank:
            return SchemeFailure(s, "rank(matrix) < rank(augmented)", rank, rank_aug)
        if not np.isfinite(particular).all():  # stop before the trace shift
            return SchemeFailure(s, not_finite, rank, rank)
        target = 1.0 if s == 0 else 0.0
        current = float(trace.diagonal @ particular)
        if trace.pivot is not None:
            particular = particular + ((target - current) / trace.component) * trace.pivot
        elif abs(current - target) > DEFAULT_TOLERANCES.trace:
            return SchemeFailure(s, f"trace condition unsatisfiable at order {s}: "
                                    f"trace {current:.3e}, target {target}", rank, rank)
        prev = offdiag + _scatter(dim, system.unknowns, particular[None])[0]
        if not np.isfinite(prev).all():
            return SchemeFailure(s, not_finite, rank, rank)
        orders.append(OrderCoefficients(order=s, coeff=prev))

    return PointerFamily(partition=partition, orders=tuple(orders),
                         free_directions=tuple(_scatter(dim, system.unknowns, trace.free)),
                         rank=rank, singular_values=system.svd[1])
