import numpy as np
import pytest

from fgkls import (
    DegeneracyPartition,
    EnergySpectrum,
    classify_pairs,
    stationarity_residual,
    steady_state_basis,
    vectorize_liouvillian,
)
from fgkls.core import _hermitian_block
from fgkls.exact import hermitian_affine_distance
from fgkls.models import OscillatorSpinConfig, SigmaPlus, SigmaXY, build_oscillator_spin, build_two_level
from fgkls.perturbation import (
    AffineSolution,
    LinearSystem,
    NoSolution,
    PointerFamily,
    RankReport,
    SchemeFailure,
    apply_trace_condition,
    assemble_internal_system_deg,
    offdiag_next_deg,
    run_pointer_scheme,
    solve_with_rank_check,
)

from helpers import dissipator_columns, random_hermitian, random_nondegenerate_model


def _zero(dim):
    return np.zeros((dim, dim), dtype=complex)


def _diag_unknowns(dim):
    """(kind, m, n) rows of the diagonal unknowns f_00 ... f_(dim-1)(dim-1)."""
    return np.column_stack([np.zeros(dim, dtype=int), np.arange(dim), np.arange(dim)])


# --- off-diagonal closed form ---------------------------------------------

def test_offdiag_order_zero_vanishes():
    rng = np.random.default_rng(0)
    spectrum, jumps = random_nondegenerate_model(rng, dim=4)
    out = offdiag_next_deg(jumps, spectrum, classify_pairs(spectrum), _zero(4))
    assert np.max(np.abs(out)) == 0.0


def test_offdiag_vanishes_on_spin_up_diagonal_previous_order():
    # raising-jump model: a previous order supported on the spin-up diagonal
    # sector produces a vanishing dissipator, hence zero next off-diagonals
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=0.3, jump_variant=SigmaPlus(0.4))
    spectrum, jumps = build_oscillator_spin(cfg)
    prev = _zero(8)
    for m in range(4):
        prev[2 * m, 2 * m] = 0.25
    out = offdiag_next_deg(jumps, spectrum, classify_pairs(spectrum), prev)
    assert np.max(np.abs(out)) < 1e-15


def test_offdiag_two_level_first_order_vanishes():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    prev = np.diag([0.2, 0.8]).astype(complex)
    out = offdiag_next_deg(jumps, spectrum, classify_pairs(spectrum), prev)
    assert np.max(np.abs(out)) < 1e-15


def test_offdiag_singleton_partition_rejects_degenerate_spectrum():
    # a partition that splits a degenerate level would divide by a zero gap
    spectrum = EnergySpectrum(np.array([1.0, 1.0, 2.0]))
    singletons = DegeneracyPartition(classes=((0,), (1,), (2,)), tol_degen=1e-9)
    with pytest.raises(ValueError, match="internal pair routed to the external closed form"):
        offdiag_next_deg([np.eye(3, dtype=complex)], spectrum, singletons, _zero(3))


def test_offdiag_deg_external_only_and_hermitian():
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(0.3, 0.2))
    spectrum, jumps = build_oscillator_spin(cfg)
    partition = classify_pairs(spectrum)
    assert partition.has_degeneracy

    # order zero: everything external vanishes
    out0 = offdiag_next_deg(jumps, spectrum, partition, _zero(8))
    assert np.max(np.abs(out0)) == 0.0

    # a diagonal-only previous order leaves all external entries zero too
    prev = _zero(8)
    for k in range(8):
        prev[k, k] = 1.0 / 8
    assert np.max(np.abs(offdiag_next_deg(jumps, spectrum, partition, prev))) < 1e-15

    # generic Hermitian previous order: output Hermitian entry by entry and
    # zero on diagonal and internal positions
    rng = np.random.default_rng(9)
    prev = random_hermitian(rng, 8)
    out = offdiag_next_deg(jumps, spectrum, partition, prev)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    for m, n in partition.internal_pairs():
        assert out[m, n] == 0.0
    assert np.max(np.abs(np.diag(out))) == 0.0


# --- system assembly --------------------------------------------------------

def test_diagonal_system_two_level_matrix():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum), _zero(2))
    assert np.array_equal(system.unknowns, _diag_unknowns(2))
    assert np.allclose(system.matrix, [[-4.0, 1.0], [4.0, -1.0]])
    assert np.max(np.abs(system.rhs)) == 0.0


def test_diagonal_system_homogeneous_for_zero_offdiag():
    rng = np.random.default_rng(21)
    spectrum, jumps = random_nondegenerate_model(rng, dim=5, n_jumps=2)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum), _zero(5))
    assert np.max(np.abs(system.rhs)) == 0.0


def test_equation_rows_sum_to_identity():
    # summing all diagonal stationarity rows (matrix and right-hand side)
    # gives 0 = 0; consequently the smallest singular value is structurally zero
    rng = np.random.default_rng(23)
    spectrum, jumps = random_nondegenerate_model(rng, dim=5, n_jumps=2, coupling=0.5)
    partition = classify_pairs(spectrum)
    offdiag = offdiag_next_deg(jumps, spectrum, partition, random_hermitian(rng, 5))
    system = assemble_internal_system_deg(jumps, partition, offdiag)
    assert np.max(np.abs(system.matrix.sum(axis=0))) < 1e-12
    assert abs(system.rhs.sum()) < 1e-12
    s = np.linalg.svd(system.matrix, compute_uv=False)
    assert s[-1] < 1e-10 * s[0]


def test_internal_system_structure_sigma_xy():
    # the stacked degenerate system must encode f_mm00 = f_mm11 and the
    # internal-pair proportionality to the known external entries
    g1, g2 = 0.3, 0.2
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(g1, g2))
    spectrum, jumps = build_oscillator_spin(cfg)
    partition = classify_pairs(spectrum)
    pairs = partition.internal_pairs()
    assert pairs == [(0, 5), (2, 7)]

    rng = np.random.default_rng(31)
    external = offdiag_next_deg(jumps, spectrum, partition, random_hermitian(rng, 8))
    system = assemble_internal_system_deg(jumps, partition, external)
    n_diag = 8
    assert np.array_equal(system.unknowns[:n_diag], _diag_unknowns(n_diag))
    assert np.array_equal(system.unknowns[n_diag:], [[1, 0, 5], [2, 0, 5], [1, 2, 7], [2, 2, 7]])

    sol = apply_trace_condition(solve_with_rank_check(system), 0, system.unknowns)
    assert isinstance(sol, AffineSolution)
    assert np.linalg.norm(system.matrix @ sol.particular - system.rhs) < 1e-10
    for v in sol.nullspace_basis:
        assert np.linalg.norm(system.matrix @ v) < 1e-10
    values = dict(zip(map(tuple, system.unknowns.tolist()), sol.particular))
    for m in range(4):
        assert values[(0, 2 * m, 2 * m)] == pytest.approx(values[(0, 2 * m + 1, 2 * m + 1)],
                                                          abs=1e-12)

    # internal unknowns are proportional to the (already known) external
    # entries with ratio (|g1|^2 - |g2|^2) / (|g1|^2 + |g2|^2)
    ratio = (abs(g1) ** 2 - abs(g2) ** 2) / (abs(g1) ** 2 + abs(g2) ** 2)
    for m, n in pairs:
        got = values[(1, m, n)] + 1j * values[(2, m, n)]
        assert got == pytest.approx(ratio * external[m + 1, n - 1], abs=1e-12)


def test_internal_system_all_zero_jumps():
    spectrum = EnergySpectrum(np.array([1.0, 1.0]))
    partition = classify_pairs(spectrum)
    system = assemble_internal_system_deg([_zero(2)], partition, _zero(2))
    assert np.max(np.abs(system.matrix)) == 0.0
    sol = solve_with_rank_check(system)
    assert sol.rank_report.rank == 0
    assert len(sol.nullspace_basis) == len(system.unknowns)


def test_hermitian_block_matches_dissipator_columns():
    # the closed-form matrix against one dissipator call per basis element
    rng = np.random.default_rng(29)
    cases = [build_two_level(1.0, 2.0, 1.0, 2.0),
             random_nondegenerate_model(rng, dim=5, n_jumps=2)]
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(0.3, 0.2j))
    cases.append(build_oscillator_spin(cfg))
    dense = [0.3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
             for _ in range(2)]
    cases.append((EnergySpectrum(np.array([0.5, 0.5, 1.2, 1.2, 1.2, 2.7])), dense))
    cases.append((EnergySpectrum(np.array([1.0, 1.0, 2.0])), [_zero(3)]))
    eps = np.finfo(float).eps
    for spectrum, jumps in cases:
        partition = classify_pairs(spectrum)
        unknowns = assemble_internal_system_deg(jumps, partition, _zero(spectrum.dim)).unknowns
        if partition.has_degeneracy:
            assert set(unknowns[:, 0]) == {0, 1, 2}
        block = _hermitian_block(jumps, unknowns)
        reference = dissipator_columns(jumps, unknowns)
        assert block.dtype == float and block.shape == reference.shape
        assert np.max(np.abs(block - reference)) <= 8 * eps * np.max(np.abs(reference))


# --- rank-checked solve -------------------------------------------------------

def test_solve_two_level_null_space():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum), _zero(2))
    sol = solve_with_rank_check(system)
    assert sol.rank_report.rank == 1
    assert len(sol.nullspace_basis) == 1
    v = sol.nullspace_basis[0]
    expected = np.array([1.0, 4.0]) / np.sqrt(17.0)
    assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-12


def test_solve_zero_system_everything_free():
    system = LinearSystem(matrix=np.zeros((3, 3)), rhs=np.zeros(3),
                          unknowns=_diag_unknowns(3))
    sol = solve_with_rank_check(system)
    assert sol.rank_report.rank == 0
    assert np.max(np.abs(sol.particular)) == 0.0
    assert len(sol.nullspace_basis) == 3


def test_solve_identity_system_unique():
    system = LinearSystem(matrix=np.eye(2), rhs=np.array([1.0, 1.0]),
                          unknowns=_diag_unknowns(2))
    sol = solve_with_rank_check(system)
    assert np.allclose(sol.particular, [1.0, 1.0])
    assert sol.nullspace_basis == ()
    assert sol.rank_report.rank == sol.rank_report.rank_augmented == 2


def test_solve_inconsistent_reports_no_solution():
    system = LinearSystem(matrix=np.array([[1.0, 0.0], [1.0, 0.0]]), rhs=np.array([1.0, 2.0]),
                          unknowns=_diag_unknowns(2))
    out = solve_with_rank_check(system)
    assert isinstance(out, NoSolution)
    assert out.rank_report.rank == 1
    assert out.rank_report.rank_augmented == 2


# --- trace condition ------------------------------------------------------------

def test_trace_condition_two_level_order_zero():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum), _zero(2))
    sol = apply_trace_condition(solve_with_rank_check(system), 0, system.unknowns)
    assert isinstance(sol, AffineSolution)
    assert np.allclose(sol.particular, [0.2, 0.8], atol=1e-14)
    assert sol.nullspace_basis == ()


def test_trace_condition_higher_order_keeps_zero():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum), _zero(2))
    sol = apply_trace_condition(solve_with_rank_check(system), 1, system.unknowns)
    assert np.max(np.abs(sol.particular)) < 1e-15
    assert sol.nullspace_basis == ()


def test_trace_condition_remaining_directions_traceless():
    system = LinearSystem(matrix=np.zeros((4, 4)), rhs=np.zeros(4),
                          unknowns=_diag_unknowns(4))
    sol = apply_trace_condition(solve_with_rank_check(system), 0, system.unknowns)
    assert len(sol.nullspace_basis) == 3
    assert abs(sol.particular.sum() - 1.0) < 1e-14
    for v in sol.nullspace_basis:
        assert abs(v.sum()) < 1e-12
    # orthonormality of the remaining directions
    g = np.array([[float(a @ b) for b in sol.nullspace_basis] for a in sol.nullspace_basis])
    assert np.allclose(g, np.eye(3), atol=1e-12)


def test_trace_condition_unsatisfiable():
    unique = AffineSolution(particular=np.array([0.3, 0.3]), nullspace_basis=(),
                            rank_report=RankReport(2, 2, np.array([1.0, 1.0])))
    out = apply_trace_condition(unique, 0, _diag_unknowns(2))
    assert isinstance(out, NoSolution)
    assert "trace condition" in out.reason


# --- full scheme ------------------------------------------------------------------

def test_scheme_two_level_unique_pointer_all_orders():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    family = run_pointer_scheme(spectrum, jumps, max_order=3)
    assert isinstance(family, PointerFamily)
    assert family.branch == "non-degenerate"
    assert np.allclose(family.orders[0].coeff, np.diag([0.2, 0.8]), atol=1e-14)
    for s in range(1, 4):
        assert np.max(np.abs(family.orders[s].coeff)) < 1e-14
        assert family.free_direction_count(s) == 0


def test_scheme_sigma_plus_family_structure_both_branches():
    for delta, branch in ((0.3, "non-degenerate"), (1.0, "degenerate")):
        cfg = OscillatorSpinConfig(n_levels=6, omega=1.0, delta=delta, jump_variant=SigmaPlus(0.35))
        spectrum, jumps = build_oscillator_spin(cfg)
        family = run_pointer_scheme(spectrum, jumps, max_order=3)
        assert family.branch == branch
        for s in range(4):
            coeff = family.orders[s].coeff
            offdiag = coeff.copy()
            np.fill_diagonal(offdiag, 0.0)
            assert np.max(np.abs(offdiag)) < 1e-12
            assert max(abs(coeff[2 * m + 1, 2 * m + 1]) for m in range(6)) < 1e-12
            assert family.free_direction_count(s) == 5


def test_scheme_sigma_xy_family_structure():
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(0.3, 0.2j))
    spectrum, jumps = build_oscillator_spin(cfg)
    family = run_pointer_scheme(spectrum, jumps, max_order=3)
    assert family.branch == "degenerate"
    f0 = family.orders[0].coeff
    assert abs(sum(f0[2 * m, 2 * m] for m in range(4)) - 0.5) < 1e-12
    for s in range(4):
        coeff = family.orders[s].coeff
        for m in range(4):
            assert abs(coeff[2 * m, 2 * m] - coeff[2 * m + 1, 2 * m + 1]) < 1e-12
        offdiag = coeff.copy()
        np.fill_diagonal(offdiag, 0.0)
        assert np.max(np.abs(offdiag)) < 1e-12


def test_scheme_rank_reports_recorded():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    family = run_pointer_scheme(spectrum, jumps, max_order=2)
    assert len(family.rank_reports) == 3
    for report in family.rank_reports:
        assert report.rank == 1
        assert report.rank_augmented == 1


def test_scheme_failure_propagates_order(monkeypatch):
    import fgkls.perturbation as pert

    calls = {"n": 0}
    real_solve = pert.solve_with_rank_check

    def failing_solve(system, tol_rank=None):
        calls["n"] += 1
        if calls["n"] == 3:  # fail at order 2
            return NoSolution(rank_report=RankReport(1, 2, np.array([1.0])),
                              reason="rank(matrix) < rank(augmented)")
        return real_solve(system, tol_rank)

    monkeypatch.setattr(pert, "solve_with_rank_check", failing_solve)
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    result = pert.run_pointer_scheme(spectrum, jumps, max_order=3)
    assert isinstance(result, SchemeFailure)
    assert result.order == 2
    assert "rank" in result.reason


def test_scheme_assembles_system_once(monkeypatch):
    # the system matrix is built once per run, in closed form; each order costs
    # one closed-form and one right-hand-side dissipator call, not one per unknown
    import fgkls.perturbation as pert

    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(0.3, 0.2))
    spectrum, jumps = build_oscillator_spin(cfg)
    real_dissipator = pert.dissipator

    def calls_for(max_order):
        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real_dissipator(*args, **kwargs)

        monkeypatch.setattr(pert, "dissipator", counting)
        assert isinstance(pert.run_pointer_scheme(spectrum, jumps, max_order=max_order),
                          PointerFamily)
        return calls["n"]

    assert calls_for(3) - calls_for(1) == 2 * 2
    # order zero: the assembly's right-hand side, one closed form, one right-hand side
    assert calls_for(0) == 3


def test_residual_scaling_with_truncation_order():
    rng = np.random.default_rng(41)
    for _ in range(4):
        spectrum, jumps = random_nondegenerate_model(rng, dim=4)
        family = run_pointer_scheme(spectrum, jumps, max_order=2)
        assert isinstance(family, PointerFamily)
        for order in (0, 1, 2):
            r_fat = stationarity_residual(spectrum, [0.1 * L for L in jumps],
                                          family.evaluate(0.1, max_order=order))
            r_thin = stationarity_residual(spectrum, [0.05 * L for L in jumps],
                                           family.evaluate(0.05, max_order=order))
            if min(r_fat, r_thin) <= 1e-13:
                continue
            ratio = r_fat / r_thin
            target = 4.0 ** (order + 1)
            assert target / 2 < ratio < target * 2


def test_oracle_equivalence_random_models():
    rng = np.random.default_rng(43)
    for _ in range(6):
        spectrum, jumps = random_nondegenerate_model(rng, dim=4)
        family = run_pointer_scheme(spectrum, jumps, max_order=0)
        constants = []
        for lam in (0.1, 0.05):
            steady = steady_state_basis(vectorize_liouvillian(spectrum, [lam * L for L in jumps]))
            dist = hermitian_affine_distance(family.evaluate(lam), family.affine_directions(),
                                             steady.physical_member,
                                             list(steady.physical_directions))
            if dist < 1e-13:
                assert dist < 1e-10
                continue
            constants.append(dist / lam**2)
        if len(constants) == 2:
            assert max(constants) / min(constants) < 2.0


def test_family_evaluate_members_and_direction_parameters():
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=0.3, jump_variant=SigmaPlus(0.4))
    spectrum, jumps = build_oscillator_spin(cfg)
    family = run_pointer_scheme(spectrum, jumps, max_order=1)
    n_free = family.free_direction_count(0)
    assert n_free == 3
    member = family.evaluate(0.2, direction_coefficients={0: 0.05 * np.ones(n_free)})
    assert abs(member.trace() - 1.0) < 1e-12
    assert np.max(np.abs(member - member.conj().T)) < 1e-13
    # moved members stay stationary: the whole affine set solves the conditions
    assert stationarity_residual(spectrum, [0.2 * L for L in jumps], member) < 1e-12


def test_family_evaluate_validates_arguments():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    family = run_pointer_scheme(spectrum, jumps, max_order=1)
    with pytest.raises(ValueError):
        family.evaluate(1.0, max_order=5)
    with pytest.raises(ValueError):
        run_pointer_scheme(spectrum, jumps, max_order=-1)
