import warnings

import numpy as np
import pytest

from fgkls import (
    DegeneracyPartition,
    EnergySpectrum,
    classify_pairs,
    stationarity_residual,
    steady_state_basis,
)
from fgkls.core import (_KIND_READS, _KIND_WEIGHTS, _hermitian_block, _real_embed, _scatter,
                        dissipator)
from fgkls.exact import hermitian_affine_distance
from fgkls.models import OscillatorSpinConfig, SigmaPlus, SigmaXY, build_oscillator_spin, build_two_level
from fgkls.perturbation import (
    LinearSystem,
    OrderCoefficients,
    PointerFamily,
    SchemeFailure,
    _external_pairs,
    _rhs,
    apply_trace_condition,
    assemble_internal_system_deg,
    offdiag_next_deg,
    run_pointer_scheme,
    solve_with_rank_check,
)

from helpers import (SPARSE_D4_DRAWS, augmented_rank_reference, dissipator_columns,
                     protected_class_model, random_hermitian, random_nondegenerate_model,
                     span_gap, sparse_d4_model)


def _zero(dim):
    return np.zeros((dim, dim), dtype=complex)


def _diag_unknowns(dim):
    """(kind, m, n) rows of the diagonal unknowns f_00 ... f_(dim-1)(dim-1)."""
    return np.column_stack([np.zeros(dim, dtype=int), np.arange(dim), np.arange(dim)])


def _solve_homogeneous(system):
    return solve_with_rank_check(system, np.zeros(len(system.unknowns)))


def _external(spectrum):
    return _external_pairs(spectrum, classify_pairs(spectrum))


def _order_solution(system, rhs, order):
    """One order's solve as the scheme does it: the particular solution moved onto its trace target."""
    particular, rank_aug = solve_with_rank_check(system, rhs)
    trace = apply_trace_condition(system)
    target = 1.0 if order == 0 else 0.0
    shift = (target - trace.diagonal @ particular) / trace.component
    return particular + shift * trace.pivot, rank_aug, trace


# --- order coefficients ------------------------------------------------------

def _traceless_hermitian(scale, seed=3):
    h = random_hermitian(np.random.default_rng(seed), 4)
    return scale * (h - np.trace(h).real / 4 * np.eye(4))


def test_order_coefficients_accept_rounding_of_large_entries():
    # an error of 5e-17 relative to entries of 1e7 is rounding, not asymmetry
    coeff = _traceless_hermitian(1e7)
    coeff[0, 1] += 1e-9
    coeff[2, 2] += 1e-9
    assert OrderCoefficients(order=2, coeff=coeff).coeff[0, 1] == coeff[0, 1]


@pytest.mark.parametrize("scale, error", [(1e7, 1e-2), (1.0, 1e-9)], ids=["large", "small"])
def test_order_coefficients_reject_asymmetry_and_trace(scale, error):
    coeff = _traceless_hermitian(scale)
    coeff[0, 1] += error
    with pytest.raises(ValueError, match="order 2 coefficients not Hermitian"):
        OrderCoefficients(order=2, coeff=coeff)
    coeff = _traceless_hermitian(scale)
    coeff[2, 2] += error
    with pytest.raises(ValueError, match="order 2 trace differs from 0.0"):
        OrderCoefficients(order=2, coeff=coeff)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "imag-nan"])
def test_order_coefficients_reject_non_finite_entries(value):
    # every comparison with NaN is false, so the Hermiticity and trace checks pass it
    coeff = _traceless_hermitian(1.0)
    coeff[0, 1] = coeff[1, 0] = value
    with pytest.raises(ValueError, match="order 2 coefficients are not finite"):
        OrderCoefficients(order=2, coeff=coeff)


# --- off-diagonal closed form ---------------------------------------------

def test_offdiag_order_zero_vanishes():
    rng = np.random.default_rng(0)
    spectrum, jumps = random_nondegenerate_model(rng, dim=4)
    out = offdiag_next_deg(jumps, _external(spectrum), _zero(4))
    assert np.max(np.abs(out)) == 0.0


def test_offdiag_vanishes_on_spin_up_diagonal_previous_order():
    # raising-jump model: a previous order supported on the spin-up diagonal
    # sector produces a vanishing dissipator, hence zero next off-diagonals
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=0.3, jump_variant=SigmaPlus(0.4))
    spectrum, jumps = build_oscillator_spin(cfg)
    prev = _zero(8)
    for m in range(4):
        prev[2 * m, 2 * m] = 0.25
    out = offdiag_next_deg(jumps, _external(spectrum), prev)
    assert np.max(np.abs(out)) < 1e-15


def test_offdiag_two_level_first_order_vanishes():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    prev = np.diag([0.2, 0.8]).astype(complex)
    out = offdiag_next_deg(jumps, _external(spectrum), prev)
    assert np.max(np.abs(out)) < 1e-15


def test_offdiag_singleton_partition_rejects_degenerate_spectrum():
    # a partition that splits a degenerate level would divide by a zero gap
    spectrum = EnergySpectrum(np.array([1.0, 1.0, 2.0]))
    singletons = DegeneracyPartition(classes=((0,), (1,), (2,)), tol_degen=1e-9)
    with pytest.raises(ValueError, match="internal pair routed to the external closed form"):
        _external_pairs(spectrum, singletons)


def test_offdiag_deg_external_only_and_hermitian():
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(0.3, 0.2))
    spectrum, jumps = build_oscillator_spin(cfg)
    partition = classify_pairs(spectrum)
    assert partition.has_degeneracy

    # order zero: everything external vanishes
    external = _external_pairs(spectrum, partition)
    out0 = offdiag_next_deg(jumps, external, _zero(8))
    assert np.max(np.abs(out0)) == 0.0

    # a diagonal-only previous order leaves all external entries zero too
    prev = _zero(8)
    for k in range(8):
        prev[k, k] = 1.0 / 8
    assert np.max(np.abs(offdiag_next_deg(jumps, external, prev))) < 1e-15

    # generic Hermitian previous order: output Hermitian entry by entry and
    # zero on diagonal and internal positions
    rng = np.random.default_rng(9)
    prev = random_hermitian(rng, 8)
    out = offdiag_next_deg(jumps, external, prev)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    for m, n in partition.internal_pairs():
        assert out[m, n] == 0.0
    assert np.max(np.abs(np.diag(out))) == 0.0


# --- system assembly --------------------------------------------------------

def test_diagonal_system_two_level_matrix():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum))
    assert np.array_equal(system.unknowns, _diag_unknowns(2))
    assert np.allclose(system.matrix, [[-4.0, 1.0], [4.0, -1.0]])
    assert np.max(np.abs(_rhs(jumps, _zero(2), system.unknowns))) == 0.0


def test_diagonal_system_homogeneous_for_zero_offdiag():
    rng = np.random.default_rng(21)
    spectrum, jumps = random_nondegenerate_model(rng, dim=5, n_jumps=2)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum))
    assert np.max(np.abs(_rhs(jumps, _zero(5), system.unknowns))) == 0.0


def test_equation_rows_sum_to_identity():
    # summing all diagonal stationarity rows (matrix and right-hand side)
    # gives 0 = 0; consequently the smallest singular value is structurally zero
    rng = np.random.default_rng(23)
    spectrum, jumps = random_nondegenerate_model(rng, dim=5, n_jumps=2, coupling=0.5)
    partition = classify_pairs(spectrum)
    offdiag = offdiag_next_deg(jumps, _external_pairs(spectrum, partition),
                               random_hermitian(rng, 5))
    system = assemble_internal_system_deg(jumps, partition)
    assert np.max(np.abs(system.matrix.sum(axis=0))) < 1e-12
    assert abs(_rhs(jumps, offdiag, system.unknowns).sum()) < 1e-12
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
    external = offdiag_next_deg(jumps, _external_pairs(spectrum, partition),
                                random_hermitian(rng, 8))
    system = assemble_internal_system_deg(jumps, partition)
    rhs = _rhs(jumps, external, system.unknowns)
    n_diag = 8
    assert np.array_equal(system.unknowns[:n_diag], _diag_unknowns(n_diag))
    assert np.array_equal(system.unknowns[n_diag:], [[1, 0, 5], [2, 0, 5], [1, 2, 7], [2, 2, 7]])

    particular, rank_aug, trace = _order_solution(system, rhs, 0)
    assert rank_aug == system.rank and trace.pivot is not None
    assert np.linalg.norm(system.matrix @ particular - rhs) < 1e-10
    for v in system.nullspace:
        assert np.linalg.norm(system.matrix @ v) < 1e-10
    values = dict(zip(map(tuple, system.unknowns.tolist()), particular))
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
    system = assemble_internal_system_deg([_zero(2)], partition)
    assert np.max(np.abs(system.matrix)) == 0.0
    _, rank_aug = _solve_homogeneous(system)
    assert rank_aug == system.rank == 0
    assert len(system.nullspace) == len(system.unknowns)


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
        system = assemble_internal_system_deg(jumps, partition)
        unknowns = system.unknowns
        if partition.has_degeneracy:
            assert set(unknowns[:, 0]) == {0, 1, 2}
        # the shared closed form with G = -K/2 is the scheme's system matrix
        kind, m, n = unknowns.T
        g = -0.5 * sum(np.asarray(L).conj().T @ np.asarray(L) for L in jumps)
        block = _hermitian_block([np.asarray(L, dtype=complex) for L in jumps], g,
                                 (m[:, None], n[:, None], _KIND_READS[kind][:, None]),
                                 (m, n, _KIND_WEIGHTS[kind]))
        assert np.array_equal(block, system.matrix)
        reference = dissipator_columns(jumps, unknowns)
        assert block.dtype == float and block.shape == reference.shape
        assert np.max(np.abs(block - reference)) <= 8 * eps * np.max(np.abs(reference))


# --- rank-checked solve -------------------------------------------------------

def test_solve_two_level_null_space():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum))
    _, rank_aug = _solve_homogeneous(system)
    assert rank_aug == system.rank == 1
    assert len(system.nullspace) == 1
    v = system.nullspace[0]
    expected = np.array([1.0, 4.0]) / np.sqrt(17.0)
    assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-12


def test_solve_zero_system_everything_free():
    system = LinearSystem(matrix=np.zeros((3, 3)), unknowns=_diag_unknowns(3))
    particular, rank_aug = _solve_homogeneous(system)
    assert rank_aug == system.rank == 0
    assert np.max(np.abs(particular)) == 0.0
    assert len(system.nullspace) == 3


def test_solve_identity_system_unique():
    system = LinearSystem(matrix=np.eye(2), unknowns=_diag_unknowns(2))
    particular, rank_aug = solve_with_rank_check(system, np.array([1.0, 1.0]))
    assert np.allclose(particular, [1.0, 1.0])
    assert len(system.nullspace) == 0
    assert system.rank == rank_aug == 2


def test_solve_inconsistent_reports_the_augmented_rank():
    system = LinearSystem(matrix=np.array([[1.0, 0.0], [1.0, 0.0]]), unknowns=_diag_unknowns(2))
    _, rank_aug = solve_with_rank_check(system, np.array([1.0, 2.0]))
    assert system.rank == 1
    assert rank_aug == 2


@pytest.mark.parametrize("size", [1e200, 1e307])
def test_rank_check_of_a_huge_right_hand_side(size):
    # ||b||^2 overflows to inf, which made the floor infinite and let every b
    # pass; b / 2^e decides as b does
    system = LinearSystem(matrix=np.array([[1.0, 0.0], [1.0, 0.0]]), unknowns=_diag_unknowns(2))
    _, rank_aug = solve_with_rank_check(system, size * np.array([1.0, 2.0]))
    assert (system.rank, rank_aug) == (1, 2)
    particular, rank_aug = solve_with_rank_check(system, np.array([size, size]))
    assert (system.rank, rank_aug) == (1, 1)
    assert particular == pytest.approx([size, 0.0])


def test_particular_solution_past_the_float_range_is_inf_without_a_warning():
    # 1e306 / 1e-3 overflows: the solution comes back with inf in it, for the
    # scheme to report, and numpy raises no RuntimeWarning on the way
    system = LinearSystem(matrix=np.diag([1.0, 1e-3]), unknowns=_diag_unknowns(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        particular, rank_aug = solve_with_rank_check(system, np.array([1e306, 1e306]))
    assert (system.rank, rank_aug) == (2, 2)
    assert particular[0] == 1e306 and particular[1] == np.inf


# --- trace condition ------------------------------------------------------------

def test_trace_condition_two_level_order_zero():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum))
    particular, _, trace = _order_solution(system, np.zeros(2), 0)
    assert trace.pivot is not None
    assert np.allclose(particular, [0.2, 0.8], atol=1e-14)
    assert len(trace.free) == 0


def test_trace_condition_higher_order_keeps_zero():
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum))
    particular, _, trace = _order_solution(system, np.zeros(2), 1)
    assert np.max(np.abs(particular)) < 1e-15
    assert len(trace.free) == 0


def test_trace_condition_remaining_directions_traceless():
    system = LinearSystem(matrix=np.zeros((4, 4)), unknowns=_diag_unknowns(4))
    particular, _, trace = _order_solution(system, np.zeros(4), 0)
    assert len(trace.free) == 3
    assert abs(particular.sum() - 1.0) < 1e-14
    for v in trace.free:
        assert abs(v.sum()) < 1e-12
    # orthonormality of the remaining directions
    g = np.array([[float(a @ b) for b in trace.free] for a in trace.free])
    assert np.allclose(g, np.eye(3), atol=1e-12)


def test_trace_condition_unsatisfiable(monkeypatch):
    # a system without null space leaves no pivot, and order zero's particular
    # solution, zero, cannot meet trace 1
    import fgkls.perturbation as pert

    unique = LinearSystem(matrix=np.eye(2), unknowns=_diag_unknowns(2))
    trace = apply_trace_condition(unique)
    assert trace.pivot is None and len(trace.free) == 0
    monkeypatch.setattr(pert, "assemble_internal_system_deg", lambda *args: unique)
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    out = pert.run_pointer_scheme(spectrum, jumps, max_order=3)
    assert isinstance(out, SchemeFailure)
    assert out.order == 0
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
    assert family.free_directions == ()


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
        assert len(family.free_directions) == 5


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


def test_scheme_rank_reports_recorded(monkeypatch):
    # every order solves with the one matrix A: the family keeps A's rank and
    # its stored singular values once, and each order's [A | b] has that rank
    import fgkls.perturbation as pert

    real_solve = pert.solve_with_rank_check
    augmented = []

    def recording(system, rhs):
        particular, rank_aug = real_solve(system, rhs)
        augmented.append(rank_aug)
        return particular, rank_aug

    monkeypatch.setattr(pert, "solve_with_rank_check", recording)
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    family = pert.run_pointer_scheme(spectrum, jumps, max_order=2)
    assert family.max_order == 2 and family.rank == 1
    assert augmented == [1, 1, 1]
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum))
    assert np.array_equal(family.singular_values, system.svd[1])
    assert not family.singular_values.flags.writeable


def test_scheme_failure_propagates_order(monkeypatch):
    import fgkls.perturbation as pert

    calls = {"n": 0}
    real_solve = pert.solve_with_rank_check

    def failing_solve(system, rhs):
        calls["n"] += 1
        particular, rank_aug = real_solve(system, rhs)
        if calls["n"] == 3:  # fail at order 2
            return particular, 2
        return particular, rank_aug

    monkeypatch.setattr(pert, "solve_with_rank_check", failing_solve)
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    result = pert.run_pointer_scheme(spectrum, jumps, max_order=3)
    assert isinstance(result, SchemeFailure)
    assert result.order == 2
    assert "rank" in result.reason
    assert (result.rank, result.rank_augmented) == (1, 2)


def test_scheme_stops_at_a_non_finite_particular_solution(monkeypatch):
    # an overflowed particular solution ends the run before the trace shift,
    # whose arithmetic on inf would warn
    import fgkls.perturbation as pert

    real_solve = pert.solve_with_rank_check
    calls = {"n": 0}

    def overflowing_solve(system, rhs):
        calls["n"] += 1
        particular, rank_aug = real_solve(system, rhs)
        if calls["n"] == 2:  # order 1
            particular = np.full_like(particular, np.inf)
        return particular, rank_aug

    monkeypatch.setattr(pert, "solve_with_rank_check", overflowing_solve)
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = pert.run_pointer_scheme(spectrum, jumps, max_order=3)
    assert result == SchemeFailure(1, "order 1 coefficients are not finite", 1, 1)


def test_scheme_assembles_system_once(monkeypatch):
    # the system matrix is built once per run, in closed form, with no
    # dissipator call; each order costs one closed-form and one right-hand-side
    # dissipator call, not one per unknown
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
    # order zero: one closed form, one right-hand side
    assert calls_for(0) == 2


def test_scheme_factorises_its_matrix_once(monkeypatch):
    # every order solves with the same matrix: one full SVD per run, read-only,
    # and no order factorises anything (its consistency is a projection onto
    # the stored cokernel)
    import fgkls.perturbation as pert

    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(0.3, 0.2))
    spectrum, jumps = build_oscillator_spin(cfg)
    real_svd = np.linalg.svd
    calls = []

    def counting(a, *args, compute_uv=True, **kwargs):
        calls.append(compute_uv)
        return real_svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for max_order in (0, 3):
        calls.clear()
        assert isinstance(pert.run_pointer_scheme(spectrum, jumps, max_order=max_order),
                          PointerFamily)
        assert calls == [True]
    monkeypatch.undo()

    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum))
    u, s, vt = system.svd
    for arr in (system.matrix, u, s, vt):
        assert not arr.flags.writeable
    assert np.allclose((u * s) @ vt, system.matrix, atol=1e-14)


def test_augmented_rank_matches_the_augmented_svd_on_sparse_draws(monkeypatch):
    # the projection onto A's stored cokernel decides every solve of the sparse
    # D = 4 draws as the values-only SVD of [A | b] does, the 14 false
    # failures at order 2 included
    import fgkls.perturbation as pert

    real_solve = pert.solve_with_rank_check
    decisions = []

    def checking(system, rhs):
        particular, rank_aug = real_solve(system, rhs)
        decisions.append((system.rank, rank_aug,
                          augmented_rank_reference(system, rhs, system.tol_rank)))
        return particular, rank_aug

    monkeypatch.setattr(pert, "solve_with_rank_check", checking)
    rng = np.random.default_rng(0)
    for _ in range(SPARSE_D4_DRAWS):
        pert.run_pointer_scheme(*sparse_d4_model(rng), max_order=3)
    assert len(decisions) == 3486
    assert all(aug == reference for _, aug, reference in decisions)
    assert sum(aug > rank for rank, aug, _ in decisions) == 14


def test_pure_dephasing_keeps_every_free_direction():
    # a pure-dephasing jump leaves a rate matrix that is zero in exact
    # arithmetic; rounding gives it s_max of about 1e-17, which a cutoff
    # relative to s_max alone would count as rank 1, losing one free direction.
    # The floor sum_a ||L_a||_F^2 counts rank 0.
    spectrum = EnergySpectrum(np.array([0.5, 1.1, 1.9, 2.6]))
    e11 = _zero(4)
    e11[1, 1] = 1.0
    jumps = [0.3 * e11, 0.1 * e11]
    family = run_pointer_scheme(spectrum, jumps, max_order=3)
    assert isinstance(family, PointerFamily)
    assert family.rank == 0 and family.max_order == 3
    assert len(family.free_directions) == 3
    assert len(family.free_directions) + 1 == steady_state_basis(spectrum, jumps).kernel_dim


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
            steady = steady_state_basis(spectrum, [lam * L for L in jumps])
            dist = hermitian_affine_distance(family.evaluate(lam), family.free_directions,
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
    assert len(family.free_directions) == 3
    member = family.evaluate(0.2) + sum(0.05 * v for v in family.free_directions)
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


def test_scheme_holds_one_set_of_free_directions_at_D64():
    # the shape of the pointer-osc64 benchmark model: its 31 directions of
    # 64 x 64 take 2 MB once, and four per-order copies would take 8 MB
    import tracemalloc

    cfg = OscillatorSpinConfig(n_levels=32, omega=1.0, delta=1.0,
                               jump_variant=SigmaXY(0.1, 0.09j))
    spectrum, jumps = build_oscillator_spin(cfg)
    tracemalloc.start()
    try:
        family = run_pointer_scheme(spectrum, jumps, max_order=3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(family, PointerFamily) and family.branch == "degenerate"
    dirs = family.free_directions
    assert len(dirs) == 31
    assert held < 4e6
    internal = family.partition.class_ids[:, None] == family.partition.class_ids[None, :]
    for v in dirs:
        assert abs(v.trace()) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.max(np.abs(v - v.conj().T)) < 1e-14
        # the homogeneous system: diagonal and internal-pair conditions vanish
        assert np.max(np.abs(dissipator(jumps, v)[internal])) < 1e-12


def _unweighted_free_span(spectrum, jumps):
    """The free directions before orthonormalisation: order zero's null space less pivot multiples."""
    system = assemble_internal_system_deg(jumps, classify_pairs(spectrum))
    null = system.nullspace
    components = [float((system.unknowns[:, 0] == 0) @ v) for v in null]
    j = int(np.argmax(np.abs(components)))
    remaining = [v - (c / components[j]) * null[j]
                 for i, (v, c) in enumerate(zip(null, components)) if i != j]
    return list(_scatter(spectrum.dim, system.unknowns, np.array(remaining)))


def test_free_directions_are_frobenius_orthonormal_traceless_with_the_same_span():
    rng = np.random.default_rng(61)
    models = [build_oscillator_spin(OscillatorSpinConfig(n, 1.0, delta, variant))
              for n, delta, variant in ((6, 1.0, SigmaPlus(0.35)), (4, 1.0, SigmaXY(0.3, 0.2j)),
                                        (32, 1.0, SigmaXY(0.1, 0.09j)))]
    models += [protected_class_model(rng) for _ in range(6)]
    coherent = 0
    for spectrum, jumps in models:
        family = run_pointer_scheme(spectrum, jumps, max_order=1)
        dirs = family.free_directions
        assert len(dirs) >= 2
        e = np.array([_real_embed(v) for v in dirs])
        assert np.max(np.abs(e @ e.T - np.eye(len(dirs)))) < 1e-12
        for v in dirs:
            assert abs(v.trace()) < 1e-12
            assert np.max(np.abs(v - v.conj().T)) < 1e-14
        # the weighted QR spans what the unweighted construction spanned
        assert span_gap(dirs, _unweighted_free_span(spectrum, jumps)) < 1e-12
        coherent += any(np.max(np.abs(v - np.diag(np.diag(v)))) > 0.1 for v in dirs)
    # the weights matter only where directions hold internal-pair coherences
    assert coherent == 6


def test_scheme_reaches_each_layer_through_module_globals(monkeypatch):
    # the benchmark times the scheme's layers by rebinding these names
    import fgkls.perturbation as pert

    calls = {}

    def spy(name):
        real = getattr(pert, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return counting

    names = ("offdiag_next_deg", "assemble_internal_system_deg",
             "solve_with_rank_check", "apply_trace_condition")
    for name in names:
        monkeypatch.setattr(pert, name, spy(name))
    cfg = OscillatorSpinConfig(n_levels=4, omega=1.0, delta=1.0, jump_variant=SigmaXY(0.3, 0.2))
    spectrum, jumps = build_oscillator_spin(cfg)
    assert isinstance(run_pointer_scheme(spectrum, jumps, max_order=3), PointerFamily)
    assert calls == {"offdiag_next_deg": 4, "assemble_internal_system_deg": 1,
                     "solve_with_rank_check": 4, "apply_trace_condition": 1}


def test_scheme_sets_up_its_trace_condition_once(monkeypatch):
    # every order shares the pivot and the free directions: one weighted QR and
    # one full SVD per run, whatever the number of orders
    import fgkls.perturbation as pert

    real_qr, real_svd = np.linalg.qr, np.linalg.svd
    calls = []

    def counting_qr(*args, **kwargs):
        calls.append("qr")
        return real_qr(*args, **kwargs)

    def counting_svd(a, *args, compute_uv=True, **kwargs):
        calls.append(("svd", compute_uv))
        return real_svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    cfg = OscillatorSpinConfig(n_levels=6, omega=1.0, delta=1.0, jump_variant=SigmaPlus(0.35))
    spectrum, jumps = build_oscillator_spin(cfg)
    for max_order in (0, 3):
        calls.clear()
        family = pert.run_pointer_scheme(spectrum, jumps, max_order=max_order)
        assert len(family.orders) == max_order + 1 and len(family.free_directions) == 5
        assert calls == [("svd", True), "qr"]
