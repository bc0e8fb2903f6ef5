"""Pointer states of the FGKLS (Lindblad) master equation.

A pointer is a stationary density matrix of an open quantum system: the
environment-selected state a measurement-like interaction drives the system
into.  This package constructs pointers perturbatively, order by order in the
jump operators, and validates them against two exact references: the null
space of the vectorized Liouvillian and direct time-domain integration.
"""

from .core import (
    DEFAULT_TOLERANCES,
    DegeneracyPartition,
    DensityMatrix,
    EnergySpectrum,
    LiouvillianSuperoperator,
    Tolerances,
    bloch_to_matrix,
    classify_pairs,
    default_tol_degen,
    dissipator,
    fgkls_generator,
    matrix_to_bloch,
    random_density_matrix,
    stationarity_residual,
    vectorize_liouvillian,
    weak_coupling_ratio,
)
from .exact import (
    EmptyKernelError,
    StepSizeError,
    SteadyStateSet,
    Trajectory,
    TwoLevelParams,
    default_step,
    hermitian_affine_distance,
    integrate_trajectory,
    point_to_affine_distance,
    steady_state_bases,
    steady_state_basis,
    steady_state_basis_svd,
    two_level_bloch_exact,
    verify_identity_72,
)
from .models import (
    OscillatorSpinConfig,
    SigmaPlus,
    SigmaXY,
    build_oscillator_spin,
    build_two_level,
    offdiag_to_pauli,
    pauli_to_offdiag,
)
from .perturbation import (
    LinearSystem,
    OrderCoefficients,
    PointerFamily,
    SchemeFailure,
    TraceCondition,
    apply_trace_condition,
    assemble_internal_system_deg,
    offdiag_next_deg,
    run_pointer_scheme,
    solve_with_rank_check,
)

__version__ = "0.1.0"
