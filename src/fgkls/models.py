"""Constructors for the bundled example systems.

Two families are provided:

* a one-dimensional harmonic oscillator carrying a spin 1/2 in a constant
  magnetic field, truncated to `n_levels` oscillator states, with either a
  single spin-raising jump operator or a pair of jumps along sigma_1/sigma_2;
* a generic two-level system with a purely off-diagonal jump operator.

The composite oscillator-spin basis is flattened as flat = 2*m + a with
oscillator level m and spin label a (0 = up, 1 = down), so energies come out
oscillator-major with the two spin states of each level adjacent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EnergySpectrum

__all__ = [
    "SigmaPlus",
    "SigmaXY",
    "OscillatorSpinConfig",
    "build_oscillator_spin",
    "build_two_level",
    "pauli_to_offdiag",
    "offdiag_to_pauli",
]

INTEGER_Q_TOL = 1e-9


@dataclass(frozen=True)
class SigmaPlus:
    """Single jump operator (lam/2) I x sigma_plus: flips spin down -> up."""

    lam: complex = 0.1


@dataclass(frozen=True)
class SigmaXY:
    """Two jump operators gamma1 I x sigma_1 and gamma2 I x sigma_2."""

    gamma1: complex = 0.1
    gamma2: complex = 0.1


@dataclass(frozen=True)
class OscillatorSpinConfig:
    """Oscillator(omega, n_levels truncation) + spin in field of strength delta.

    delta is half the magnetic energy splitting; the ratio q = 2*delta/omega
    controls spectral degeneracy: integer q makes level (m, 0) degenerate with
    (m+q, 1).
    """

    n_levels: int
    omega: float
    delta: float
    jump_variant: SigmaPlus | SigmaXY

    def __post_init__(self):
        if self.n_levels < 2:
            raise ValueError("n_levels must be at least 2")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if not math.isfinite(self.q):
            raise ValueError(f"q = 2*delta/omega is not finite (delta {self.delta:g}, "
                             f"omega {self.omega:g})")

    @property
    def dim(self) -> int:
        return 2 * self.n_levels

    @property
    def q(self) -> float:
        return 2.0 * self.delta / self.omega

    @property
    def q_is_integer(self) -> bool:
        return abs(self.q - round(self.q)) <= INTEGER_Q_TOL


def build_oscillator_spin(config: OscillatorSpinConfig) -> tuple[EnergySpectrum, list[np.ndarray]]:
    """Spectrum and jump list of the oscillator-spin model in the flat basis.

    Energies are eps(m, a) = omega*(m + 1/2) + delta*(-1)^a.  The SigmaPlus
    variant produces one operator with entries lam at ((m,0), (m,1)); SigmaXY
    produces the two spin-flip operators with entries gamma1 on both spin
    blocks and -i/+i gamma2 respectively.
    """
    n = config.n_levels
    d = config.dim
    energies = np.empty(d)
    for m in range(n):
        for a in (0, 1):
            energies[2 * m + a] = config.omega * (m + 0.5) + config.delta * (-1) ** a
    spectrum = EnergySpectrum(energies)

    variant = config.jump_variant
    if isinstance(variant, SigmaPlus):
        L = np.zeros((d, d), dtype=complex)
        for m in range(n):
            L[2 * m, 2 * m + 1] = variant.lam
        jumps = [L]
    elif isinstance(variant, SigmaXY):
        L1 = np.zeros((d, d), dtype=complex)
        L2 = np.zeros((d, d), dtype=complex)
        for m in range(n):
            up, down = 2 * m, 2 * m + 1
            L1[up, down] = variant.gamma1
            L1[down, up] = variant.gamma1
            L2[up, down] = -1j * variant.gamma2
            L2[down, up] = 1j * variant.gamma2
        jumps = [L1, L2]
    else:
        raise TypeError(f"unknown jump variant {variant!r}")
    return spectrum, jumps


def build_two_level(eps1: float, eps2: float, l12: complex, l21: complex) -> tuple[EnergySpectrum, list[np.ndarray]]:
    """Two-level system with off-diagonal jump [[0, l12], [l21, 0]].

    Degenerate energies are rejected: the off-diagonal closed form of the
    perturbation scheme divides by eps1 - eps2.
    """
    if eps1 == eps2:
        raise ValueError("two-level model requires eps1 != eps2")
    spectrum = EnergySpectrum(np.array([eps1, eps2], dtype=float))
    jump = np.array([[0.0, l12], [l21, 0.0]], dtype=complex)
    return spectrum, [jump]


def pauli_to_offdiag(a1: float, b1: float, a2: float, b2: float) -> tuple[complex, complex]:
    """Matrix elements (l12, l21) of (a1+i b1) sigma_1 + (a2+i b2) sigma_2."""
    c1 = a1 + 1j * b1
    c2 = a2 + 1j * b2
    return (c1 - 1j * c2, c1 + 1j * c2)


def offdiag_to_pauli(l12: complex, l21: complex) -> tuple[float, float, float, float]:
    """Inverse of `pauli_to_offdiag`: coefficients (a1, b1, a2, b2)."""
    c1 = 0.5 * (l12 + l21)
    c2 = 0.5j * (l12 - l21)
    return (c1.real, c1.imag, c2.real, c2.imag)
