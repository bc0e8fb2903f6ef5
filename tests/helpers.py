"""Shared constructions for the test suite."""

import numpy as np

from fgkls import EnergySpectrum


def random_nondegenerate_model(rng, dim=None, n_jumps=1, coupling=0.1, min_gap=0.15):
    """Random spectrum with separated gaps and jumps of spectral norm coupling*||H||."""
    if dim is None:
        dim = int(rng.integers(3, 7))
    e = np.sort(rng.uniform(0.5, 3.0, dim))
    while np.min(np.diff(e)) < min_gap:
        e = np.sort(rng.uniform(0.5, 3.0, dim))
    spectrum = EnergySpectrum(e)
    scale = coupling * float(np.max(np.abs(e)))
    jumps = []
    for _ in range(n_jumps):
        L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        jumps.append(L * (scale / np.linalg.norm(L, 2)))
    return spectrum, jumps


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
