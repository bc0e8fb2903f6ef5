"""Workload definitions: seeded generators of `fgkls` job configs.

Every workload maps a seed to one JSON config and one `fgkls` subcommand.
The program under test only ever sees the generated config file; the seed
stays inside the benchmark.  Each workload's parameters are drawn from
ranges that keep the job's structure (dimension, branch, degeneracy
classes, ranks, kernel dimensions, Liouvillian blocks) the same for every
seed, so a structural reference recorded once per workload checks every
seed, and the cost of a job does not depend on the seed.

Why each workload exists, and which roadmap items it exercises or
bypasses, is recorded in `WORKLOADS[...].why`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    make_config: Callable[[np.random.Generator], dict]


# The CLI's default thresholds, written into every config so the checker
# reads them from the config.  `pointer` ignores them; the checker bounds the
# stationarity residual of its lambda = 1 member by `family_distance`.
THRESHOLDS = {"family_distance": 1e-8, "endpoint_distance": 1e-6}


def _cx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _polar(rng: np.random.Generator, r_lo: float, r_hi: float) -> complex:
    r = rng.uniform(r_lo, r_hi)
    return complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _sigma_xy(n_levels: int, delta: float, gamma1: complex, gamma2: complex) -> dict:
    return {
        "model": "oscillator_spin",
        "oscillator_spin": {
            "n_levels": n_levels, "omega": 1.0, "delta": delta,
            "jump": {"variant": "sigma_xy", "gamma1": _cx(gamma1), "gamma2": _cx(gamma2)},
        },
        "max_order": 3,
        "thresholds": dict(THRESHOLDS),
    }


def _pointer_osc64(rng: np.random.Generator) -> dict:
    # delta = 1, omega = 1 gives q = 2: level (m, 0) is degenerate with (m+2, 1).
    return _sigma_xy(32, 1.0, _polar(rng, 0.08, 0.12), _polar(rng, 0.08, 0.12))


def _compare_osc32(rng: np.random.Generator) -> dict:
    # delta = 0.3 gives q = 0.6: non-integer, non-degenerate branch.
    cfg = _sigma_xy(16, 0.3, _polar(rng, 0.08, 0.12), _polar(rng, 0.08, 0.12))
    cfg["lambda_values"] = [1.0, 0.5]
    return cfg


def _evolve_2lvl(rng: np.random.Generator) -> dict:
    # Within 1% of the test values: the slowest transverse mode decays at a
    # rate that moves the t_end = 25 endpoint error by a factor e per 0.04,
    # so wider ranges make accuracy_digits depend on the seed.
    def near(x: float) -> float:
        return float(x * rng.uniform(0.99, 1.01))

    return {
        "model": "two_level",
        "two_level": {"eps1": near(1.0), "eps2": near(2.0),
                      "l12": _cx(complex(near(1.0))), "l21": _cx(complex(near(2.0)))},
        "max_order": 3,
        "evolve": {"t_end": 25.0, "n_steps": 6000, "seeds": list(range(10))},
        "thresholds": dict(THRESHOLDS),
    }


DENSE_DIM = 32
DENSE_COUPLING = 0.005


def _compare_dense32(rng: np.random.Generator) -> dict:
    d = DENSE_DIM
    min_gap = 0.5 / d
    # Sorted uniform draws shifted by k * min_gap: energies in [0.5, 3] with
    # every neighbouring gap at least min_gap, no rejection loop.
    raw = np.sort(rng.uniform(0.5, 3.0 - (d - 1) * min_gap, d))
    energies = raw + min_gap * np.arange(d)
    scale = DENSE_COUPLING * float(energies.max())
    jumps = []
    for _ in range(2):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a *= scale / np.linalg.norm(a, 2)
        jumps.append([[_cx(z) for z in row] for row in a])
    return {
        "model": "custom",
        "custom": {"energies": [float(e) for e in energies], "jumps": jumps},
        "max_order": 3,
        "lambda_values": [1.0, 0.5],
        "thresholds": dict(THRESHOLDS),
    }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "pointer-osc64", "pointer",
        "largest scheme assembly and report (D=64, degenerate branch); "
        "exercises report encoding and ROADMAP item 2, never calls the exact oracle",
        _pointer_osc64),
    Workload(
        "compare-osc32", "compare",
        "oracle SVD on a Liouvillian with many small symmetry blocks (D=32); "
        "exercises ROADMAP item 4a block splitting",
        _compare_osc32),
    Workload(
        "compare-dense32", "compare",
        "oracle SVD on a dense random model whose Liouvillian is one block (D=32); "
        "ROADMAP item 4a real form and the one-block guard",
        _compare_dense32),
    Workload(
        "evolve-2lvl", "compare",
        "10 RK4 trajectories x 6000 steps at D=2, Python-bound; ROADMAP item 5 and "
        "the duplicate lambda=1 SVD, bypasses assembly and large SVDs",
        _evolve_2lvl),
)}


def make_config(name: str, seed: int) -> dict:
    """The config of workload `name` for `seed`; the same seed gives the same config."""
    salt = zlib.crc32(name.encode())
    return WORKLOADS[name].make_config(np.random.default_rng([seed, salt]))
