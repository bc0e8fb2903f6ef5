"""Batch front end: run the perturbative solver and both oracles from a JSON config.

Subcommands
    pointer   perturbative pointer family only
    exact     Liouvillian null-space oracle only
    evolve    time-domain integration from seeded random initial states
    compare   all three, with distances and the residual-scaling table

Each run writes `report.json` (machine readable, byte-stable across reruns)
and `report.txt` (human readable: timing and, per lambda, the exact oracle's
number of real Liouvillian blocks and largest block, the route that decided
its kernel (certified by Neumann sweeps, with their count and contraction
factor, or the SVD) and the kernel margin: the largest kept and smallest
rejected singular value over the largest one, next to the cutoff, or "<="
and ">=" bounds on the two where a one-block kernel was certified without
singular values) into the output directory, plus `trajectory_<seed>.csv`
files when trajectories are integrated.  Each `cmd_*` returns its exit code,
its report (exactly what report.json holds, and nothing else), the
(lambda, `SteadyStateSet`) pairs whose fields report.txt's per-lambda tables
read by name, and its trajectories by seed.

`report.json` holds exactly the bytes of `json.dumps(report, sort_keys=True,
indent=2) + "\n"`, every complex matrix as rows of [re, im] pairs:
`_json_chunks` has `json.dumps` write each matrix as a placeholder, then
splices the matrix's nonzero floats into a cached layout in its place.  A
custom jump of floats alone is echoed as its parsed matrix, one with an int
entry as written.  Every output file is streamed to a temporary file in the
output directory that then replaces the target.

Exit codes: 0 success, 1 config or command-line error, 2 scheme failure (no
solution, or coefficients that are not finite, at some order), 3 comparison
thresholds exceeded (a NaN distance exceeds them), 4 integration step
too large (the message carries a suggested step).  The environment variable
LP_SEED overrides the configured random seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DegeneracyPartition,
    EnergySpectrum,
    classify_pairs,
    random_density_matrix,
    stationarity_residual,
    weak_coupling_ratio,
)
from .exact import (
    KERNEL_MARGIN,
    EmptyKernelError,
    StepSizeError,
    SteadyStateSet,
    Trajectory,
    default_step,
    hermitian_affine_distance,
    integrate_trajectory,
    point_to_affine_distance,
    steady_state_bases,
    steady_state_basis_svd,
)
from .models import OscillatorSpinConfig, SigmaPlus, SigmaXY, build_oscillator_spin, build_two_level
from .perturbation import PointerFamily, SchemeFailure, run_pointer_scheme

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_SOLUTION = 2
EXIT_THRESHOLD = 3
EXIT_STEP_SIZE = 4

DEFAULT_FAMILY_DISTANCE_MAX = 1e-8
DEFAULT_ENDPOINT_DISTANCE_MAX = 1e-6
# a jump's squared Frobenius norm bounds ||L||^2 in the weak-coupling ratio
# and every entry of L^dag L
JUMP_NORM_MAX = math.sqrt(sys.float_info.max)
# records per block of a trajectory CSV; at D = 32 a block is about 2.6 MB of
# text, and its table and strings take about seven times that while formatted
CSV_BLOCK_RECORDS = 64

# a command's exit code, report (exactly report.json's content), (lambda,
# oracle result) pairs for report.txt, and trajectory_<seed>.csv's runs by seed
CommandResult = tuple[int, dict, list[tuple[float, SteadyStateSet]], dict[int, Trajectory]]


class ConfigError(ValueError):
    """Invalid configuration, or a run it cannot carry out; exits 1.

    The message is anchored to the offending location where there is one.
    """


@dataclass
class EvolveConfig:
    t_end: float
    n_steps: int | None
    seeds: list[int]
    seed_source: str


@dataclass
class RunConfig:
    spectrum: EnergySpectrum
    jumps: list[np.ndarray]
    max_order: int
    lambda_values: list[float]
    partition: DegeneracyPartition
    tol_rank: float
    tol_kernel: float
    evolve: EvolveConfig | None
    family_distance_max: float
    endpoint_distance_max: float
    oscillator: OscillatorSpinConfig | None
    echo: dict


def _ctx(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"config error at {_ctx(path, key)}: missing key")
        return default
    return d[key]


def _object(d: dict, key: str, path: str = "", required: bool = True) -> dict:
    value = _get(d, key, path, required=required, default={})
    if not isinstance(value, dict):
        raise ConfigError(f"config error at {_ctx(path, key)}: expected an object")
    return value


def _real(value, where: str) -> float:
    try:
        # JSON true/false load as bool, a subclass of int; an integer beyond
        # the float range makes isfinite raise OverflowError
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"config error at {where}: expected a finite real number, got {value!r}")


def _integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"config error at {where}: expected an integer, got {value!r}")
    return value


def _as_complex(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"config error at {where}: complex numbers are [re, im] pairs "
                          "of finite reals")
    return complex(_real(value[0], where), _real(value[1], where))


def _float_pairs(value) -> np.ndarray | None:
    """`value` as a (rows, cols, 2) float array, or None.

    Not None exactly when `value` is a non-empty list of equal-length,
    non-empty rows of [re, im] pairs whose every entry is a finite `float`
    (no int, bool or str, which the conversion would accept): one
    `np.array` call and one pass over the entries' types.  `_as_matrix`
    parses such a matrix with it.
    """
    if not (isinstance(value, list) and value and isinstance(value[0], list) and value[0]
            and isinstance(value[0][0], list)):
        return None
    try:
        pairs = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if (pairs.ndim != 3 or pairs.shape[2] != 2 or not np.isfinite(pairs).all()
            or set(map(type, chain.from_iterable(chain.from_iterable(value)))) != {float}):
        return None
    return pairs


def _as_matrix(value, where: str) -> tuple[np.ndarray, object]:
    """The square complex matrix `value` holds, and its echo in the report.

    A matrix of floats alone (`_float_pairs`) is echoed as its parsed array,
    whose floats the report writer splices; any other is parsed entry by
    entry and echoed as written, ints included.
    """
    pairs = _float_pairs(value)
    if pairs is not None and pairs.shape[0] == pairs.shape[1]:
        matrix = pairs.view(complex)[..., 0]
        return matrix, matrix
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config error at {where}: expected a matrix (list of rows)")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise ConfigError(f"config error at {where}[{i}]: matrix must be square")
        rows.append([_as_complex(z, f"{where}[{i}][{j}]") for j, z in enumerate(row)])
    return np.array(rows, dtype=complex), value


def _build_model(cfg: dict) -> tuple[EnergySpectrum, list[np.ndarray], list[str],
                                     OscillatorSpinConfig | None]:
    """The model's spectrum and jumps, where[k] naming jump k's config key, and its oscillator."""
    model = _get(cfg, "model", "")
    if model == "two_level":
        sub = _object(cfg, "two_level")
        eps1 = _real(_get(sub, "eps1", "two_level"), "two_level.eps1")
        eps2 = _real(_get(sub, "eps2", "two_level"), "two_level.eps2")
        l12 = _as_complex(_get(sub, "l12", "two_level"), "two_level.l12")
        l21 = _as_complex(_get(sub, "l21", "two_level"), "two_level.l21")
        try:
            spectrum, jumps = build_two_level(eps1, eps2, l12, l21)
        except ValueError as err:
            raise ConfigError(f"config error at two_level: {err}") from err
        larger = "two_level.l12" if np.abs(l12) >= np.abs(l21) else "two_level.l21"
        return spectrum, jumps, [larger], None
    if model == "oscillator_spin":
        sub = _object(cfg, "oscillator_spin")
        jump = _object(sub, "jump", "oscillator_spin")
        variant_name = _get(jump, "variant", "oscillator_spin.jump")
        # the variant's parameters, one per jump operator in build order
        if variant_name == "sigma_plus":
            variant_cls, keys = SigmaPlus, ("lam",)
        elif variant_name == "sigma_xy":
            variant_cls, keys = SigmaXY, ("gamma1", "gamma2")
        else:
            raise ConfigError(
                "config error at oscillator_spin.jump.variant: expected "
                "'sigma_plus' or 'sigma_xy'"
            )
        where = [f"oscillator_spin.jump.{key}" for key in keys]
        variant = variant_cls(**{key: _as_complex(_get(jump, key, "oscillator_spin.jump"), at)
                                 for key, at in zip(keys, where)})
        n_levels = _integer(_get(sub, "n_levels", "oscillator_spin"), "oscillator_spin.n_levels")
        omega = _real(_get(sub, "omega", "oscillator_spin"), "oscillator_spin.omega")
        delta = _real(_get(sub, "delta", "oscillator_spin"), "oscillator_spin.delta")
        try:
            osc = OscillatorSpinConfig(n_levels=n_levels, omega=omega, delta=delta,
                                       jump_variant=variant)
        except ValueError as err:
            raise ConfigError(f"config error at oscillator_spin: {err}") from err
        try:
            spectrum, jumps = build_oscillator_spin(osc)
        except (MemoryError, ValueError) as err:  # e.g. numpy cannot allocate D = 2 n_levels
            raise ConfigError(f"config error at oscillator_spin.n_levels: cannot build the "
                              f"model at {n_levels} levels: {err}") from err
        return spectrum, jumps, where, osc
    if model == "custom":
        sub = _object(cfg, "custom")
        energies = _get(sub, "energies", "custom")
        if not isinstance(energies, list) or not energies:
            raise ConfigError("config error at custom.energies: expected a list of reals")
        reals = [_real(e, f"custom.energies[{k}]") for k, e in enumerate(energies)]
        try:
            spectrum = EnergySpectrum(np.array(reals))
        except ValueError as err:
            raise ConfigError(f"config error at custom.energies: {err}") from err
        raw_jumps = _get(sub, "jumps", "custom")
        if not isinstance(raw_jumps, list):
            raise ConfigError("config error at custom.jumps: expected a list of matrices")
        where = [f"custom.jumps[{k}]" for k in range(len(raw_jumps))]
        parsed = [_as_matrix(mat, at) for mat, at in zip(raw_jumps, where)]
        jumps = [L for L, _ in parsed]
        sub["jumps"] = [echo for _, echo in parsed]  # `sub` is part of the echoed config
        for L, at in zip(jumps, where):
            if L.shape != (spectrum.dim, spectrum.dim):
                raise ConfigError(f"config error at {at}: shape {L.shape} "
                                  f"does not match dimension {spectrum.dim}")
        return spectrum, jumps, where, None
    raise ConfigError("config error at model: expected 'two_level', 'oscillator_spin' or 'custom'")


def load_config(path: str, max_order_override: int | None = None,
                tol_degen_override: float | None = None) -> RunConfig:
    # integers beyond the int-string limit read as inf, rejected with a key path
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_int=lambda s: float(s) if 0 < limit < len(s.lstrip("-"))
                            else int(s))
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}:1: top-level value must be an object")

    spectrum, jumps, where, osc = _build_model(cfg)
    for L, at in zip(jumps, where):
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(L)
        if norm >= JUMP_NORM_MAX:
            raise ConfigError(f"config error at {at}: jump Frobenius norm {norm:.3e} is too "
                              "large, its square exceeds the float range")

    max_order = _integer(_get(cfg, "max_order", "", required=False, default=3), "max_order")
    if max_order_override is not None:
        max_order = max_order_override
    if max_order < 0:
        raise ConfigError("config error at max_order: must be nonnegative")
    # an int compares with a float exactly; a larger one cannot enter a float product
    if max_order > sys.float_info.max:
        raise ConfigError("config error at max_order: exceeds the float range")

    raw_lambdas = _get(cfg, "lambda_values", "", required=False, default=[1.0])
    lambda_values = ([_real(x, "lambda_values") for x in raw_lambdas]
                     if isinstance(raw_lambdas, list) else [])
    if not lambda_values or min(lambda_values) <= 0:
        raise ConfigError("config error at lambda_values: expected a non-empty list of "
                          "positive finite reals")
    # compare's residual of the last order's term scales as lambda^(2 max_order + 2);
    # up to 1e100 its square in a norm or an SVD stays finite
    for lam in lambda_values:
        if (max_order + 1) * math.log10(lam) > 50:
            raise ConfigError(f"config error at lambda_values: {lam!r} is too large, "
                              f"lambda^{2 * max_order + 2} exceeds 1e100")

    # a copy: the config is echoed into the report as written
    tols = dict(_object(cfg, "tolerances", required=False))
    if tol_degen_override is not None:
        tols["tol_degen"] = tol_degen_override
    for key, val in tols.items():
        if key not in ("tol_degen", "tol_rank", "tol_kernel"):
            raise ConfigError(f"config error at tolerances.{key}: unknown tolerance")
        val = _real(val, f"tolerances.{key}")
        if val <= 0:
            raise ConfigError(f"config error at tolerances.{key}: must be positive")
        # the kernel cutoff is relative to the largest singular value, the rank
        # cutoff relative, with an absolute floor (sum_a ||L_a||_F^2)
        if key != "tol_degen" and val >= 1:
            raise ConfigError(f"config error at tolerances.{key}: must lie in (0, 1)")
    try:
        partition = classify_pairs(spectrum, tols.get("tol_degen"))
    except ValueError as err:
        raise ConfigError(f"config error at tolerances.tol_degen: {err}") from err

    evolve = None
    if "evolve" in cfg:
        sub = _object(cfg, "evolve")
        t_end = _real(_get(sub, "t_end", "evolve"), "evolve.t_end")
        if t_end <= 0:
            raise ConfigError("config error at evolve.t_end: must be positive")
        # integrate_trajectory derives its step count, or names it in a step-size error
        if not math.isfinite(t_end / default_step(spectrum, jumps)):
            raise ConfigError(f"config error at evolve.t_end: {t_end!r} is too large, "
                              "t_end / default step is not finite")
        n_steps = sub.get("n_steps")
        if n_steps is not None:
            n_steps = _integer(n_steps, "evolve.n_steps")
            if n_steps < 1:
                raise ConfigError("config error at evolve.n_steps: must be at least 1")
            if n_steps > sys.float_info.max:  # t_end / n_steps would raise OverflowError
                raise ConfigError("config error at evolve.n_steps: exceeds the float range")
        seeds = _get(sub, "seeds", "evolve", required=False, default=[0])
        if not isinstance(seeds, list) or not all(
                isinstance(s, int) and not isinstance(s, bool) for s in seeds):
            raise ConfigError("config error at evolve.seeds: expected a list of integers")
        if any(seed < 0 for seed in seeds):
            raise ConfigError("config error at evolve.seeds: seeds must be nonnegative")
        repeated = [seed for k, seed in enumerate(seeds) if seed in seeds[:k]]
        if repeated:
            raise ConfigError(f"config error at evolve.seeds: seed {repeated[0]} is repeated "
                              "(each seed writes its own trajectory_<seed>.csv)")
        seed_source = "config"
        env_seed = os.environ.get("LP_SEED")
        if env_seed is not None:
            try:
                seeds = [int(env_seed)]
            except ValueError as err:
                raise ConfigError(f"LP_SEED: not an integer ({env_seed!r})") from err
            if seeds[0] < 0:
                raise ConfigError(f"LP_SEED: must be nonnegative ({env_seed!r})")
            seed_source = "env:LP_SEED"
        evolve = EvolveConfig(t_end=t_end, n_steps=n_steps, seeds=seeds, seed_source=seed_source)

    thresholds = _object(cfg, "thresholds", required=False)
    for key, val in thresholds.items():
        if key not in ("family_distance", "endpoint_distance"):
            raise ConfigError(f"config error at thresholds.{key}: unknown threshold")
        if _real(val, f"thresholds.{key}") < 0:
            raise ConfigError(f"config error at thresholds.{key}: must be nonnegative")
    family_max = float(thresholds.get("family_distance", DEFAULT_FAMILY_DISTANCE_MAX))
    endpoint_max = float(thresholds.get("endpoint_distance", DEFAULT_ENDPOINT_DISTANCE_MAX))

    return RunConfig(
        spectrum=spectrum, jumps=jumps, max_order=max_order,
        lambda_values=lambda_values, partition=partition,
        tol_rank=tols.get("tol_rank", DEFAULT_TOLERANCES.rank),
        tol_kernel=tols.get("tol_kernel", DEFAULT_TOLERANCES.kernel),
        evolve=evolve, family_distance_max=family_max,
        endpoint_distance_max=endpoint_max, oscillator=osc, echo=cfg,
    )


def _family_report(family: PointerFamily) -> dict:
    singular_values = [float(s) for s in family.singular_values]
    return {
        "branch": family.branch,
        "max_order": family.max_order,
        "free_directions": list(family.free_directions),
        "orders": [{
            "order": oc.order,
            "coefficients": oc.coeff,
            "trace": float(oc.coeff.trace().real),
            "free_direction_count": len(family.free_directions),
            "rank": family.rank,
            "rank_augmented": family.rank,
            "singular_values": singular_values,
        } for oc in family.orders],
    }


def _oscillator_structure_notes(family: PointerFamily) -> list[str]:
    notes = []
    members = [oc.coeff for oc in family.orders] + list(family.free_directions)
    # diagonals first: stacking the members would copy every matrix
    d = np.array([m.diagonal() for m in members])
    eq_pop = float(np.max(np.abs(d[:, 0::2] - d[:, 1::2])))
    down_pop = float(np.max(np.abs(d[:, 1::2])))
    if down_pop < 1e-12:
        notes.append("pointer structure: spin-down populations vanish (f_mm11 = 0)")
    elif eq_pop < 1e-12:
        notes.append("pointer structure: f_mm00 = f_mm11 in every family member "
                     "(spin populations equalized)")
    return notes


def _growth_notes(family: PointerFamily) -> list[str]:
    """A note when some order's largest entry exceeds the previous order's.

    With r = max|f^(s)| / max|f^(s-1)|, the term lam^(2s) f^(s) outgrows the
    one before it for lam > 1 / sqrt(r); the note names the largest r.
    """
    peaks = [float(np.max(np.abs(oc.coeff))) for oc in family.orders]
    ratio, order = max(((b / a, s) for s, (a, b) in enumerate(zip(peaks, peaks[1:]), 1) if a > 0),
                       default=(0.0, 0))
    if ratio <= 1.0:
        return []
    return [f"series growth: max|f^({order})| / max|f^({order - 1})| = {ratio:.3g}; "
            f"the terms at lambda grow for lambda > {1.0 / math.sqrt(ratio):.3g}"]


def _base_report(command: str, config: RunConfig) -> dict:
    report = {
        "command": command,
        "model": config.echo,
        "dimension": config.spectrum.dim,
        "energies": [float(e) for e in config.spectrum.energies],
        "weak_coupling_ratio": weak_coupling_ratio(config.spectrum, config.jumps),
        "notes": [],
    }
    if all(np.max(np.abs(L)) < 1e-15 for L in config.jumps):
        report["notes"].append("Liouville regime, no unique pointer")
    if config.oscillator is not None:
        report["degeneracy_parameter_q"] = config.oscillator.q
        report["q_is_integer"] = config.oscillator.q_is_integer
    return report


def _pointer_into_report(config: RunConfig, report: dict):
    """Solve the family, fill the report; returns (exit_code, family-or-None)."""
    result = run_pointer_scheme(config.spectrum, config.jumps, config.partition,
                                max_order=config.max_order, tol_rank=config.tol_rank)
    report["degeneracy_classes"] = [list(c) for c in config.partition.classes]
    if isinstance(result, SchemeFailure):
        report["scheme_failure"] = {
            "order": result.order,
            "reason": result.reason,
            "rank": result.rank,
            "rank_augmented": result.rank_augmented,
        }
        return EXIT_NO_SOLUTION, None
    report["pointer_family"] = _family_report(result)
    if config.oscillator is not None:
        report["notes"].extend(_oscillator_structure_notes(result))
    report["notes"].extend(_growth_notes(result))
    return EXIT_OK, result


def cmd_pointer(config: RunConfig) -> CommandResult:
    report = _base_report("pointer", config)
    code, _ = _pointer_into_report(config, report)
    return code, report, [], {}


def _exact_oracle(oracle, config: RunConfig, *args):
    """`oracle` on the config's model, then `args`; a failed check exits 1 at its `err.lam`.

    An empty kernel is a tol_kernel error; the other checks name no key.
    """
    try:
        return oracle(config.spectrum, config.jumps, *args, tol_kernel=config.tol_kernel)
    except EmptyKernelError as err:
        raise ConfigError(f"config error at tolerances.tol_kernel: at lambda {err.lam:g}, "
                          f"{err}") from err
    except RuntimeError as err:
        raise ConfigError(f"exact oracle at lambda {err.lam:g}: {err}") from err


def _kernel_route(steady: SteadyStateSet) -> str:
    """How `steady`'s kernel was decided: certified by sweeps, or the SVD."""
    if steady.sweeps is None:
        return "svd"
    sweeps = f"{steady.sweeps[0]} sweeps, eta/gap {steady.sweeps[1]:.2e}"
    return f"certified ({sweeps})" if steady.margin_is_bound else f"svd (after {sweeps})"


def cmd_exact(config: RunConfig) -> CommandResult:
    report = _base_report("exact", config)
    steady = _exact_oracle(steady_state_basis_svd, config)
    residual = stationarity_residual(config.spectrum, config.jumps, steady.physical_member)
    report["exact"] = {
        "kernel_dim": steady.kernel_dim,
        "physical_member": steady.physical_member,
        "physical_direction_count": len(steady.physical_directions),
        "physical_member_residual": residual,
        "smallest_singular_values": [float(s) for s in steady.singular_values[-min(8, steady.singular_values.size):]],
    }
    return EXIT_OK, report, [(1.0, steady)], {}


def _run_trajectories(config: RunConfig) -> dict[int, Trajectory]:
    """Integrate every seed's trajectory in one batch; maps seed to trajectory, in seed order."""
    seeds = config.evolve.seeds
    if not seeds:
        return {}
    rho0s = [random_density_matrix(config.spectrum.dim, np.random.default_rng(seed))
             for seed in seeds]
    t_end, n_steps = config.evolve.t_end, config.evolve.n_steps
    if n_steps is None:  # integrate_trajectory's rule, resolved here to pick the stride
        n_steps = max(1, math.ceil(t_end / default_step(config.spectrum, config.jumps)))
    # about 1000 recorded states, plus the final one
    trajectories = integrate_trajectory(config.spectrum, config.jumps, rho0s, t_end=t_end,
                                        n_steps=n_steps, record_every=max(1, n_steps // 1000))
    return dict(zip(seeds, trajectories))


def _trajectory_csvs(trajectories) -> Iterator[Iterator[str]]:
    """Each trajectory's CSV file, in order, as an iterator of text blocks.

    Columns t, re(rho_mn)..., im(rho_mn)... (rho_m_n from D = 11 on).  Row k
    is t_k, then record k's real and imaginary parts in row-major order, every
    float as `repr`.  The header is the first block; each further block holds
    the rows of at most `CSV_BLOCK_RECORDS` records, so a writer holds one
    block's table and text, never a whole file's.  A time column shared with
    the previous file is formatted once, and a block's other floats once per
    distinct magnitude: for finite x, -0.0 included, repr(-x) is "-" + repr(x).
    """
    times = times_text = None
    for traj in trajectories:
        if traj.times is not times:
            times = traj.times
            times_text = list(map(repr, times.tolist()))
        yield _csv_blocks(traj, times_text)


def _csv_blocks(traj, times_text: list[str]) -> Iterator[str]:
    """The header, then the rows of `traj` in blocks of `CSV_BLOCK_RECORDS` records."""
    count, d, _ = traj.states.shape
    sep = "_" if d >= 11 else ""  # rho_1_10 and rho_11_0 stay apart
    header = ["t"] + [f"{part}(rho_{m}{sep}{n})" for part in ("re", "im")
                      for m in range(d) for n in range(d)]
    yield ",".join(header) + "\n"
    flat = traj.states.reshape(count, -1)
    for start in range(0, count, CSV_BLOCK_RECORDS):
        stop = start + CSV_BLOCK_RECORDS
        table = np.concatenate([flat[start:stop].real, flat[start:stop].imag], axis=1)
        magnitudes, slots = np.unique(np.abs(table), return_inverse=True)
        texts = np.array(list(map(repr, magnitudes.tolist())), dtype=object)
        texts = texts[slots.reshape(table.shape)]
        negative = np.signbit(table)
        texts[negative] = "-" + texts[negative]
        yield "".join([f"{t},{','.join(row)}\n"
                       for t, row in zip(times_text[start:stop], texts.tolist())])


def cmd_evolve(config: RunConfig) -> CommandResult:
    if config.evolve is None:
        raise ConfigError("config error at evolve: the 'evolve' block is required for this command")
    report = _base_report("evolve", config)
    runs = _run_trajectories(config)
    entries = []
    for seed, traj in runs.items():
        final = traj.states[-1]
        entries.append({
            "seed": seed,
            "t_end": float(traj.times[-1]),
            "step_size": traj.step_size,
            "final_state": final,
            "final_residual": stationarity_residual(config.spectrum, config.jumps, final),
            "trace_drift": abs(float(final.trace().real) - 1.0),
        })
    report["evolve"] = {
        "seed_source": config.evolve.seed_source,
        "seeds": list(config.evolve.seeds),
        "trajectories": entries,
    }
    return EXIT_OK, report, [], runs


def cmd_compare(config: RunConfig) -> CommandResult:
    report = _base_report("compare", config)
    code, family = _pointer_into_report(config, report)
    if code != EXIT_OK:
        return code, report, [], {}

    # one oracle call and one member for every lambda, and lambda = 1 for the endpoints
    lambdas = list(config.lambda_values)
    if config.evolve is not None and 1.0 not in lambdas:
        lambdas.append(1.0)
    sets = _exact_oracle(steady_state_bases, config, lambdas)
    members = {lam: family.evaluate(lam) for lam in lambdas}
    oracle = list(zip(config.lambda_values, sets))
    comparisons = []
    scaling = []
    family_dirs = family.free_directions
    worst_family = 0.0
    for lam, steady in oracle:
        member = members[lam]
        dist = hermitian_affine_distance(member, family_dirs,
                                         steady.physical_member,
                                         steady.physical_directions)
        # np.maximum, unlike max, keeps a NaN, which then fails the threshold
        worst_family = float(np.maximum(worst_family, dist))
        comparisons.append({
            "lambda": lam,
            "kernel_dim": steady.kernel_dim,
            "family_vs_exact_distance": dist,
        })
        scaled = [lam * L for L in config.jumps]
        scaling.append({
            "lambda": lam,
            "residual": stationarity_residual(config.spectrum, scaled, member),
        })
    report["oracle_comparison"] = comparisons
    report["residual_scaling"] = scaling

    worst_endpoint = 0.0
    runs = {}
    if config.evolve is not None:
        steady_full, member_full = sets[lambdas.index(1.0)], members[1.0]
        runs = _run_trajectories(config)
        endpoints = []
        for seed, traj in runs.items():
            final = traj.states[-1]
            d_exact = point_to_affine_distance(final, steady_full.physical_member,
                                               steady_full.physical_directions)
            d_family = point_to_affine_distance(final, member_full, family_dirs)
            worst_endpoint = float(np.max([worst_endpoint, d_exact, d_family]))
            endpoints.append({
                "seed": seed,
                "endpoint_vs_exact": d_exact,
                "endpoint_vs_family": d_family,
                "final_residual": stationarity_residual(config.spectrum, config.jumps, final),
            })
        report["endpoints"] = endpoints

    within = (worst_family <= config.family_distance_max
              and worst_endpoint <= config.endpoint_distance_max)
    report["thresholds"] = {
        "family_distance_max": config.family_distance_max,
        "endpoint_distance_max": config.endpoint_distance_max,
        "worst_family_distance": worst_family,
        "worst_endpoint_distance": worst_endpoint,
        "within_thresholds": within,
    }
    return (EXIT_OK if within else EXIT_THRESHOLD), report, oracle, runs


def _matrix_layout(rows: int, cols: int, level: int) -> tuple[str, int, np.ndarray]:
    """`json`'s indent=2 layout of a rows x cols list of [re, im] pairs at
    nesting `level`, with "0.0" in every float's slot.

    Returns (the layout as one string, the offset in it of the first slot,
    and the strides from a slot to the next row's, the next pair's and its
    pair's im slot).
    """
    i1, i2, i3, i4 = ("\n" + "  " * (level + k) for k in range(4))
    head, pair_sep, row_sep = f"[{i2}[{i3}[{i4}", f"{i3}],{i3}[{i4}", f"{i3}]{i2}],{i2}[{i3}[{i4}"
    pair = f"0.0,{i4}0.0"
    row = pair_sep.join([pair] * cols)
    template = head + row_sep.join([row] * rows) + f"{i3}]{i2}]{i1}]"
    strides = np.array([len(row) + len(row_sep), len(pair) + len(pair_sep), len(pair) - 3])
    return template, len(head), strides


def _json_chunks(obj) -> Iterator[str]:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, piece by piece.

    Takes what `json.dumps` takes, plus 2-D complex arrays, written as the
    nested list of [re, im] pairs; anything else raises `TypeError`, as
    `json` does.  `json.dumps` writes all of it, with each finite, non-empty
    matrix as a placeholder string: its text is cut at the placeholders, and
    each matrix spliced into its gap at the level of the indent before it.

    A matrix is written from a layout cached per (rows, cols, level) whose
    every slot holds "0.0": only the floats whose bits are nonzero (so -0.0
    too) are formatted, and spliced between the layout's slices around their
    slots.  A matrix's (rows, cols, 2) floats are made only when it is
    spliced, so those of one matrix at a time.
    """
    layouts: dict[tuple[int, int, int], tuple[str, int, np.ndarray]] = {}

    def matrix(pairs: np.ndarray, level: int) -> str:
        """The finite (rows, cols, 2) float array `pairs` as nested lists."""
        key = (*pairs.shape[:2], level)
        if key not in layouts:
            layouts[key] = _matrix_layout(*key)
        template, first, strides = layouts[key]
        floats = pairs.ravel()
        # nonzero bits, so that -0.0 is written as itself
        nonzero = np.flatnonzero(floats.view(np.int64))
        starts = first + strides @ np.unravel_index(nonzero, pairs.shape)
        # the template from past each written slot's "0.0" to the next one
        parts = [None] * (2 * nonzero.size + 1)
        parts[::2] = map(template.__getitem__,
                         map(slice, [0, *(starts + 3).tolist()], [*starts.tolist(), None]))
        parts[1::2] = map(float.__repr__, floats[nonzero].tolist())
        return "".join(parts)

    def hook(value):
        if isinstance(value, np.ndarray) and value.ndim == 2 and np.iscomplexobj(value):
            if value.size and np.isfinite(value).all():
                matrices.append(value)
                return placeholder
            # json's spelling of NaN and Infinity, one float at a time
            return [[[z.real, z.imag] for z in row] for row in value.tolist()]
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    # "\0" first, one more "\0" while some key or string of `obj` reads as it too
    placeholder, pieces, matrices = "", [], []
    while len(pieces) != len(matrices) + 1:
        placeholder, matrices = placeholder + "\0", []
        pieces = json.dumps(obj, sort_keys=True, indent=2, default=hook).split(
            json.dumps(placeholder))
    for piece, value in zip(pieces, matrices):
        yield piece
        line = piece[piece.rfind("\n") + 1:]
        yield matrix(np.stack([value.real, value.imag], axis=-1, dtype=float),
                     (len(line) - len(line.lstrip(" "))) // 2)
    yield pieces[-1] + "\n"


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the strings in `chunks` to a temporary file that then replaces `path`.

    The file gets the mode `open(path, "w")` would give it, 0o666 less the
    umask, not the 0o600 that `tempfile.mkstemp` creates it with.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_report_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _text_report(report: dict, elapsed: float, oracle: list[tuple[float, SteadyStateSet]]) -> str:
    lines = [f"fgkls {report['command']} report", "=" * 40]
    lines.append(f"dimension: {report['dimension']}")
    lines.append(f"energies: {report['energies']}")
    lines.append(f"weak-coupling ratio ||L||^2/||H||: {report['weak_coupling_ratio']:.6g}")
    if "degeneracy_parameter_q" in report:
        lines.append(f"q = 2*delta/omega: {report['degeneracy_parameter_q']:.6g} "
                     f"(integer: {report['q_is_integer']})")
    if "scheme_failure" in report:
        sf = report["scheme_failure"]
        lines.append(f"SCHEME FAILURE at order {sf['order']}: {sf['reason']}")
    if "pointer_family" in report:
        fam = report["pointer_family"]
        lines.append(f"branch: {fam['branch']}")
        lines.append("order | free dirs | rank | rank(aug)")
        for o in fam["orders"]:
            lines.append(f"{o['order']:5d} | {o['free_direction_count']:9d} | "
                         f"{o['rank']:4d} | {o['rank_augmented']:9d}")
    if "exact" in report:
        ex = report["exact"]
        lines.append(f"exact kernel dimension: {ex['kernel_dim']}")
        lines.append(f"physical member residual: {ex['physical_member_residual']:.3e}")
    if "oracle_comparison" in report:
        lines.append("lambda | kernel dim | family-vs-exact distance")
        for row in report["oracle_comparison"]:
            lines.append(f"{row['lambda']:<6g} | {row['kernel_dim']:10d} | "
                         f"{row['family_vs_exact_distance']:.3e}")
    if oracle:
        lines.append("lambda | Liouvillian blocks | largest block | kernel route")
        for lam, steady in oracle:
            lines.append(f"{lam:<6g} | {len(steady.block_sizes):18d} | "
                         f"{max(steady.block_sizes):13d} | {_kernel_route(steady)}")
        lines.append("lambda | kernel cutoff | largest kept / s_max | smallest rejected / s_max")
        for lam, steady in oracle:
            (kept, rejected), bound = steady.kernel_margin, steady.margin_is_bound
            kept_shown = f"<= {kept:.3e}" if bound else f"{kept:.3e}"
            shown = "-" if rejected is None else f"{'>= ' if bound else ''}{rejected:.3e}"
            lines.append(f"{lam:<6g} | {steady.tol_kernel:13.3e} | {kept_shown:>20} | {shown:>25}")
        for lam, steady in oracle:
            rejected = steady.kernel_margin[1]
            if rejected is not None and rejected < KERNEL_MARGIN * steady.tol_kernel:
                lines.append(f"note: at lambda {lam:g} the smallest rejected singular value is "
                             f"within 1e3 of the kernel cutoff; the kernel dimension depends on "
                             f"tol_kernel there")
    if "residual_scaling" in report:
        lines.append("lambda | truncated-member residual")
        for row in report["residual_scaling"]:
            lines.append(f"{row['lambda']:<6g} | {row['residual']:.6e}")
    if "evolve" in report:
        lines.append(f"seeds ({report['evolve']['seed_source']}): {report['evolve']['seeds']}")
        for tr in report["evolve"]["trajectories"]:
            lines.append(f"seed {tr['seed']}: final residual {tr['final_residual']:.3e}, "
                         f"trace drift {tr['trace_drift']:.3e}")
    if "endpoints" in report:
        lines.append("seed | endpoint vs exact | endpoint vs family")
        for row in report["endpoints"]:
            lines.append(f"{row['seed']:4d} | {row['endpoint_vs_exact']:.3e} | "
                         f"{row['endpoint_vs_family']:.3e}")
    if "thresholds" in report:
        th = report["thresholds"]
        lines.append(f"within thresholds: {th['within_thresholds']} "
                     f"(family {th['worst_family_distance']:.3e} <= {th['family_distance_max']:g}, "
                     f"endpoint {th['worst_endpoint_distance']:.3e} <= {th['endpoint_distance_max']:g})")
    for note in report["notes"]:
        lines.append(f"note: {note}")
    lines.append(f"elapsed seconds: {elapsed:.3f}")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "pointer": cmd_pointer,
    "exact": cmd_exact,
    "evolve": cmd_evolve,
    "compare": cmd_compare,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit `EXIT_CONFIG`, not argparse's 2.

    Subparsers are built with the parser's own class, so theirs do too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="fgkls",
        description="Pointer states of the FGKLS equation: perturbative solver and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("pointer", "run the perturbative pointer scheme"),
        ("exact", "compute the exact steady-state set from the Liouvillian null space"),
        ("evolve", "integrate trajectories from seeded random initial states"),
        ("compare", "run solver and oracles and report distances"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--max-order", type=int, default=None, help="override max_order")
        p.add_argument("--tol-degen", type=float, default=None, help="override tol_degen")
        p.add_argument("--json-only", action="store_true",
                       help="write report.json only (no text report, no CSV)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        config = load_config(args.config, max_order_override=args.max_order,
                             tol_degen_override=args.tol_degen)
    except (ConfigError, TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code, report, oracle, runs = COMMANDS[args.command](config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except StepSizeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STEP_SIZE
    elapsed = time.perf_counter() - start

    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "report.json"), _json_chunks(report))
    if not args.json_only:
        _atomic_write(os.path.join(args.out, "report.txt"),
                      [_text_report(report, elapsed, oracle)])
        for seed, blocks in zip(runs, _trajectory_csvs(runs.values())):
            _atomic_write(os.path.join(args.out, f"trajectory_{seed}.csv"), blocks)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
