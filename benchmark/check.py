"""Per-job output check and workload properties.

A job passes when it exits with the expected code (0 on every workload),
writes the default outputs, its `report.json` parses, the report's
structure equals the workload's record in reference.json, and every
numeric error the report carries stays within the config's thresholds.
`pointer` reports carry no error of their own: the checker rebuilds the
model with the public `fgkls` model constructors and recomputes the stationarity
residual of the reported lambda = 1 member.

Everything here runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

EXPECTED_EXIT = 0


def build_model(config: dict):
    """Spectrum and jumps of a generated config, through public `fgkls` model constructors."""
    from fgkls import (EnergySpectrum, OscillatorSpinConfig, SigmaXY,
                       build_oscillator_spin, build_two_level)

    model = config["model"]
    if model == "oscillator_spin":
        sub = config["oscillator_spin"]
        jump = sub["jump"]
        return build_oscillator_spin(OscillatorSpinConfig(
            n_levels=sub["n_levels"], omega=sub["omega"], delta=sub["delta"],
            jump_variant=SigmaXY(complex(*jump["gamma1"]), complex(*jump["gamma2"]))))
    if model == "two_level":
        sub = config["two_level"]
        return build_two_level(sub["eps1"], sub["eps2"], complex(*sub["l12"]),
                               complex(*sub["l21"]))
    sub = config["custom"]
    jumps = [np.array(m)[..., 0] + 1j * np.array(m)[..., 1] for m in sub["jumps"]]
    return EnergySpectrum(np.array(sub["energies"])), jumps


def liouvillian_blocks(spectrum, jumps) -> int:
    """Connected components of the vectorized Liouvillian's sparsity graph.

    Built from the nonzero patterns of H, L_a and K = sum L_a^dag L_a under
    column stacking (the pattern of I x A, A^T x I and conj(L) x L), so a
    D = 64 model needs a 4096^2 boolean matrix, not the complex one.
    """
    d = spectrum.dim
    eye = np.eye(d, dtype=bool)
    k = sum((L.conj().T @ L for L in jumps), np.zeros((d, d), dtype=complex))
    pattern = np.kron(eye, k != 0) | np.kron((k != 0).T, eye)
    for L in jumps:
        nz = L != 0
        pattern |= np.kron(nz, nz)
    i, j = np.nonzero(pattern)
    labels = np.arange(d * d)
    while True:
        new = labels.copy()
        np.minimum.at(new, i, labels[j])
        np.minimum.at(new, j, labels[i])
        new = new[new]
        if np.array_equal(new, labels):
            return int(np.unique(labels).size)
        labels = new


def properties(config: dict, command: str) -> dict:
    """Structural properties of one generated config, measured with public functions."""
    from fgkls import classify_pairs

    spectrum, jumps = build_model(config)
    partition = classify_pairs(spectrum)
    evolve = config.get("evolve")
    return {
        "dimension": spectrum.dim,
        "branch": "degenerate" if partition.has_degeneracy else "non-degenerate",
        "liouvillian_blocks": liouvillian_blocks(spectrum, jumps),
        "rk4_steps": len(evolve["seeds"]) * evolve["n_steps"]
        if evolve and command in ("evolve", "compare") else 0,
    }


def structure(report: dict) -> dict:
    """The fields of a report that must not change with the seed or a refactor."""
    fam = report.get("pointer_family", {})
    return {
        "dimension": report.get("dimension"),
        "branch": fam.get("branch"),
        "degeneracy_classes": report.get("degeneracy_classes"),
        "orders": [[o["rank"], o["rank_augmented"], o["free_direction_count"]]
                   for o in fam.get("orders", [])],
        "kernel_dim": [row["kernel_dim"] for row in report.get("oracle_comparison", [])],
        "scheme_failure": "scheme_failure" in report,
    }


def expected_files(config: dict, command: str) -> list[str]:
    names = ["report.json", "report.txt"]
    if command in ("evolve", "compare") and "evolve" in config:
        names += [f"trajectory_{s}.csv" for s in config["evolve"]["seeds"]]
    return names


def _coefficients_sum(orders) -> np.ndarray:
    return sum(np.array(o["coefficients"])[..., 0] + 1j * np.array(o["coefficients"])[..., 1]
               for o in orders)


def numeric_error(report: dict, config: dict, command: str) -> tuple[float, list[str]]:
    """Largest error the job's output carries, and every threshold it breaks."""
    thresholds = config["thresholds"]
    family_max = thresholds["family_distance"]
    problems = []
    if command == "pointer":
        from fgkls import stationarity_residual

        spectrum, jumps = build_model(config)
        member = _coefficients_sum(report["pointer_family"]["orders"])
        err = stationarity_residual(spectrum, jumps, member)
        if not err <= family_max:
            problems.append(f"stationarity residual {err:.3e} > {family_max:g}")
        return err, problems
    family = [row["family_vs_exact_distance"] for row in report["oracle_comparison"]]
    endpoints = [max(row["endpoint_vs_exact"], row["endpoint_vs_family"])
                 for row in report.get("endpoints", [])]
    if not max(family) <= family_max:
        problems.append(f"family distance {max(family):.3e} > {family_max:g}")
    if endpoints and not max(endpoints) <= thresholds["endpoint_distance"]:
        problems.append(f"endpoint distance {max(endpoints):.3e} > "
                        f"{thresholds['endpoint_distance']:g}")
    if "evolve" in config and len(endpoints) != len(config["evolve"]["seeds"]):
        problems.append("missing trajectory endpoints")
    if report.get("thresholds", {}).get("within_thresholds") is not True:
        problems.append("report says thresholds exceeded")
    return max(family + endpoints), problems


def check_report(raw: bytes, config: dict, command: str, expected_structure: dict) -> dict:
    """Parse report.json and check its structure and numeric errors."""
    out = {"problems": [], "error": None, "orders": 0, "structure": None}
    try:
        report = json.loads(raw)
    except ValueError as err:
        out["problems"].append(f"report.json does not parse: {err}")
        return out
    got = out["structure"] = structure(report)
    out["orders"] = len(got["orders"])
    for key, want in expected_structure.items():
        if got.get(key) != want:
            out["problems"].append(f"structure {key}: {got.get(key)!r} != reference {want!r}")
    try:
        out["error"], numeric = numeric_error(report, config, command)
        out["problems"].extend(numeric)
    except (KeyError, TypeError, ValueError) as err:
        out["problems"].append(f"report lacks a checked field: {err!r}")
    return out


def check_job(out_dir: str, exit_code, config: dict, command: str,
              expected_structure: dict, checked: dict | None = None) -> dict:
    """Check one job's outputs: passed, problems, error, structure, sha256, byte counts.

    `checked` caches `check_report` results by the sha256 of report.json, for
    one config and reference: a byte-identical report is not parsed again.
    """
    problems = []
    if exit_code != EXPECTED_EXIT:
        problems.append(f"exit code {exit_code!r}, expected {EXPECTED_EXIT}")
    missing = [f for f in expected_files(config, command)
               if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        problems.append(f"missing outputs {missing}")
    written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)) \
        if os.path.isdir(out_dir) else 0
    result = {"passed": False, "problems": problems, "error": None, "orders": 0,
              "structure": None, "sha256": None, "report_bytes": 0, "bytes_written": written}
    try:
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            raw = fh.read()
    except OSError as err:
        problems.append(f"report.json unreadable: {err}")
        return result
    result["report_bytes"] = len(raw)
    digest = result["sha256"] = hashlib.sha256(raw).hexdigest()
    checked = {} if checked is None else checked
    if digest not in checked:
        checked[digest] = check_report(raw, config, command, expected_structure)
    report_check = checked[digest]
    problems.extend(report_check["problems"])
    result.update(error=report_check["error"], orders=report_check["orders"],
                  structure=report_check["structure"], passed=not problems)
    return result
