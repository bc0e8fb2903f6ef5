import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fgkls.exact
from fgkls.cli import (
    EXIT_CONFIG,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_STEP_SIZE,
    EXIT_THRESHOLD,
    ConfigError,
    _as_matrix,
    _family_report,
    _float_pairs,
    _json_chunks,
    _kernel_route,
    _trajectory_csvs,
    load_config,
    main,
)
from fgkls.core import random_density_matrix
from fgkls.exact import (Trajectory, default_step, integrate_trajectory, steady_state_basis,
                         steady_state_basis_svd)
from fgkls.models import build_two_level
from fgkls.perturbation import PointerFamily, run_pointer_scheme

from helpers import random_nondegenerate_model

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TWO_LEVEL = {
    "model": "two_level",
    "two_level": {"eps1": 1.0, "eps2": 2.0, "l12": [1.0, 0.0], "l21": [2.0, 0.0]},
    "max_order": 2,
    "lambda_values": [1.0, 0.5],
}


def test_pointer_two_level_report(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    out = tmp_path / "out"
    assert main(["pointer", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["pointer_family"]["branch"] == "non-degenerate"
    f0 = np.array(report["pointer_family"]["orders"][0]["coefficients"])
    assert f0[0][0] == pytest.approx([0.2, 0.0], abs=1e-12)
    assert f0[1][1] == pytest.approx([0.8, 0.0], abs=1e-12)
    for order in report["pointer_family"]["orders"][1:]:
        coeffs = np.array(order["coefficients"])
        assert np.max(np.abs(coeffs)) < 1e-13
    assert (out / "report.txt").exists()


def test_pointer_oscillator_nondegenerate_free_directions(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "oscillator_spin",
        "oscillator_spin": {"n_levels": 6, "omega": 1.0, "delta": 0.3,
                            "jump": {"variant": "sigma_plus", "lam": [0.3, 0.0]}},
        "max_order": 1,
    })
    out = tmp_path / "out"
    assert main(["pointer", cfg, "--out", str(out), "--json-only"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["pointer_family"]["branch"] == "non-degenerate"
    assert report["q_is_integer"] is False
    assert report["pointer_family"]["orders"][0]["free_direction_count"] == 5
    assert not (out / "report.txt").exists()


def test_pointer_oscillator_degenerate_structure_note(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "oscillator_spin",
        "oscillator_spin": {"n_levels": 4, "omega": 1.0, "delta": 1.0,
                            "jump": {"variant": "sigma_xy",
                                     "gamma1": [0.3, 0.0], "gamma2": [0.0, 0.2]}},
        "max_order": 1,
    })
    out = tmp_path / "out"
    assert main(["pointer", cfg, "--out", str(out), "--json-only"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["pointer_family"]["branch"] == "degenerate"
    assert any("f_mm00 = f_mm11" in note for note in report["notes"])

    # matrices are written entry by entry as exact [re, im] float pairs
    config = load_config(cfg)
    family = run_pointer_scheme(config.spectrum, config.jumps, max_order=1)
    for oc, entry in zip(family.orders, report["pointer_family"]["orders"]):
        assert entry["coefficients"] == _nested_pairs(oc.coeff)
    assert report["pointer_family"]["free_directions"] == [
        _nested_pairs(d) for d in family.free_directions]


def test_exact_command(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    out = tmp_path / "out"
    assert main(["exact", cfg, "--out", str(out), "--json-only"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["exact"]["kernel_dim"] == 1
    member = np.array(report["exact"]["physical_member"])
    assert member[0][0][0] == pytest.approx(0.2, abs=1e-10)


def test_evolve_writes_trajectories_and_respects_seed_env(tmp_path, monkeypatch):
    payload = dict(TWO_LEVEL)
    payload["evolve"] = {"t_end": 10.0, "n_steps": 2000, "seeds": [3, 4]}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "trajectory_3.csv").exists()
    assert (out / "trajectory_4.csv").exists()
    header = (out / "trajectory_3.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["t", "re(rho_00)", "re(rho_01)"]
    assert "im(rho_11)" in header

    monkeypatch.setenv("LP_SEED", "11")
    out2 = tmp_path / "out2"
    assert main(["evolve", cfg, "--out", str(out2)]) == EXIT_OK
    report = json.loads((out2 / "report.json").read_text())
    assert report["evolve"]["seeds"] == [11]
    assert report["evolve"]["seed_source"] == "env:LP_SEED"
    assert (out2 / "trajectory_11.csv").exists()


def test_evolve_derived_step_count_records_like_a_written_one(tmp_path):
    # default_step is 0.01 / ||L12^dag L12|| = 0.0025, so t_end 5 takes 2000
    # steps; both configs record every second step, 1000 states plus the first
    config = load_config(write_config(tmp_path, "cfg.json", TWO_LEVEL))
    assert 5.0 / default_step(config.spectrum, config.jumps) == 2000
    written = {}
    for name, evolve in (("derived", {"t_end": 5.0, "seeds": [3]}),
                         ("written", {"t_end": 5.0, "n_steps": 2000, "seeds": [3]})):
        cfg = write_config(tmp_path, f"{name}.json", dict(TWO_LEVEL, evolve=evolve))
        assert main(["evolve", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        report = json.loads((tmp_path / name / "report.json").read_text())
        written[name] = (report["evolve"], (tmp_path / name / "trajectory_3.csv").read_bytes())
    assert written["derived"] == written["written"]
    assert written["derived"][1].count(b"\n") == 1 + 1001


def test_evolve_requires_evolve_block(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_evolve_zero_jumps_liouville_note(tmp_path):
    payload = {
        "model": "custom",
        "custom": {"energies": [0.5, 1.5],
                   "jumps": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]},
        "evolve": {"t_end": 5.0, "n_steps": 500, "seeds": [1]},
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert "Liouville regime, no unique pointer" in report["notes"]
    # populations frozen: the endpoint keeps the initial diagonal
    final = np.array(report["evolve"]["trajectories"][0]["final_state"])
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w = a @ a.conj().T
    rho0 = w / w.trace()
    assert final[0][0][0] == pytest.approx(rho0[0, 0].real, abs=1e-8)
    assert final[1][1][0] == pytest.approx(rho0[1, 1].real, abs=1e-8)
    # off-diagonals precess without damping: modulus preserved
    end_01 = final[0][1][0] + 1j * final[0][1][1]
    assert abs(end_01) == pytest.approx(abs(rho0[0, 1]), abs=1e-8)


def test_compare_two_level_three_way_agreement(tmp_path, monkeypatch):
    import fgkls.cli as cli

    solved = []
    evaluated = []
    real_exact = cli._exact_for_lambda
    real_evaluate = PointerFamily.evaluate

    def recording_exact(config, lam):
        solved.append(lam)
        return real_exact(config, lam)

    def recording_evaluate(family, lam=1.0, *args, **kwargs):
        evaluated.append(lam)
        return real_evaluate(family, lam, *args, **kwargs)

    monkeypatch.setattr(cli, "_exact_for_lambda", recording_exact)
    monkeypatch.setattr(PointerFamily, "evaluate", recording_evaluate)
    payload = dict(TWO_LEVEL)
    payload["evolve"] = {"t_end": 25.0, "n_steps": 6000, "seeds": [7]}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_OK
    # the endpoints reuse the lambda = 1 kernel and member of the comparison
    assert solved == [1.0, 0.5]
    assert evaluated == [1.0, 0.5]
    report = json.loads((out / "report.json").read_text())
    for row in report["oracle_comparison"]:
        assert row["family_vs_exact_distance"] < 1e-8
        assert row["kernel_dim"] == 1
    for row in report["endpoints"]:
        assert row["endpoint_vs_exact"] < 1e-6
        assert row["endpoint_vs_family"] < 1e-6


def test_compare_reaches_the_oracle_through_module_globals(tmp_path, monkeypatch):
    # the benchmark times the oracle by rebinding this name
    import fgkls.cli as cli

    calls = []
    real = cli.steady_state_basis
    monkeypatch.setattr(cli, "steady_state_basis",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    assert main(["compare", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == len(TWO_LEVEL["lambda_values"])


def test_text_report_lists_oracle_blocks(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_OK
    # the two-level Liouvillian splits into populations and coherences
    lines = (out / "report.txt").read_text().splitlines()
    start = lines.index("lambda | Liouvillian blocks | largest block | kernel route")
    rows = [[field.strip() for field in line.split("|")] for line in lines[start + 1:start + 3]]
    assert rows == [["1", "2", "2", "svd"], ["0.5", "2", "2", "svd"]]
    assert "_oracle_blocks" not in (out / "report.json").read_text()
    # the kernel margin: largest kept and smallest rejected value over s_max
    start = lines.index(MARGIN_HEADER)
    rows = [[field.strip() for field in line.split("|")] for line in lines[start + 1:start + 3]]
    expected = []
    for lam in (1.0, 0.5):
        s = steady_state_basis(*build_two_level(1.0, 2.0, lam, 2.0 * lam))
        rel = s.singular_values / s.singular_values[0]
        expected.append([f"{lam:g}", "1.000e-10", f"{rel[rel < 1e-10].max():.3e}",
                         f"{rel[rel >= 1e-10].min():.3e}"])
    assert rows == expected
    assert not any("within 1e3 of the kernel cutoff" in line for line in lines)
    assert "kernel cutoff" not in (out / "report.json").read_text()

    assert main(["exact", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    start = lines.index("lambda | Liouvillian blocks | largest block | kernel route")
    assert [field.strip() for field in lines[start + 1].split("|")] == ["1", "2", "2", "svd"]
    start = lines.index(MARGIN_HEADER)
    assert [field.strip() for field in lines[start + 1].split("|")] == expected[0]

    # a dense model's Liouvillian is one block, certified without singular
    # values: its rows are bounds on the kept and rejected values
    cfg = write_config(tmp_path, "dense.json", DENSE_3)
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    start = lines.index(MARGIN_HEADER)
    rows = [[field.strip() for field in line.split("|")] for line in lines[start + 1:start + 3]]
    expected = []
    model = load_config(cfg)
    for lam in (1.0, 0.5):
        jumps = [lam * L for L in model.jumps]
        s = steady_state_basis(model.spectrum, jumps)
        kept, rejected = s.kernel_margin
        assert s.margin_is_bound and s.block_sizes == (9,)
        values = steady_state_basis_svd(model.spectrum, jumps).singular_values
        assert kept < 1e-10 <= rejected <= values[-2] / values[0]
        expected.append([f"{lam:g}", "1.000e-10", f"<= {kept:.3e}", f">= {rejected:.3e}"])
    assert rows == expected
    assert not any("within 1e3 of the kernel cutoff" in line for line in lines)
    # lambda = 1 gaps no coherence, so the built block's bordered inverse
    # certifies it; lambda = 0.5 gaps some, and the sweeps certify it
    start = lines.index("lambda | Liouvillian blocks | largest block | kernel route")
    count, factor = steady_state_basis(model.spectrum, [0.5 * L for L in model.jumps]).sweeps
    assert [line.split(" | ")[3] for line in lines[start + 1:start + 3]] == [
        "bordered inverse", f"certified ({count} sweeps, eta/gap {factor:.2e})"]
    report = (out / "report.json").read_text()
    assert "<=" not in report and ">=" not in report and "margin" not in report
    # `exact` prints the smallest singular values, so it takes them all and
    # its row holds the values themselves
    assert main(["exact", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    start = lines.index(MARGIN_HEADER)
    values = steady_state_basis_svd(model.spectrum, model.jumps).singular_values
    rel = values / values[0]
    assert [field.strip() for field in lines[start + 1].split("|")] == [
        "1", "1.000e-10", f"{rel[-1]:.3e}", f"{rel[-2]:.3e}"]


def test_kernel_route_names_a_failed_certificate():
    # a weakly coupled one-block model whose rejected singular value lies
    # within 1e3 of the cutoff: the sweeps run, their certificate fails, and
    # the SVD decides
    spectrum, jumps = random_nondegenerate_model(np.random.default_rng(0), dim=6, n_jumps=2,
                                                 coupling=3e-5)
    steady = steady_state_basis(spectrum, jumps)
    count, factor = steady.sweeps
    assert not steady.margin_is_bound and count > 0
    assert _kernel_route(steady) == f"svd (after {count} sweeps, eta/gap {factor:.2e})"


# a three-level model with one dense jump: its Liouvillian is one real block
DENSE_3 = {
    "model": "custom",
    "custom": {"energies": [0.5, 1.3, 2.4],
               "jumps": [[[[0.41, -0.51], [0.08, -0.11], [-0.09, -0.04]],
                          [[-0.4, -0.05], [-0.17, 0.66], [0.05, -0.07]],
                          [[-0.06, -0.13], [-0.21, -0.08], [0.1, -0.05]]]]},
    "max_order": 2,
    "lambda_values": [1.0, 0.5],
    "thresholds": {"family_distance": 1.0},
}


MARGIN_HEADER = "lambda | kernel cutoff | largest kept / s_max | smallest rejected / s_max"


def test_text_report_notes_kernel_margin_near_cutoff(tmp_path):
    # the worked case of a lam^6 leak: at lambda 0.1 its singular value is
    # 3.6e-8 of the largest, rejected, but within 1e3 of the 1e-10 cutoff
    l1 = [[[0.0, 0.0]] * 4 for _ in range(4)]
    l1[0][2], l1[1][1], l1[1][2] = [0.8, 0.3], [0.5, -0.2], [-0.6, 0.4]
    l2 = [[[0.0, 0.0]] * 4 for _ in range(4)]
    l2[1][3] = [0.9, 0.1]
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "custom",
        "custom": {"energies": [0.7, 1.5, 2.2, 3.0], "jumps": [l1, l2]},
        "max_order": 1,
        "lambda_values": [1.0, 0.1],
    })
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_THRESHOLD
    lines = (out / "report.txt").read_text().splitlines()
    start = lines.index(MARGIN_HEADER)
    rows = [[field.strip() for field in line.split("|")] for line in lines[start + 1:start + 3]]
    assert [row[0] for row in rows] == ["1", "0.1"]
    assert 1e-10 < float(rows[1][3]) < 1e-7 < 1e-3 < float(rows[0][3])
    notes = [line for line in lines if "within 1e3 of the kernel cutoff" in line]
    assert notes == ["note: at lambda 0.1 the smallest rejected singular value is within 1e3 "
                     "of the kernel cutoff; the kernel dimension depends on tol_kernel there"]
    assert "within 1e3" not in (out / "report.json").read_text()


def test_compare_kernel_dim_vs_free_parameters(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "oscillator_spin",
        "oscillator_spin": {"n_levels": 6, "omega": 1.0, "delta": 1.0,
                            "jump": {"variant": "sigma_plus", "lam": [0.3, 0.0]}},
        "max_order": 1,
    })
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out), "--json-only"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    free = report["pointer_family"]["orders"][0]["free_direction_count"]
    kernel = report["oracle_comparison"][0]["kernel_dim"]
    assert kernel == free + 1


# Three levels with one dense jump: the order-1 family is off the exact
# steady state by truncation error (about 2.2e-5 at lambda 1), not by rounding.
TRUNCATED_3LEVEL = {
    "model": "custom",
    "custom": {"energies": [0.5, 1.3, 2.4], "jumps": [[
        [[0.05, 0.0], [0.04, 0.02], [-0.03, 0.05]],
        [[0.02, -0.04], [0.06, 0.01], [0.05, 0.0]],
        [[-0.05, 0.03], [0.01, 0.05], [0.04, -0.02]]]]},
    "max_order": 1,
    "lambda_values": [1.0, 0.5],
}


def test_compare_threshold_exceeded_exit_code(tmp_path):
    payload = dict(TRUNCATED_3LEVEL)
    payload["thresholds"] = {"family_distance": 1e-8}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out), "--json-only"]) == EXIT_THRESHOLD
    report = json.loads((out / "report.json").read_text())
    assert report["thresholds"]["within_thresholds"] is False


def test_reports_are_byte_identical_across_reruns(tmp_path):
    payload = dict(TWO_LEVEL)
    payload["evolve"] = {"t_end": 25.0, "n_steps": 5000, "seeds": [5]}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["compare", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["compare", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "trajectory_5.csv").read_bytes() == (out2 / "trajectory_5.csv").read_bytes()


def _nested_pairs(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _reference_csv(traj):
    d = traj.states.shape[1]
    sep = "_" if d >= 11 else ""
    header = ["t"]
    header += [f"re(rho_{m}{sep}{n})" for m in range(d) for n in range(d)]
    header += [f"im(rho_{m}{sep}{n})" for m in range(d) for n in range(d)]
    flat = traj.states.reshape(len(traj.states), -1)
    table = np.column_stack([traj.times, flat.real, flat.imag])
    return [",".join(header) + "\n"] + [",".join(map(repr, row)) + "\n" for row in table.tolist()]


def test_trajectory_csvs_match_repr_of_every_float(tmp_path):
    # a batch at D = 2 shares its times; a D = 3 run has its own
    rng = np.random.default_rng(4)
    spectrum, jumps = build_two_level(1.0, 2.0, 1.0, 2.0)
    trajectories = list(integrate_trajectory(spectrum, jumps, [random_density_matrix(2, rng)
                                                               for _ in range(2)],
                                             t_end=3.0, n_steps=60, record_every=7))
    dense = load_config(write_config(tmp_path, "dense.json", DENSE_3))
    trajectories += integrate_trajectory(dense.spectrum, dense.jumps,
                                         [random_density_matrix(3, rng)], t_end=2.0, n_steps=40)
    # -0.0 in place of every zero imaginary part of the diagonal
    states = trajectories[0].states.copy()
    states.imag[:, np.arange(2), np.arange(2)] = -0.0
    trajectories.append(Trajectory(times=trajectories[0].times, states=states, step_size=0.05))
    for traj in trajectories:
        start = traj.states[0]
        assert not np.array_equal(start, start.conj().T)  # not Hermitian to the bit
        flat = traj.states.reshape(len(traj.states), -1)
        assert (flat.imag < 0).any() and (flat.imag > 0).any()
    assert np.signbit(trajectories[-1].states.imag).any()
    files = _trajectory_csvs(trajectories)
    assert [next(files) for _ in trajectories] == [_reference_csv(t) for t in trajectories]
    assert next(files, None) is None


def test_trajectory_csv_header_names_are_unique_from_D11():
    # without a separator (1, 10) and (11, 0) would both print as rho_110
    for d, first in ((10, "re(rho_00)"), (11, "re(rho_0_0)")):
        states = np.broadcast_to(np.eye(d, dtype=complex) / d, (2, d, d))
        traj = Trajectory(times=np.array([0.0, 1.0]), states=states, step_size=1.0)
        (lines,) = _trajectory_csvs([traj])
        header = lines[0].rstrip("\n").split(",")
        assert len(set(header)) == len(header) == 1 + 2 * d * d
        assert header[1] == first and lines == _reference_csv(traj)
    assert "re(rho_1_10)" in header and "im(rho_10_10)" in header


def test_json_writer_matches_json_dumps():
    rng = np.random.default_rng(3)
    square = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    wide = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    one = np.array([[0.1 - 2.5e-17j]])
    broken = np.array([[1.0 + np.nan * 1j, np.inf], [-np.inf * 1j, -0.0]])
    cases = [
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 0.1],
        [np.float64(0.1), np.float64(1e16), np.float64("nan"), np.float64(-np.inf)],
        [True, False, 1, 0, -7, None, 2 ** 70],
        ["caf\u00e9 \u2126", "tab\tnl\nquote\"back\\", "\x00\x1f\x7f", ""],
        {"b": [], "a": {}, "c": (), "d": (1, [2, (3,)]), "\u00e9": {"z": None, "y": [{}]}},
        [],
        {},
        "top-level string",
        3.5,
    ]
    for obj in cases:
        assert "".join(_json_chunks(obj)) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    for mat in (one, wide, wide.T, square, broken, np.zeros((0, 3), complex),
                np.zeros((2, 0), complex)):
        for wrap in (lambda m: m, lambda m: {"k": [m, {"x": (m,)}]}):
            written = "".join(_json_chunks(wrap(mat)))
            assert written == json.dumps(wrap(_nested_pairs(mat)), sort_keys=True, indent=2) + "\n"
    for bad in (np.int64(1), np.bool_(True), {1: 2}, {"s": {1, 2}}, np.zeros((2, 2)),
                np.zeros(3, complex), np.zeros((2, 2, 2), complex)):
        with pytest.raises(TypeError):
            "".join(_json_chunks(bad))


def _dumps_nested(obj):
    """`json.dumps` of `obj` with every complex matrix as nested [re, im] lists."""
    def nest(value):
        if isinstance(value, np.ndarray):
            return _nested_pairs(value)
        if isinstance(value, dict):
            return {k: nest(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [nest(v) for v in value]
        return value
    return json.dumps(nest(obj), sort_keys=True, indent=2) + "\n"


def test_json_writer_splices_nonzero_floats_into_zero_layout():
    sparse = np.zeros((3, 4), complex)
    sparse[0, 0] = complex(-0.0, 0.0)
    sparse[0, 3] = complex(5e-324, -0.0)
    sparse[1, 2] = complex(0.0, -5e-324)
    sparse[2, 0] = complex(1e16, 0.1)
    sparse[2, 3] = complex(-0.0, -0.0)
    # zero where `sparse` is not, so a layout reused across matrices must start clean
    swapped = np.where(sparse.view(np.int64).reshape(3, 4, 2).any(axis=-1), 0.0, 0.1 - 3e-17j)
    negative = np.full((2, 3), complex(-0.0, -0.0))
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    cases = [sparse, swapped, np.zeros((2, 3), complex), negative, np.array([[0j]]),
             np.array([[complex(-0.0, 1e16)]]), dense, sparse.astype(np.complex64)]
    for mat in cases:
        for wrap in (lambda m: m, lambda m: {"k": [m, {"x": (m,)}]}):
            assert "".join(_json_chunks(wrap(mat))) == _dumps_nested(wrap(mat))
    # one shape at two levels, and each layout hit again with other zeros
    mixed = {"a": [sparse, swapped, negative], "b": [[swapped, sparse], negative.T, negative.T]}
    assert "".join(_json_chunks(mixed)) == _dumps_nested(mixed)

    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e16, 0.1, -2.5e-17, 1.0])
    for _ in range(40):
        shape = tuple(rng.integers(1, 6, size=2))
        floats = rng.choice(pool, size=(*shape, 2)) * (rng.random((*shape, 2)) < rng.random())
        mat = np.empty(shape, complex)
        mat.real, mat.imag = floats[..., 0], floats[..., 1]
        obj = [[mat]] * int(rng.integers(1, 3))
        assert "".join(_json_chunks(obj)) == _dumps_nested(obj)


# lists of rows of [re, im] pairs: the first ones of floats alone, which are
# written through the matrix layout, then ones the generic path writes
FLOAT_PAIR_LISTS = [
    [[[0.5, 2.0]]],
    [[[0.1, -0.0], [5e-324, 1.7e308]], [[-5e-324, 0.0], [-1.7e308, 1e16]]],
    [[[0.0, 0.0], [0.0, 0.0], [0.0, -0.0]]],
    [[[1, 2.0], [0.5, 0.25]], [[0.5, 0.5], [0.0, 3]]],
    [[[True, 2.0]], [[0.5, False]]],
    [[[0.5, 2.0], [1.5, 0.0]], [[0.5, 1.0]]],
    [[[0.5, 2.0, 1.0]]],
    [[[0.5]]],
    [[[0.5, 2.0], "x"]],
    [[[0.5, "2.0"]]],
    [[[0.5, None]]],
    [[[[0.5, 2.0]]]],
    [[], []],
    [[]],
    [],
]


def test_json_writer_writes_float_pair_lists_as_json_does():
    for k, value in enumerate(FLOAT_PAIR_LISTS):
        assert (_float_pairs(value) is not None) == (k < 3), value
        for obj in (value, {"k": [value, {"x": value}], "m": [value, value]}):
            assert "".join(_json_chunks(obj)) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    rng = np.random.default_rng(4)
    for _ in range(20):
        shape = tuple(rng.integers(1, 5, size=2))
        floats = rng.standard_normal((*shape, 2)) * (rng.random((*shape, 2)) < 0.5)
        obj = {"a": floats.tolist(), "b": [floats.tolist(), "c"]}
        assert "".join(_json_chunks(obj)) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_float_pair_matrix_parses_to_the_bits_of_entrywise_parsing():
    for value in FLOAT_PAIR_LISTS[:3]:
        parsed = _as_matrix(value, "m") if len(value) == len(value[0]) else None
        if parsed is not None:
            entrywise = np.array([[complex(*z) for z in row] for row in value])
            assert parsed.shape == entrywise.shape
            assert np.array_equal(parsed.view(np.int64), entrywise.view(np.int64))
    # integer entries take the entrywise path, to the same values
    assert np.array_equal(_as_matrix(FLOAT_PAIR_LISTS[3], "m"),
                          np.array([[1 + 2j, 0.5 + 0.25j], [0.5 + 0.5j, 3j]]))


# q = 2 at D = 16: the degenerate branch, whose free directions are mostly zeros
DEGENERATE_D16 = {
    "model": "oscillator_spin",
    "oscillator_spin": {"n_levels": 8, "omega": 1.0, "delta": 1.0,
                        "jump": {"variant": "sigma_xy",
                                 "gamma1": [0.3, 0.0], "gamma2": [0.0, 0.2]}},
    "max_order": 2,
}


def _degenerate_d16_family(tmp_path):
    config = load_config(write_config(tmp_path, "cfg.json", DEGENERATE_D16))
    family = run_pointer_scheme(config.spectrum, config.jumps, config.partition,
                                max_order=config.max_order, tol_rank=config.tol_rank)
    assert family.branch == "degenerate" and family.free_directions
    return family


def test_degenerate_family_report_matches_json_dumps(tmp_path):
    report = _family_report(_degenerate_d16_family(tmp_path))
    floats = np.array([_nested_pairs(d) for d in report["free_directions"]])
    assert np.count_nonzero(floats) < floats.size / 10
    assert "".join(_json_chunks(report)) == _dumps_nested(report)


def test_family_report_lists_free_directions_once(tmp_path):
    # every order shares the family's free directions, so the report holds
    # them once, next to the branch, and each order only their count
    family = _degenerate_d16_family(tmp_path)
    out = tmp_path / "out"
    assert main(["pointer", write_config(tmp_path, "cfg.json", DEGENERATE_D16),
                 "--out", str(out), "--json-only"]) == EXIT_OK
    text = (out / "report.json").read_text()
    written = json.loads(text)["pointer_family"]
    assert written["free_directions"] == [_nested_pairs(d) for d in family.free_directions]
    assert len(written["orders"]) == family.max_order + 1
    for order in written["orders"]:
        assert "free_directions" not in order
        assert {"rank", "rank_augmented"} <= order.keys()
        assert order["free_direction_count"] == len(written["free_directions"])
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


ROUND_TRIP_CONFIGS = [
    ("pointer", {
        "model": "oscillator_spin",
        "oscillator_spin": {"n_levels": 4, "omega": 1.0, "delta": 1.0,
                            "jump": {"variant": "sigma_xy",
                                     "gamma1": [0.3, 0.0], "gamma2": [0.0, 0.2]}},
        "max_order": 2,
    }),
    ("exact", TWO_LEVEL),
    ("evolve", dict(TWO_LEVEL, evolve={"t_end": 5.0, "n_steps": 500, "seeds": [2, 9]})),
    ("compare", dict(TWO_LEVEL, evolve={"t_end": 5.0, "n_steps": 500, "seeds": [1]},
                     thresholds={"endpoint_distance": 1.0})),
]


def test_reports_round_trip_through_json(tmp_path):
    # pins the report.json format independently of the writer that produced it
    for command, payload in ROUND_TRIP_CONFIGS:
        cfg = write_config(tmp_path, f"{command}.json", payload)
        out = tmp_path / command
        assert main([command, cfg, "--out", str(out), "--json-only"]) == EXIT_OK, command
        text = (out / "report.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", command


def test_invalid_json_is_line_anchored(tmp_path, capsys):
    # (file text, or None for no file; what the message must name)
    cases = [('{"model": "two_level",\n  broken\n}', "broken.json:2:"),
             ("[1, 2]", "broken.json:1: top-level value must be an object"),
             (None, "broken.json: [Errno 2]")]
    for text, where in cases:
        path = tmp_path / "broken.json"
        path.unlink(missing_ok=True)
        if text is not None:
            path.write_text(text)
        assert main(["pointer", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG, where
        assert where in capsys.readouterr().err


# (config, key path the error message must name); each case is checked
# inside one test so the suite keeps reporting a single test per defect class
MALFORMED_CONFIGS = [
    ({"model": "two_level", "two_level": {"eps1": 1.0}}, "two_level.eps2"),
    ({"model": "two_level", "two_level": 5}, "two_level"),
    (dict(TWO_LEVEL, thresholds="x"), "thresholds"),
    (dict(TWO_LEVEL, thresholds={"family_distance": "x"}), "thresholds.family_distance"),
    (dict(TWO_LEVEL, thresholds={"family_distance": float("nan")}), "thresholds.family_distance"),
    (dict(TWO_LEVEL, thresholds={"endpoint_distance": float("inf")}), "thresholds.endpoint_distance"),
    (dict(TWO_LEVEL, evolve=5), "evolve"),
    (dict(TWO_LEVEL, lambda_values=[True]), "lambda_values"),
    (dict(TWO_LEVEL, lambda_values=[float("nan"), 1.0]), "lambda_values"),
    (dict(TWO_LEVEL, lambda_values=[float("inf")]), "lambda_values"),
    (dict(TWO_LEVEL, evolve={"t_end": 1.0, "seeds": [True]}), "evolve.seeds"),
    (dict(TWO_LEVEL, evolve={"t_end": 1.0, "seeds": [3, 4, 3]}), "evolve.seeds"),
    (dict(TWO_LEVEL, thresholds={"family_distanse": 1e-30}), "thresholds.family_distanse"),
    (dict(TWO_LEVEL, thresholds={"family_distance": -1}), "thresholds.family_distance"),
    (dict(TWO_LEVEL, thresholds={"endpoint_distance": -1e-9}), "thresholds.endpoint_distance"),
    (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], eps1="x")), "two_level.eps1"),
    (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], eps2=[2.0])), "two_level.eps2"),
    (dict(TWO_LEVEL, max_order=True), "max_order"),
    (dict(TWO_LEVEL, max_order=2.5), "max_order"),
    (dict(TWO_LEVEL, evolve={"t_end": "5"}), "evolve.t_end"),
    (dict(TWO_LEVEL, evolve={"t_end": 1.0, "n_steps": 100.0}), "evolve.n_steps"),
    (dict(TWO_LEVEL, evolve={"t_end": 1.0, "n_steps": True}), "evolve.n_steps"),
    (dict(TWO_LEVEL, evolve={"t_end": float("inf")}), "evolve.t_end"),
    # finite, but t_end / default step overflows, so neither the derived step
    # count nor the step-size error's suggested count is finite
    (dict(TWO_LEVEL, evolve={"t_end": 1e308}), "evolve.t_end"),
    (dict(TWO_LEVEL, evolve={"t_end": 1e308, "n_steps": 1}), "evolve.t_end"),
    ({"model": "custom", "custom": {"energies": [float("nan"), 1.0], "jumps": []}},
     "custom.energies[0]"),
    ({"model": "custom", "custom": {"energies": [1.0, "x"], "jumps": []}}, "custom.energies[1]"),
    (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], l12=[float("nan"), 0.0])),
     "two_level.l12"),
    (dict(TWO_LEVEL, tolerances={"tol_degen": 10}), "tolerances.tol_degen"),
    ({"model": "custom", "custom": {"energies": [1.0, 1.1, 3.0], "jumps": []},
      "tolerances": {"tol_degen": 1.5}}, "tolerances.tol_degen"),
    ({"model": "oscillator_spin",
      "oscillator_spin": {"n_levels": "4", "omega": 1.0, "delta": 0.3,
                          "jump": {"variant": "sigma_plus", "lam": [0.3, 0.0]}}},
     "oscillator_spin.n_levels"),
    ({"model": "oscillator_spin",
      "oscillator_spin": {"n_levels": 4, "omega": "1", "delta": 0.3,
                          "jump": {"variant": "sigma_plus", "lam": [0.3, 0.0]}}},
     "oscillator_spin.omega"),
    ({"model": "oscillator_spin",
      "oscillator_spin": {"n_levels": 4, "omega": 1.0, "delta": True,
                          "jump": {"variant": "sigma_plus", "lam": [0.3, 0.0]}}},
     "oscillator_spin.delta"),
    # integers beyond the float range (401 digits)
    (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], eps1=10**400)), "two_level.eps1"),
    (dict(TWO_LEVEL, lambda_values=[10**400]), "lambda_values"),
    (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], l12=[10**400, 0])), "two_level.l12"),
    (dict(TWO_LEVEL, tolerances={"tol_rank": 10**400}), "tolerances.tol_rank"),
    (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], l12=[1.0])), "two_level.l12"),
    (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], eps2=1.0)), "two_level"),
    ({"model": "qubit"}, "model"),
    ({"model": "oscillator_spin",
      "oscillator_spin": {"n_levels": 4, "omega": 1.0, "delta": 0.3,
                          "jump": {"variant": "sigma_z", "lam": [0.3, 0.0]}}},
     "oscillator_spin.jump.variant"),
    ({"model": "oscillator_spin",
      "oscillator_spin": {"n_levels": 1, "omega": 1.0, "delta": 0.3,
                          "jump": {"variant": "sigma_plus", "lam": [0.3, 0.0]}}},
     "oscillator_spin"),
    ({"model": "custom", "custom": {"energies": "x", "jumps": []}}, "custom.energies"),
    ({"model": "custom", "custom": {"energies": [1.0, 2.0], "jumps": 5}}, "custom.jumps"),
    ({"model": "custom", "custom": {"energies": [1.0, 2.0], "jumps": [5]}}, "custom.jumps[0]"),
    ({"model": "custom", "custom": {"energies": [1.0, 2.0], "jumps": [[[[0.0, 0.0], [0.0, 0.0]]]]}},
     "custom.jumps[0][0]"),
    (dict(TWO_LEVEL, max_order=-1), "max_order"),
    (dict(TWO_LEVEL, lambda_values="x"), "lambda_values"),
    (dict(TWO_LEVEL, tolerances={"tol_x": 1e-9}), "tolerances.tol_x"),
    (dict(TWO_LEVEL, evolve={"t_end": 0}), "evolve.t_end"),
    (dict(TWO_LEVEL, evolve={"t_end": 1.0, "n_steps": 0}), "evolve.n_steps"),
]


def test_missing_key_reports_path(tmp_path, capsys):
    for payload, where in MALFORMED_CONFIGS:
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert main(["pointer", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG, where
        assert f"config error at {where}:" in capsys.readouterr().err


BAD_TOLERANCES = [
    ({"tol_rank": -1.0}, "tolerances.tol_rank"),
    ({"tol_rank": 1e300}, "tolerances.tol_rank"),
    ({"tol_kernel": 1.0}, "tolerances.tol_kernel"),
    ({"tol_degen": True}, "tolerances.tol_degen"),
    ({"tol_degen": float("nan")}, "tolerances.tol_degen"),
    ({"tol_rank": float("nan")}, "tolerances.tol_rank"),
    ([], "tolerances"),
]


def test_negative_config_seed_rejected(tmp_path, capsys):
    # np.random.default_rng raises on a negative seed, with a traceback
    payload = dict(TWO_LEVEL, evolve={"t_end": 1.0, "n_steps": 10, "seeds": [2, -1]})
    cfg = write_config(tmp_path, "cfg.json", payload)
    for command in ("evolve", "compare"):
        assert main([command, cfg, "--out", str(tmp_path)]) == EXIT_CONFIG, command
        assert "config error at evolve.seeds:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "compare"])
@pytest.mark.parametrize("payload", [TWO_LEVEL, DENSE_3], ids=["two_level", "dense_3"])
def test_tiny_tol_kernel_is_a_config_error(tmp_path, capsys, command, payload):
    # no singular value lies below 1e-300 of s_max, so the oracle finds no
    # kernel; that used to end in a RuntimeError traceback
    cfg = write_config(tmp_path, "cfg.json", dict(payload, tolerances={"tol_kernel": 1e-300}))
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config error at tolerances.tol_kernel: at lambda 1, ")
    assert "tol_kernel 1e-300 times s_max; the smallest is " in err and err.endswith(" of s_max\n")
    assert not (tmp_path / "out").exists()


def test_failed_oracle_check_exits_without_key_path(tmp_path, capsys, monkeypatch):
    # the direct-generator check rejects every kernel element; that is not
    # the fault of tol_kernel, so the message names no config key
    monkeypatch.setattr(fgkls.exact, "stationarity_residual", lambda *args: np.inf)
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    assert main(["exact", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: exact oracle at lambda 1: no Hermitian kernel element below the residual cutoff\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lam, max_order", [(1e200, 2), (1e100, 2), (1e55, 3), (1e13, 3)])
def test_huge_lambda_is_a_config_error(tmp_path, capsys, lam, max_order):
    # the oracle's norms and SVD overflowed (LinAlgError at 1e200), and the
    # series' lambda^6 overflowed in family.evaluate (OverflowError at 1e55);
    # the bound keeps lambda^(2 max_order + 2) within 1e100, past which is 1e13 at order 3
    cfg = write_config(tmp_path, "cfg.json",
                       dict(TWO_LEVEL, lambda_values=[0.5, lam], max_order=max_order))
    assert main(["compare", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: config error at lambda_values: {lam!r} ")
    assert not (tmp_path / "out").exists()


def _dense_3_with(text_of_entry, where):
    """DENSE_3's config text with the re part of jumps[0][1][0] written as `text_of_entry`."""
    text = json.dumps(DENSE_3)
    assert text.count("[-0.4, ") == 1
    return text.replace("[-0.4, ", f"[{text_of_entry}, "), where


def _dense_3_jump(jump):
    return json.dumps(dict(DENSE_3, custom=dict(DENSE_3["custom"], jumps=[jump])))


MALFORMED_JUMPS = [
    _dense_3_with("NaN", "custom.jumps[0][1][0]: expected a finite real number, got nan"),
    _dense_3_with("Infinity", "custom.jumps[0][1][0]: expected a finite real number, got inf"),
    _dense_3_with("1e400", "custom.jumps[0][1][0]: expected a finite real number, got inf"),
    _dense_3_with("true", "custom.jumps[0][1][0]: expected a finite real number, got True"),
    (_dense_3_jump([[[0.5, 0.0]] * 3, [[0.5, 0.0], [0.5], [0.5, 0.0]], [[0.5, 0.0]] * 3]),
     "custom.jumps[0][1][1]: complex numbers are [re, im] pairs of finite reals"),
    (_dense_3_jump([[[0.5, 0.0]] * 3, [[0.5, 0.0]] * 2, [[0.5, 0.0]] * 3]),
     "custom.jumps[0][1]: matrix must be square"),
]


@pytest.mark.parametrize("text, message", MALFORMED_JUMPS)
def test_malformed_custom_jump_entry_names_its_path(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["pointer", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: config error at {message}\n"


def test_integer_jump_entries_echo_as_integers(tmp_path):
    jump = [row[:] for row in DENSE_3["custom"]["jumps"][0]]
    jump[0] = [[1, 0], [0.08, -0.11], [0, -0.04]]
    payload = dict(DENSE_3, custom=dict(DENSE_3["custom"], jumps=[jump]))
    out = tmp_path / "out"
    assert main(["pointer", write_config(tmp_path, "cfg.json", payload), "--out", str(out),
                 "--json-only"]) == EXIT_OK
    text = (out / "report.json").read_text()
    echoed = json.loads(text)["model"]["custom"]["jumps"][0]
    assert echoed == jump and [type(x) for x in echoed[0][0] + echoed[0][2]] == [int, int, int, float]
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_pointer_and_compare_leave_numpy_random_unimported(tmp_path):
    # only the trajectories' random initial states need numpy.random, whose
    # import costs about 5 MB of resident memory
    osc_compare = dict(DEGENERATE_D16, oscillator_spin=dict(DEGENERATE_D16["oscillator_spin"],
                                                            delta=0.3))
    runs = [("pointer", DEGENERATE_D16), ("compare", DENSE_3), ("compare", osc_compare)]
    argvs = [[command, write_config(tmp_path, f"cfg{k}.json", payload),
              "--out", str(tmp_path / f"out{k}"), "--json-only"]
             for k, (command, payload) in enumerate(runs)]
    script = ("import sys\nfrom fgkls.cli import main\n"
              f"print([main(argv) for argv in {argvs!r}])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str([EXIT_OK] * 3), "[]"]


HUGE_ENTRIES_3 = [[[1e154, 0.0]] * 3] * 3  # each entry squares to 1e308, the sum to 9e308
OVERFLOWING_JUMPS = {
    "two_level": (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], l12=[1e160, 0.0])),
                  "two_level.l12"),
    "custom": (dict(DENSE_3, custom=dict(DENSE_3["custom"],
                                         jumps=DENSE_3["custom"]["jumps"] + [HUGE_ENTRIES_3])),
               "custom.jumps[1]"),
    "oscillator_spin": ({"model": "oscillator_spin",
                         "oscillator_spin": {"n_levels": 2, "omega": 1.0, "delta": 0.3,
                                             "jump": {"variant": "sigma_xy", "gamma1": [0.1, 0.0],
                                                      "gamma2": [1e154, 1e154]}}},
                        "oscillator_spin.jump.gamma2"),
}


@pytest.mark.parametrize("kind", list(OVERFLOWING_JUMPS))
def test_overflowing_jump_is_a_config_error(tmp_path, capsys, kind):
    # ||L||^2 of the weak-coupling ratio overflowed: an OverflowError
    # traceback from the report at l12 = 1e160
    payload, where = OVERFLOWING_JUMPS[kind]
    cfg = write_config(tmp_path, "cfg.json", payload)
    for command in ("pointer", "compare"):
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: config error at {where}: jump Frobenius norm ")
        assert err.endswith(" is too large, its square exceeds the float range\n")
    assert not (tmp_path / "out").exists()


def test_negative_env_seed_rejected(tmp_path, capsys, monkeypatch):
    payload = dict(TWO_LEVEL, evolve={"t_end": 1.0, "n_steps": 10, "seeds": [1]})
    cfg = write_config(tmp_path, "cfg.json", payload)
    for env_seed, reason in (("-3", "must be nonnegative"), ("x", "not an integer")):
        monkeypatch.setenv("LP_SEED", env_seed)
        for command in ("evolve", "compare"):
            assert main([command, cfg, "--out", str(tmp_path)]) == EXIT_CONFIG, command
            assert f"error: LP_SEED: {reason}" in capsys.readouterr().err


def test_oversized_integer_literal_reports_path(tmp_path, capsys):
    # json.dumps cannot write an integer beyond the int-string conversion
    # limit (4300 digits by default), so the config text is written directly
    digits = "7" * 5001
    cases = [
        (json.dumps(TWO_LEVEL).replace('"eps1": 1.0', f'"eps1": {digits}'), "two_level.eps1"),
        (json.dumps(TWO_LEVEL).replace('"max_order": 2', f'"max_order": -{digits}'), "max_order"),
    ]
    for text, where in cases:
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert digits in text
        assert main(["pointer", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG, where
        assert f"config error at {where}:" in capsys.readouterr().err


def test_bad_tolerance_rejected(tmp_path, capsys):
    for tolerances, where in BAD_TOLERANCES:
        cfg = write_config(tmp_path, "cfg.json", dict(TWO_LEVEL, tolerances=tolerances))
        assert main(["pointer", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG, where
        assert f"config error at {where}:" in capsys.readouterr().err


def test_non_numeric_scalar_rejected(tmp_path, capsys):
    payload = dict(TWO_LEVEL)
    payload["max_order"] = "three"
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main(["pointer", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "three" in capsys.readouterr().err


def test_step_size_error_exit_code(tmp_path, capsys):
    payload = {
        "model": "two_level",
        "two_level": {"eps1": 0.0, "eps2": 100.0, "l12": [0.1, 0.0], "l21": [0.0, 0.0]},
        "evolve": {"t_end": 10.0, "n_steps": 3, "seeds": [0]},
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == EXIT_STEP_SIZE
    err = capsys.readouterr().err
    assert err.startswith("error: step size")
    assert "suggested step" in err
    assert "Traceback" not in err


def test_huge_t_end_at_the_default_step_names_accumulated_rounding(tmp_path, capsys):
    # t_end 1e300 derives about 4e302 default steps, which rounding cannot survive
    cfg = write_config(tmp_path, "cfg.json",
                       dict(TWO_LEVEL, evolve={"t_end": 1e300, "seeds": [0]}))
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == EXIT_STEP_SIZE
    err = capsys.readouterr().err
    assert err.startswith("error: accumulated rounding over 4e+302 steps: ")
    assert "use a shorter t_end than 1e+300" in err
    assert "too large" not in err and "suggested step" not in err


def test_unstable_step_exits_without_float_warnings(tmp_path):
    # a fresh interpreter keeps Python's default warning filters, which print
    # any RuntimeWarning to stderr
    payload = {
        "model": "custom",
        "custom": {"energies": [0.0, 1e6],
                   "jumps": [[[[0.0, 0.0], [0.0, 0.0]], [[0.1, 0.0], [0.0, 0.0]]]]},
        "evolve": {"t_end": 100.0, "n_steps": 100000, "seeds": [0, 1]},
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-m", "fgkls.cli", "evolve", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_STEP_SIZE
    assert "non-finite state at t = " in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_scheme_failure_exit_code(tmp_path, monkeypatch):
    import fgkls.cli as cli
    from fgkls.perturbation import SchemeFailure

    def failing_scheme(*args, **kwargs):
        return SchemeFailure(order=1, reason="rank(matrix) < rank(augmented)", rank_report=None)

    monkeypatch.setattr(cli, "run_pointer_scheme", failing_scheme)
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    out = tmp_path / "out"
    assert main(["pointer", cfg, "--out", str(out)]) == EXIT_NO_SOLUTION
    report = json.loads((out / "report.json").read_text())
    assert report["scheme_failure"]["order"] == 1


def test_cli_override_flags(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    out = tmp_path / "out"
    assert main(["pointer", cfg, "--out", str(out), "--max-order", "0", "--json-only"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["pointer_family"]["max_order"] == 0

    # --tol-degen is checked as the config value is, and never leaves a traceback
    for value in ("10", "0", "nan"):
        assert main(["pointer", cfg, "--out", str(out), "--tol-degen", value]) == EXIT_CONFIG
        assert "config error at tolerances.tol_degen:" in capsys.readouterr().err


def test_load_config_custom_model_shape_mismatch(tmp_path):
    payload = {
        "model": "custom",
        "custom": {"energies": [0.0, 1.0],
                   "jumps": [[[[0.0, 0.0]]]]},
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    with pytest.raises(ConfigError, match=r"^config error at custom\.jumps\[0\]: shape \(1, 1\)"):
        load_config(cfg)
