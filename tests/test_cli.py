import json
import os

import numpy as np
import pytest

from fgkls.cli import (
    EXIT_CONFIG,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_STEP_SIZE,
    EXIT_THRESHOLD,
    _json_chunks,
    load_config,
    main,
)
from fgkls.perturbation import PointerFamily, run_pointer_scheme


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
    for oc, dirs, entry in zip(family.orders, family.free_directions,
                               report["pointer_family"]["orders"]):
        for mat, encoded in zip((oc.coeff, *dirs),
                                (entry["coefficients"], *entry["free_directions"])):
            assert encoded == [[[float(z.real), float(z.imag)] for z in row] for row in mat]


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

    def recording_evaluate(family, lam=None, *args, **kwargs):
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


def test_text_report_lists_oracle_blocks(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_OK
    # the two-level Liouvillian splits into populations and coherences
    lines = (out / "report.txt").read_text().splitlines()
    start = lines.index("lambda | Liouvillian blocks | largest block")
    rows = [[field.strip() for field in line.split("|")] for line in lines[start + 1:start + 3]]
    assert rows == [["1", "2", "2"], ["0.5", "2", "2"]]
    assert "_oracle_blocks" not in (out / "report.json").read_text()

    assert main(["exact", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    start = lines.index("lambda | Liouvillian blocks | largest block")
    assert [field.strip() for field in lines[start + 1].split("|")] == ["1", "2", "2"]


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


def test_compare_threshold_exceeded_exit_code(tmp_path):
    payload = dict(TWO_LEVEL)
    payload["thresholds"] = {"family_distance": 1e-30}
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
    path = tmp_path / "broken.json"
    path.write_text('{"model": "two_level",\n  broken\n}')
    assert main(["pointer", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "broken.json:2:" in err


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
    (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], eps1="x")), "two_level.eps1"),
    (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], eps2=[2.0])), "two_level.eps2"),
    (dict(TWO_LEVEL, max_order=True), "max_order"),
    (dict(TWO_LEVEL, max_order=2.5), "max_order"),
    (dict(TWO_LEVEL, evolve={"t_end": "5"}), "evolve.t_end"),
    (dict(TWO_LEVEL, evolve={"t_end": 1.0, "n_steps": 100.0}), "evolve.n_steps"),
    (dict(TWO_LEVEL, evolve={"t_end": 1.0, "n_steps": True}), "evolve.n_steps"),
    (dict(TWO_LEVEL, evolve={"t_end": float("inf")}), "evolve.t_end"),
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
    with pytest.raises(Exception):
        load_config(cfg)
