import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fgkls.exact
from fgkls.cli import (
    COMMANDS,
    CSV_BLOCK_RECORDS,
    EXIT_CONFIG,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_STEP_SIZE,
    EXIT_THRESHOLD,
    ConfigError,
    _as_matrix,
    _atomic_write,
    _family_report,
    _float_pairs,
    _json_chunks,
    _kernel_route,
    _run_trajectories,
    _trajectory_csvs,
    load_config,
    main,
)
from fgkls.core import random_density_matrix
from fgkls.exact import (SteadyStateSet, Trajectory, default_step, integrate_trajectory,
                         point_to_affine_distance, steady_state_basis, steady_state_basis_svd)
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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_output_files_get_the_mode_the_umask_sets(tmp_path, umask, mode):
    # the mode `open(path, "w")` gives a new file, not mkstemp's 0o600
    payload = dict(TWO_LEVEL, evolve={"t_end": 1.0, "n_steps": 10, "seeds": [0]})
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["evolve", cfg, "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(old)
    for name in ("report.json", "report.txt", "trajectory_0.csv"):
        assert (out / name).stat().st_mode & 0o777 == mode, name


def _run_module(args, flags=()):
    """`python *flags -m fgkls.cli` with `args`, on the checkout's `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run([sys.executable, *flags, "-m", "fgkls.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("args, message", [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["pointer"], "the following arguments are required: config"),
    (["pointer", "CFG", "--max-order", "abc"], "argument --max-order: invalid int value: 'abc'"),
], ids=["no-arguments", "unknown-command", "missing-config", "bad-max-order"])
def test_command_line_errors_exit_1(tmp_path, args, message):
    # argparse alone exits 2, which README gives to a scheme failure
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    proc = _run_module([cfg if arg == "CFG" else arg for arg in args])
    assert proc.returncode == EXIT_CONFIG
    assert message in proc.stderr and "usage: fgkls" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "report.json").exists()


def test_help_exits_0():
    proc = _run_module(["--help"])
    assert proc.returncode == EXIT_OK and "usage: fgkls" in proc.stdout


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


def _record_oracle_calls(monkeypatch):
    """The lambdas of each call of the exact oracle's entry while patched."""
    calls = []
    real = fgkls.cli.steady_state_bases

    def recording(spectrum, jumps, lambdas, *args, **kwargs):
        calls.append(list(lambdas))
        return real(spectrum, jumps, lambdas, *args, **kwargs)

    monkeypatch.setattr(fgkls.cli, "steady_state_bases", recording)
    return calls


def test_compare_two_level_three_way_agreement(tmp_path, monkeypatch):
    evaluated = []
    real_evaluate = PointerFamily.evaluate

    def recording_evaluate(family, lam=1.0, *args, **kwargs):
        evaluated.append(lam)
        return real_evaluate(family, lam, *args, **kwargs)

    calls = _record_oracle_calls(monkeypatch)
    monkeypatch.setattr(PointerFamily, "evaluate", recording_evaluate)
    payload = dict(TWO_LEVEL)
    payload["evolve"] = {"t_end": 25.0, "n_steps": 6000, "seeds": [7]}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_OK
    # one oracle call for every lambda; the endpoints reuse the lambda = 1
    # kernel and member of the comparison
    assert calls == [[1.0, 0.5]]
    assert evaluated == [1.0, 0.5]
    report = json.loads((out / "report.json").read_text())
    for row in report["oracle_comparison"]:
        assert row["family_vs_exact_distance"] < 1e-8
        assert row["kernel_dim"] == 1
    for row in report["endpoints"]:
        assert row["endpoint_vs_exact"] < 1e-6
        assert row["endpoint_vs_family"] < 1e-6


def test_compare_reaches_the_oracle_through_module_globals(tmp_path, monkeypatch):
    # one call of the entry, looked up in the module when called, serves
    # every lambda
    calls = _record_oracle_calls(monkeypatch)
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    assert main(["compare", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert calls == [TWO_LEVEL["lambda_values"]]


def test_text_report_lists_oracle_blocks(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_OK
    # the two-level Liouvillian splits into populations and coherences
    lines = (out / "report.txt").read_text().splitlines()
    start = lines.index("lambda | Liouvillian blocks | largest block | kernel route")
    rows = [[field.strip() for field in line.split("|")] for line in lines[start + 1:start + 3]]
    assert rows == [["1", "2", "2", "svd"], ["0.5", "2", "2", "svd"]]
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

    # a dense model's Liouvillian is one block.  lambda = 0.5 gaps some
    # coherences, and the sweeps certify it without singular values: its row
    # holds bounds on the kept and rejected values.  lambda = 1 gaps none, so
    # the SVD decides, and its row holds the values themselves
    cfg = write_config(tmp_path, "dense.json", DENSE_3)
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    start = lines.index(MARGIN_HEADER)
    rows = [[field.strip() for field in line.split("|")] for line in lines[start + 1:start + 3]]
    model = load_config(cfg)
    s = steady_state_basis(model.spectrum, model.jumps)
    assert not s.margin_is_bound and s.sweeps is None and s.block_sizes == (9,)
    rel = s.singular_values / s.singular_values[0]
    expected = [["1", "1.000e-10", f"{rel[-1]:.3e}", f"{rel[-2]:.3e}"]]
    jumps = [0.5 * L for L in model.jumps]
    s = steady_state_basis(model.spectrum, jumps)
    kept, rejected = s.kernel_margin
    assert s.margin_is_bound and s.block_sizes == (9,)
    values = steady_state_basis_svd(model.spectrum, jumps).singular_values
    assert kept < 1e-10 <= rejected <= values[-2] / values[0]
    expected.append(["0.5", "1.000e-10", f"<= {kept:.3e}", f">= {rejected:.3e}"])
    assert rows == expected
    assert not any("within 1e3 of the kernel cutoff" in line for line in lines)
    start = lines.index("lambda | Liouvillian blocks | largest block | kernel route")
    count, factor = s.sweeps
    assert [line.split(" | ")[3] for line in lines[start + 1:start + 3]] == [
        "svd", f"certified ({count} sweeps, eta/gap {factor:.2e})"]
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


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_report_json_holds_the_returned_report_and_nothing_else(tmp_path, command):
    cfg = write_config(tmp_path, "cfg.json", {
        **TWO_LEVEL, "evolve": {"t_end": 1.0, "n_steps": 100, "seeds": [0, 1]},
        "thresholds": {"endpoint_distance": 1.0}})
    code, report, oracle, runs = COMMANDS[command](load_config(cfg))
    out = tmp_path / "out"
    assert main([command, cfg, "--out", str(out)]) == code == EXIT_OK
    assert (out / "report.json").read_text() == "".join(_json_chunks(report))
    assert not [key for key in report if key.startswith("_")]
    lambdas = {"exact": [1.0], "compare": TWO_LEVEL["lambda_values"]}.get(command, [])
    assert [lam for lam, _ in oracle] == lambdas
    assert all(isinstance(steady, SteadyStateSet) for _, steady in oracle)
    seeds = [0, 1] if command in ("evolve", "compare") else []
    assert list(runs) == seeds
    assert sorted(path.name for path in out.glob("trajectory_*.csv")) == [
        f"trajectory_{seed}.csv" for seed in seeds]


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


def test_compare_without_lambda_one_measures_endpoints_at_lambda_one(tmp_path, monkeypatch):
    # the endpoints are distances to the lambda = 1 oracle and member; when
    # lambda_values leaves 1 out, it joins the one oracle call for them alone
    # and is kept out of report.txt's lambda tables
    calls = _record_oracle_calls(monkeypatch)
    payload = {**TWO_LEVEL,
               "evolve": {"t_end": 5.0, "n_steps": 500, "seeds": [3, 4]},
               "thresholds": {"endpoint_distance": 1.0}}
    reports, tables = [], []
    for name, lambdas in (("without", [0.5, 0.25]), ("with", [0.5, 0.25, 1.0])):
        cfg = write_config(tmp_path, f"{name}.json", {**payload, "lambda_values": lambdas})
        out = tmp_path / name
        assert main(["compare", cfg, "--out", str(out)]) == EXIT_OK
        assert calls == [[0.5, 0.25, 1.0]]
        calls.clear()
        reports.append(json.loads((out / "report.json").read_text()))
        lines = (out / "report.txt").read_text().splitlines()
        starts = [k + 1 for k, line in enumerate(lines) if line.startswith("lambda |")]
        assert len(starts) == 4
        for k in starts:
            assert lines[k + len(lambdas)].startswith(("lambda |", "seed |"))
        tables.append([[row.split("|")[0].strip() for row in lines[k:k + len(lambdas)]]
                       for k in starts])
    assert reports[0]["endpoints"] == reports[1]["endpoints"]
    assert tables == [[["0.5", "0.25"]] * 4, [["0.5", "0.25", "1"]] * 4]


def test_compare_folds_the_endpoint_oracle_into_its_one_call(tmp_path, monkeypatch):
    # lambda = 1 joins the one oracle call for the endpoints alone; they are
    # the distances to a lambda = 1 call of its own, and the report has the
    # keys of a run whose lambda_values hold 1
    calls = _record_oracle_calls(monkeypatch)
    payload = {**WEAK_DENSE_3,
               "evolve": {"t_end": 5.0, "n_steps": 500, "seeds": [3, 4]},
               "thresholds": {"endpoint_distance": 1.0}}
    reports = []
    for name, lambdas in (("without", [0.5]), ("with", [0.5, 1.0])):
        cfg = write_config(tmp_path, f"{name}.json", {**payload, "lambda_values": lambdas})
        assert main(["compare", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    assert calls == [[0.5, 1.0], [0.5, 1.0]]
    assert reports[0].keys() == reports[1].keys()
    assert [row["lambda"] for row in reports[0]["oracle_comparison"]] == [0.5]
    config = load_config(cfg)
    alone = steady_state_basis(config.spectrum, config.jumps)
    runs = _run_trajectories(config)
    for row in reports[0]["endpoints"]:
        final = runs[row["seed"]].states[-1]
        assert row["endpoint_vs_exact"] == pytest.approx(point_to_affine_distance(
            final, alone.physical_member, alone.physical_directions), rel=0, abs=1e-14)


# a one-block model whose every coherence is gapped, with one dense jump of
# norm 0.01: the sweeps certify its kernel at each lambda
WEAK_DENSE_3 = {
    "model": "custom",
    "custom": {"energies": [0.5, 1.3, 2.4],
               "jumps": [[[[0.0043, -0.0053], [0.0008, -0.0012], [-0.0009, -0.0004]],
                          [[-0.0042, -0.0005], [-0.0018, 0.0069], [0.0005, -0.0007]],
                          [[-0.0006, -0.0014], [-0.0022, -0.0008], [0.001, -0.0005]]]]},
    "lambda_values": [1.0, 0.5, 0.25],
}


def test_compare_certifies_every_lambda_of_one_series(tmp_path, monkeypatch):
    # lambda = 1's sweeps serve 0.5 and 0.25, each certified by its own
    # product and bounds; the CI's installed-command step runs this config
    calls = _record_oracle_calls(monkeypatch)
    cfg = write_config(tmp_path, "cfg.json", WEAK_DENSE_3)
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_OK
    assert calls == [[1.0, 0.5, 0.25]]
    routes = [line for line in (out / "report.txt").read_text().splitlines()
              if "| certified (" in line]
    assert [line.split("|")[0].strip() for line in routes] == ["1", "0.5", "0.25"]


@pytest.mark.parametrize("delta, line", [
    (0.3, "q = 2*delta/omega: 0.6 (integer: False)"),
    (1.0, "q = 2*delta/omega: 2 (integer: True)"),
])
def test_text_report_names_the_oscillator_degeneracy_parameter(tmp_path, delta, line):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "oscillator_spin",
        "oscillator_spin": {"n_levels": 3, "omega": 1.0, "delta": delta,
                            "jump": {"variant": "sigma_plus", "lam": [0.3, 0.0]}},
        "max_order": 1,
    })
    out = tmp_path / "out"
    assert main(["pointer", cfg, "--out", str(out)]) == EXIT_OK
    assert line in (out / "report.txt").read_text().splitlines()


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
    assert (["".join(next(files)) for _ in trajectories]
            == ["".join(_reference_csv(t)) for t in trajectories])
    assert next(files, None) is None


def test_trajectory_csv_header_names_are_unique_from_D11():
    # without a separator (1, 10) and (11, 0) would both print as rho_110
    for d, first in ((10, "re(rho_00)"), (11, "re(rho_0_0)")):
        states = np.broadcast_to(np.eye(d, dtype=complex) / d, (2, d, d))
        traj = Trajectory(times=np.array([0.0, 1.0]), states=states, step_size=1.0)
        (blocks,) = _trajectory_csvs([traj])
        text = "".join(blocks)
        header = text[:text.index("\n")].split(",")
        assert len(set(header)) == len(header) == 1 + 2 * d * d
        assert header[1] == first and text == "".join(_reference_csv(traj))
    assert "re(rho_1_10)" in header and "im(rho_10_10)" in header


@pytest.mark.parametrize("d", [2, 11])
@pytest.mark.parametrize("count", [1, CSV_BLOCK_RECORDS - 1, CSV_BLOCK_RECORDS,
                                   CSV_BLOCK_RECORDS + 1, 2 * CSV_BLOCK_RECORDS + 3])
def test_trajectory_csv_blocks_at_block_boundaries(d, count):
    # two files on one time grid, records around and across the block size;
    # non-Hermitian states with repeated magnitudes of both signs and -0.0
    rng = np.random.default_rng(count)
    times = np.linspace(0.0, 1.0, count)
    trajectories = []
    for _ in range(2):
        states = np.round(rng.standard_normal((count, d, d, 2)), 1).view(complex)[..., 0]
        states.imag[:, 0, 0] = -0.0
        trajectories.append(Trajectory(times=times, states=states, step_size=0.1))
    for traj, blocks in zip(trajectories, _trajectory_csvs(trajectories)):
        header, *rows = list(blocks)
        assert len(rows) == -(-count // CSV_BLOCK_RECORDS)
        assert all(row.count("\n") == CSV_BLOCK_RECORDS for row in rows[:-1])
        assert header + "".join(rows) == "".join(_reference_csv(traj))


def test_trajectory_csv_writer_holds_one_block_not_the_file(tmp_path):
    # about 1000 records at D = 16, 10 MB of text; every magnitude distinct but
    # for the Hermitian pairs, the most the writer has to hold per block
    rng = np.random.default_rng(16)
    count, d = 1001, 16
    a = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    traj = Trajectory(times=np.linspace(0.0, 10.0, count),
                      states=(a + a.conj().transpose(0, 2, 1)) / 2, step_size=0.01)
    path = tmp_path / "trajectory_0.csv"
    tracemalloc.start()
    try:
        for blocks in _trajectory_csvs([traj]):
            _atomic_write(str(path), blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole file's table and strings trace about six times its text
    assert peak < 0.75 * path.stat().st_size


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
        {1: 2},
    ]
    for obj in cases:
        assert "".join(_json_chunks(obj)) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    for mat in (one, wide, wide.T, square, broken, np.zeros((0, 3), complex),
                np.zeros((2, 0), complex)):
        for wrap in (lambda m: m, lambda m: {"k": [m, {"x": (m,)}]}):
            written = "".join(_json_chunks(wrap(mat)))
            assert written == json.dumps(wrap(_nested_pairs(mat)), sort_keys=True, indent=2) + "\n"
    for bad in (np.int64(1), np.bool_(True), {"s": {1, 2}}, np.zeros((2, 2)),
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


def test_json_writer_grows_the_placeholder_past_equal_keys_and_strings():
    # json.dumps writes each matrix as the string "\0"; a key equal to it, then
    # a string equal to "\0\0", and one whose encoding holds that of "\0"
    # would each add a cut
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    for obj in ({"\0": [mat, "\0\0"], "k": {"x": mat}},
                {"a": ['"\0', mat], "\0\0": mat, "z": "\0"},
                ["\0", "\0\0", "\0\0\0", mat]):
        assert "".join(_json_chunks(obj)) == _dumps_nested(obj)


def test_json_writer_makes_one_matrix_pairs_at_a_time():
    # 35 complex 64 x 64 matrices, about 90 % zeros as in a D = 64 family's
    # report: 2.3 MB of [re, im] floats if all were made before the first
    # splice, which traced a 3.5 MB peak instead of 1.3 MB
    rng = np.random.default_rng(64)
    mats = []
    for _ in range(35):
        mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        mat[rng.random((64, 64)) < 0.9] = 0.0
        mats.append(mat)
    report = {"pointer_family": {"free_directions": mats[5:],
                                 "orders": [{"coefficients": m, "order": k}
                                            for k, m in enumerate(mats[:5])]}}
    tracemalloc.start()
    try:
        for _ in _json_chunks(report):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


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
        parsed = _as_matrix(value, "m")[0] if len(value) == len(value[0]) else None
        if parsed is not None:
            entrywise = np.array([[complex(*z) for z in row] for row in value])
            assert parsed.shape == entrywise.shape
            assert np.array_equal(parsed.view(np.int64), entrywise.view(np.int64))
    # integer entries take the entrywise path, to the same values
    assert np.array_equal(_as_matrix(FLOAT_PAIR_LISTS[3], "m")[0],
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


def _oscillator_spin(n_levels, omega, delta):
    return {"model": "oscillator_spin",
            "oscillator_spin": {"n_levels": n_levels, "omega": omega, "delta": delta,
                                "jump": {"variant": "sigma_plus", "lam": [0.3, 0.0]}}}


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
    # q = 2 delta / omega is inf: round(q) raised an OverflowError traceback
    (_oscillator_spin(2, 1e-320, 0.3), "oscillator_spin"),
    (_oscillator_spin(2, 1.0, 1e308), "oscillator_spin"),
    # numpy refuses both sizes before touching memory: 14.6 TiB of energies
    # (a MemoryError traceback), and a dimension beyond its index range (a
    # ValueError without a key path)
    (_oscillator_spin(10 ** 12, 1.0, 0.3), "oscillator_spin.n_levels"),
    (_oscillator_spin(10 ** 30, 1.0, 0.3), "oscillator_spin.n_levels"),
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


def test_float_jump_echoes_as_its_parsed_matrix(tmp_path):
    # a jump of floats alone is echoed as the array it parses to, whose
    # splice writes the bytes of the config re-dumped; one with an int entry
    # is echoed as written
    floats = [row[:] for row in DENSE_3["custom"]["jumps"][0]]
    floats[1] = [[-0.0, 5e-324], [0.0, -0.0], [0.25, -5e-324]]
    mixed = [row[:] for row in floats]
    mixed[0] = [[1, 0], [0.08, -0.11], [0, -0.04]]
    payload = dict(DENSE_3, custom=dict(DENSE_3["custom"], jumps=[floats, mixed]))
    cfg = write_config(tmp_path, "cfg.json", payload)
    config = load_config(cfg)
    echoed = config.echo["custom"]["jumps"]
    assert echoed[0] is config.jumps[0] and echoed[1] == mixed
    out = tmp_path / "out"
    assert main(["pointer", cfg, "--out", str(out), "--json-only"]) == EXIT_OK
    text = (out / "report.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    written = json.loads(text)["model"]["custom"]["jumps"]
    assert json.dumps(written) == json.dumps([floats, mixed])


def test_report_echoes_keys_and_strings_equal_to_the_placeholder(tmp_path):
    # an extra config key, echoed into the report, whose key and string read
    # as the writer's first and second placeholder
    out = tmp_path / "out"
    payload = dict(DENSE_3, **{"\0": "\0\0"})
    assert main(["pointer", write_config(tmp_path, "cfg.json", payload), "--out", str(out),
                 "--json-only"]) == EXIT_OK
    text = (out / "report.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert json.loads(text)["model"] == payload


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


# energies each finite, whose spread max - min is not
SPREAD_BEYOND_FLOATS = {
    "custom": (dict(DENSE_3, custom=dict(DENSE_3["custom"], energies=[-1e308, 0.5, 1e308])),
               "custom.energies"),
    "two_level": (dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], eps1=-1e308,
                                                 eps2=1e308)),
                  "two_level"),
    "oscillator_spin": ({"model": "oscillator_spin",
                         "oscillator_spin": {"n_levels": 2, "omega": 1e307, "delta": 8.9e307,
                                             "jump": {"variant": "sigma_plus",
                                                      "lam": [0.3, 0.0]}}},
                        "oscillator_spin.n_levels"),
}


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("kind", list(SPREAD_BEYOND_FLOATS))
def test_energy_spread_beyond_the_float_range_is_a_config_error(tmp_path, capsys, kind, command):
    # exact and compare ended in an SVD LinAlgError traceback, pointer in
    # numpy overflow warnings (errors here)
    payload, where = SPREAD_BEYOND_FLOATS[kind]
    cfg = write_config(tmp_path, "cfg.json", dict(payload, evolve={"t_end": 1.0}))
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error at {where}: ")
    assert err.endswith(": the spread max - min exceeds the float range\n")
    assert not (tmp_path / "out").exists()


def test_finite_energy_spread_near_the_float_range_still_runs(tmp_path):
    for payload in (dict(DENSE_3, custom=dict(DENSE_3["custom"], energies=[-8e307, 0.5, 8e307])),
                    dict(TWO_LEVEL, two_level=dict(TWO_LEVEL["two_level"], eps1=-8e307,
                                                   eps2=8e307))):
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert load_config(cfg).spectrum.energies.max() == 8e307
        assert main(["pointer", cfg, "--out", str(tmp_path / "out"), "--json-only"]) == EXIT_OK


def test_exact_near_the_float_range_keeps_every_kernel_vector(tmp_path):
    # the residual of the third kernel vector overflowed to inf, with a
    # RuntimeWarning (an error here), so it was dropped
    payload = dict(DENSE_3, custom=dict(DENSE_3["custom"], energies=[-8e307, 0.5, 8e307]))
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main(["exact", cfg, "--out", str(tmp_path / "out"), "--json-only"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exact"]["kernel_dim"] == 3


def test_integer_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    # (max_order + 1) * log10(lambda) and t_end / n_steps raised OverflowError
    huge, evolve = 10 ** 400, {"t_end": 1.0}
    cases = [(dict(TWO_LEVEL, max_order=huge, evolve=evolve), [], "max_order"),
             (dict(TWO_LEVEL, evolve=evolve), ["--max-order", str(huge)], "max_order"),
             (dict(TWO_LEVEL, evolve=dict(evolve, n_steps=huge)), [], "evolve.n_steps")]
    for payload, override, where in cases:
        cfg = write_config(tmp_path, "cfg.json", payload)
        for command in COMMANDS:
            assert main([command, cfg, "--out", str(tmp_path / "out"), *override]) == EXIT_CONFIG
            assert capsys.readouterr().err == (f"error: config error at {where}: exceeds the "
                                               "float range\n")
    assert not (tmp_path / "out").exists()


def test_finite_huge_step_count_names_accumulated_rounding(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       dict(TWO_LEVEL, evolve={"t_end": 1.0, "n_steps": 2 ** 1023, "seeds": [0]}))
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == EXIT_STEP_SIZE
    assert capsys.readouterr().err.startswith("error: accumulated rounding over 8.99e+307 steps: ")


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
        return SchemeFailure(order=1, reason="rank(matrix) < rank(augmented)",
                             rank=1, rank_augmented=2)

    monkeypatch.setattr(cli, "run_pointer_scheme", failing_scheme)
    cfg = write_config(tmp_path, "cfg.json", TWO_LEVEL)
    out = tmp_path / "out"
    assert main(["pointer", cfg, "--out", str(out)]) == EXIT_NO_SOLUTION
    report = json.loads((out / "report.json").read_text())
    assert report["scheme_failure"]["order"] == 1
    assert (report["scheme_failure"]["rank"], report["scheme_failure"]["rank_augmented"]) == (1, 2)


def _small_gap_config(tmp_path):
    """A custom D = 4 model whose first two energies are 1e-4 apart, with two unit-norm jumps."""
    rng = np.random.default_rng(1)
    jumps = []
    for _ in range(2):
        L = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        L /= np.linalg.norm(L, 2)
        jumps.append([[[z.real, z.imag] for z in row] for row in L])
    return write_config(tmp_path, "cfg.json", {
        "model": "custom",
        "custom": {"energies": [1.0, 1.0001, 2.0, 3.0], "jumps": jumps},
    })


def test_pointer_with_a_small_gap_exits_0(tmp_path):
    # energies 1e-4 apart grow the order-2 entries to about 1.8e7, and their
    # rounding with them: the Hermiticity check is relative to the entries
    cfg = _small_gap_config(tmp_path)
    out = tmp_path / "out"
    proc = _run_module(["pointer", cfg, "--out", str(out), "--json-only"])
    assert proc.returncode == EXIT_OK and "Traceback" not in proc.stderr, proc.stderr
    orders = json.loads((out / "report.json").read_text())["pointer_family"]["orders"]
    assert len(orders) == 4
    assert np.max(np.abs(np.array(orders[2]["coefficients"]))) > 1e7


# the closed form divides by the 1e-200 gap until the entries overflow
OVERFLOWING_GAP = {
    "model": "custom",
    "custom": {"energies": [0.0, 1e-200, 2.0],
               "jumps": [[[[0.5, 0.0], [0.3, 0.1], [0.0, 0.2]],
                          [[0.1, 0.0], [0.2, 0.0], [0.4, 0.0]],
                          [[0.3, 0.0], [0.0, 0.1], [0.1, 0.0]]]]},
    "max_order": 3,
    "tolerances": {"tol_degen": 1e-250},
}


@pytest.mark.parametrize("gap, order", [(1e-200, 2), (4.588e-156, 3)])
def test_pointer_with_non_finite_coefficients_exits_2(tmp_path, gap, order):
    # at 1e-200, order 1's right-hand side is about 1e197, whose squared norm
    # overflows, and order 2's closed form overflows.  At 4.588e-156, order 2's
    # particular solution reaches 1.6e308 through an intermediate past the
    # float range, and order 3's closed form overflows.  Under -W error a numpy
    # warning on any of them would end in a traceback
    payload = {**OVERFLOWING_GAP, "custom": {**OVERFLOWING_GAP["custom"],
                                             "energies": [0.0, gap, 2.0]}}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    proc = _run_module(["pointer", cfg, "--out", str(out), "--json-only"], flags=["-W", "error"])
    assert proc.returncode == EXIT_NO_SOLUTION and proc.stderr == "", proc.stderr
    text = (out / "report.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text)["scheme_failure"] == {
        "order": order, "reason": f"order {order} coefficients are not finite",
        "rank": 2, "rank_augmented": 2}


def test_compare_whose_scheme_fails_writes_the_failure_only(tmp_path, monkeypatch):
    # a scheme failure ends compare before the oracle and the trajectories
    def unreachable(*args, **kwargs):
        raise AssertionError("compare went on past the scheme failure")

    monkeypatch.setattr(fgkls.cli, "steady_state_bases", unreachable)
    monkeypatch.setattr(fgkls.cli, "_run_trajectories", unreachable)
    cfg = write_config(tmp_path, "cfg.json",
                       {**OVERFLOWING_GAP, "evolve": {"t_end": 1.0, "seeds": [0, 1]}})
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out)]) == EXIT_NO_SOLUTION
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "report.txt"]
    report = json.loads((out / "report.json").read_text())
    assert report["scheme_failure"]["order"] == 2
    assert not report.keys() & {"pointer_family", "oracle_comparison", "residual_scaling",
                                "endpoints", "thresholds"}
    text = (out / "report.txt").read_text()
    assert "SCHEME FAILURE at order 2: order 2 coefficients are not finite" in text
    assert "lambda |" not in text


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_an_empty_seed_list_integrates_nothing(tmp_path, monkeypatch, command):
    monkeypatch.delenv("LP_SEED", raising=False)
    cfg = write_config(tmp_path, "cfg.json", dict(TWO_LEVEL, evolve={"t_end": 1.0, "seeds": []}))
    out = tmp_path / "out"
    assert main([command, cfg, "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "report.txt"]
    report = json.loads((out / "report.json").read_text())
    if command == "evolve":
        assert report["evolve"]["trajectories"] == []
    else:
        assert report["endpoints"] == []
        assert report["thresholds"]["worst_endpoint_distance"] == 0.0


def test_atomic_write_keeps_the_target_when_its_chunks_raise(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def chunks():
        yield "new"
        raise RuntimeError("encoding failed")

    with pytest.raises(RuntimeError, match="encoding failed"):
        _atomic_write(str(target), chunks())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("distance, table, fields, worst", [
    ("hermitian_affine_distance", "oracle_comparison", ["family_vs_exact_distance"],
     "worst_family_distance"),
    ("point_to_affine_distance", "endpoints", ["endpoint_vs_exact", "endpoint_vs_family"],
     "worst_endpoint_distance"),
], ids=["family", "endpoint"])
def test_compare_exits_3_on_a_nan_distance(tmp_path, monkeypatch, distance, table, fields, worst):
    # max(0.0, nan) is 0.0: a NaN distance must fail the thresholds, not vanish
    monkeypatch.setattr(fgkls.cli, distance, lambda *args: float("nan"))
    cfg = write_config(tmp_path, "cfg.json",
                       {**TWO_LEVEL, "evolve": {"t_end": 1.0, "seeds": [0]}})
    out = tmp_path / "out"
    assert main(["compare", cfg, "--out", str(out), "--json-only"]) == EXIT_THRESHOLD
    report = json.loads((out / "report.json").read_text())
    assert all(np.isnan(row[field]) for row in report[table] for field in fields)
    assert np.isnan(report["thresholds"][worst])
    assert report["thresholds"]["within_thresholds"] is False


def test_pointer_notes_a_growing_series(tmp_path):
    # each order's largest entry is about 1e4 times the previous one's (the
    # inverse smallest gap), so no lambda near 1 sums the series: one note
    # names the largest ratio r, its order and the bound 1 / sqrt(r)
    out = tmp_path / "out"
    assert main(["pointer", _small_gap_config(tmp_path), "--out", str(out), "--json-only"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    # coefficients are written as [re, im] pairs
    peaks = [np.max(np.hypot(*np.moveaxis(np.array(o["coefficients"]), -1, 0)))
             for o in report["pointer_family"]["orders"]]
    ratios = [b / a for a, b in zip(peaks, peaks[1:])]
    assert min(ratios) > 1e3
    order = int(np.argmax(ratios)) + 1
    r = max(ratios)
    growth = [note for note in report["notes"] if note.startswith("series growth")]
    assert growth == [f"series growth: max|f^({order})| / max|f^({order - 1})| = {r:.3g}; "
                      f"the terms at lambda grow for lambda > {1 / np.sqrt(r):.3g}"]

    # a two-level model's corrections vanish: no note
    out = tmp_path / "two_level"
    assert main(["pointer", write_config(tmp_path, "two.json", TWO_LEVEL), "--out", str(out),
                 "--json-only"]) == EXIT_OK
    assert not json.loads((out / "report.json").read_text())["notes"]


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
