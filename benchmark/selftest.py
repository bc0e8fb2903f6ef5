"""Self-tests of the benchmark's own logic.

    python3 benchmark/selftest.py          # or: python3 -m pytest benchmark/selftest.py

Run from the root of a checkout; `fgkls` is imported from its `src`.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

from check import check_job, liouvillian_blocks, build_model, structure  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import THRESHOLDS, WORKLOADS, make_config  # noqa: E402

TWO_LEVEL = {
    "model": "two_level",
    "two_level": {"eps1": 1.0, "eps2": 2.0, "l12": [1.0, 0.0], "l21": [2.0, 0.0]},
    "max_order": 2,
    "lambda_values": [1.0, 0.5],
    "thresholds": dict(THRESHOLDS),
}


def _job(command: str, config: dict, tmp: str):
    """Run one small job in-process; returns its output directory and report."""
    from fgkls.cli import main

    path = os.path.join(tmp, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out = os.path.join(tmp, "out")
    assert main([command, path, "--out", out]) == 0
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return out, json.load(fh)


def _rewrite(out: str, report: dict) -> None:
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def test_generator_is_deterministic_per_seed():
    for name in WORKLOADS:
        assert make_config(name, 3) == make_config(name, 3)
        assert make_config(name, 3) != make_config(name, 4)


def test_checker_accepts_a_clean_report_and_rejects_a_flipped_rank():
    with tempfile.TemporaryDirectory() as tmp:
        out, report = _job("compare", TWO_LEVEL, tmp)
        expected = structure(report)
        assert check_job(out, 0, TWO_LEVEL, "compare", expected)["passed"]
        bad = copy.deepcopy(report)
        bad["pointer_family"]["orders"][1]["rank"] += 1
        _rewrite(out, bad)
        result = check_job(out, 0, TWO_LEVEL, "compare", expected)
        assert not result["passed"]
        assert any("structure orders" in p for p in result["problems"])


def test_checker_rejects_a_perturbed_coefficient():
    with tempfile.TemporaryDirectory() as tmp:
        out, report = _job("pointer", TWO_LEVEL, tmp)
        expected = structure(report)
        assert check_job(out, 0, TWO_LEVEL, "pointer", expected)["passed"]
        bad = copy.deepcopy(report)
        bad["pointer_family"]["orders"][0]["coefficients"][0][1][0] += 1e-6
        _rewrite(out, bad)
        result = check_job(out, 0, TWO_LEVEL, "pointer", expected)
        assert not result["passed"]
        assert any("stationarity residual" in p for p in result["problems"])


def test_checker_rejects_a_distance_beyond_threshold_and_a_wrong_exit_code():
    with tempfile.TemporaryDirectory() as tmp:
        out, report = _job("compare", TWO_LEVEL, tmp)
        expected = structure(report)
        assert not check_job(out, 3, TWO_LEVEL, "compare", expected)["passed"]
        bad = copy.deepcopy(report)
        bad["oracle_comparison"][1]["family_vs_exact_distance"] = 2e-8
        _rewrite(out, bad)
        assert not check_job(out, 0, TWO_LEVEL, "compare", expected)["passed"]


def test_checker_cache_still_checks_exit_code_and_files():
    with tempfile.TemporaryDirectory() as tmp:
        out, report = _job("compare", TWO_LEVEL, tmp)
        expected = structure(report)
        cache: dict = {}
        assert check_job(out, 0, TWO_LEVEL, "compare", expected, cache)["passed"]
        assert not check_job(out, 2, TWO_LEVEL, "compare", expected, cache)["passed"]
        os.unlink(os.path.join(out, "report.txt"))
        assert not check_job(out, 0, TWO_LEVEL, "compare", expected, cache)["passed"]


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["c", 20, 30, 1],
        ["b", 50, 70, 0],
        ["b2", 60, 80, 0],   # overlaps b: the union [50, 80] is covered once
        ["d", 95, 120, 0],   # runs past its parent: only [95, 100] counts
    ]
    assert self_times(spans) == [100 - 30 - 30 - 5, 20, 10, 20, 20, 25]


def test_tracer_wraps_where_looked_up_and_skips_absent_names():
    mod = types.ModuleType("fake_fgkls_module")

    def work(x):
        return x + 1

    class State:
        def __post_init__(self):
            pass

    mod.work, mod.State, mod.TABLE = work, State, {"k": work}
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        for attr, name in (("work", "w"), ("TABLE", "t"), ("State", "s"), ("gone", "g")):
            tracer._rebind(mod.__name__, attr, lambda fn, name=name: tracer.wrap(name, fn))
        assert mod.State is State
        assert mod.work(1) == 2 and mod.TABLE["k"](1) == 2
        assert [s[0] for s in tracer.spans] == ["w", "t"]
        assert tracer.absent == [f"{mod.__name__}.State", f"{mod.__name__}.gone"]
    finally:
        del sys.modules[mod.__name__]


def test_liouvillian_blocks_match_the_assembled_superoperator():
    from fgkls import vectorize_liouvillian

    for name in ("compare-osc32", "compare-dense32", "evolve-2lvl"):
        spectrum, jumps = build_model(make_config(name, 0))
        nz = vectorize_liouvillian(spectrum, jumps).matrix != 0
        n = nz.shape[0]
        i, j = np.nonzero(nz | nz.T)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(i.tolist(), j.tolist()):
            parent[find(a)] = find(b)
        components = len({find(x) for x in range(n)})
        assert liouvillian_blocks(spectrum, jumps) == components, name


if __name__ == "__main__":
    failed = 0
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS {test_name}")
            except Exception as err:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {test_name}: {err!r}")
    raise SystemExit(1 if failed else 0)
