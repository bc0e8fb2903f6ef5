"""The fgkls benchmark: `fgkls` CLI jobs, one at a time, from one client.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  The workload's config is generated from
the seed (`workloads.py`); each job is a fresh interpreter running
`launcher.py`, which times `import fgkls.cli` and then calls
`fgkls.cli.main(argv)` on that config.  Jobs are started back to back until
`--seconds` have passed (closed loop, one client), and every job's output is
checked (`check.py`) outside the timed region.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates plain
and traced jobs, adds one traced job with one BLAS thread (informational),
and reports the per-layer metrics from the traced jobs.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is the full record (environment, workload
properties, per-job samples, reference mismatches).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(ROOT, ".bench_work")

# A run must end within 180 s; jobs still running at this point are killed.
HARD_LIMIT_S = 165.0
# Errors below the precision of a double read as 16 digits.
ERROR_FLOOR = 1e-16
LAYERS = ("cli", "perturbation", "exact", "core", "models")
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


T0_NS = _now()


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import `fgkls` from the checkout's `src`, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "fgkls", "cli.py")):
        _fail(f"no program to measure: {os.path.join(SRC, 'fgkls', 'cli.py')} is missing")
    sys.path.insert(0, SRC)
    import fgkls.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(fgkls.cli.__file__))) != SRC:
        _fail(f"fgkls imported from {fgkls.cli.__file__}, not from {SRC}")


class WorkloadRun:
    """One workload's config, its reference and the jobs run on it."""

    def __init__(self, workload: str, seed: int, reference: dict | None):
        from check import properties
        from workloads import WORKLOADS, make_config

        self.command = WORKLOADS[workload].command
        self.config = make_config(workload, seed)
        self.properties = properties(self.config, self.command)
        self.dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.reference = reference
        self.jobs: list[dict] = []
        self.checked: dict[str, dict] = {}
        self.setups: list[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    def start_up(self) -> float:
        """Spawn the launcher without a job: seconds from spawn until `fgkls.cli` is imported."""
        t_spawn = _now()
        probe = subprocess.run([sys.executable, LAUNCHER], env=self.env, capture_output=True,
                               check=True, timeout=60)
        return (json.loads(probe.stdout)["t_imported"] - t_spawn) / 1e9

    def run_job(self, kind: str, deadline_ns: int) -> dict:
        """Spawn one job ("plain", "traced" or "blas1"), wait for it, check it."""
        from check import check_job

        idx = len(self.jobs)
        out = os.path.join(self.dir, f"job{idx}")
        result_path = out + ".result.json"
        argv = [sys.executable, LAUNCHER, result_path]
        if kind != "plain":
            argv.append("--trace")
        argv += ["--", self.command, self.config_path, "--out", out]
        env = dict(self.env, **BLAS1_ENV) if kind == "blas1" else self.env
        job = {"kind": kind}
        with open(out + ".stderr", "wb") as err:
            t_spawn = _now()
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=max(1.0, (deadline_ns - t_spawn) / 1e9))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                job["timed_out"] = True
            t_exit = _now()
        job["wall_s"] = (t_exit - t_spawn) / 1e9
        record = {}
        try:
            with open(result_path, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            job["launcher_failed"] = open(out + ".stderr", "rb").read()[-2000:].decode(errors="replace")
        exit_code = record.get("exit_code", "no result")
        if record:
            job["setup_s"] = (record["t_imported"] - t_spawn) / 1e9
            job["main_s"] = (record["t_main_end"] - record["t_main_start"]) / 1e9
            job["maxrss_mb"] = record["maxrss_kb"] / 1024.0
            if "error" in record:
                job["traceback"] = record["error"][-2000:]
        expected = self.reference["structure"] if self.reference else {}
        t_check = _now()
        job["check"] = check_job(out, exit_code, self.config, self.command, expected,
                                 self.checked)
        job["check_s"] = (_now() - t_check) / 1e9
        job["passed"] = job["check"]["passed"] and bool(record) and not job.get("timed_out")
        if record.get("trace") is not None:
            job["layers"] = layer_metrics(record["trace"], job, self.properties)
            job["absent_hooks"] = record["trace"]["absent"]
        shutil.rmtree(out, ignore_errors=True)
        for path in (result_path, out + ".stderr"):
            if os.path.exists(path):
                os.unlink(path)
        self.jobs.append(job)
        return job

    def run(self, seconds: float, kinds: list[str], repeat: list[str], deadline: int,
            probe: bool = False) -> None:
        """Run every job of `kinds`, then cycle through `repeat` until `seconds` have passed.

        With `probe`, each job is followed by one start-up probe, so set-up
        time has twice as many samples as there are jobs.
        """
        start = _now()
        for n in itertools.count():
            if n < len(kinds):
                kind = kinds[n]
            elif (_now() - start) / 1e9 < seconds:
                kind = repeat[(n - len(kinds)) % len(repeat)]
            else:
                break
            job = self.run_job(kind, deadline)
            if job.get("timed_out") or _now() >= deadline:
                break
            if probe:
                self.setups.append(self.start_up())


def layer_metrics(trace: dict, job: dict, props: dict) -> dict:
    """Per-layer numbers of one traced job, from its spans and counters."""
    from tracer import self_times

    spans = trace["spans"]
    selfs = self_times(spans)
    incl: dict[str, int] = {}
    own: dict[str, int] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), self_ns in zip(spans, selfs):
        incl[name] = incl.get(name, 0) + (end - start)
        own[name] = own.get(name, 0) + self_ns
        calls[name] = calls.get(name, 0) + 1
    counts = trace["counts"]

    def s(table, name):
        return table.get(name, 0) / 1e9

    steps = props["rk4_steps"]
    out = {
        "cli.main_self_s": s(own, "cli.main"),
        "cli.command_self_s": s(own, "cli.command"),
        "cli.load_config_s": s(incl, "cli.load_config"),
        "cli.bytes_written": job["check"]["bytes_written"],
        "perturbation.scheme_s": s(incl, "perturbation.scheme"),
        "perturbation.closed_form_s": s(incl, "perturbation.closed_form"),
        "perturbation.assemble_s": s(incl, "perturbation.assemble"),
        "perturbation.solve_s": s(incl, "perturbation.solve"),
        "perturbation.trace_condition_s": s(incl, "perturbation.trace_condition"),
        "perturbation.orders": job["check"].get("orders", 0),
        "perturbation.dissipator_calls": counts.get("perturbation.dissipator_calls", 0),
        "exact.steady_state_s": s(incl, "exact.steady_state"),
        "exact.steady_state_calls": calls.get("exact.steady_state", 0),
        "exact.svd_dim_max": counts.get("exact.svd_dim_max", 0),
        "exact.svd_ops_computed": counts.get("exact.svd_ops_computed", 0),
        "exact.integrate_s": s(incl, "exact.integrate"),
        "exact.rk4_step_us": incl.get("exact.integrate", 0) / 1e3 / steps if steps else 0.0,
        "exact.distance_s": s(incl, "exact.distance"),
        "core.vectorize_liouvillian_s": s(incl, "core.vectorize_liouvillian"),
        "core.density_matrix_checks": calls.get("core.density_matrix", 0),
        "core.density_matrix_s": s(incl, "core.density_matrix"),
        "core.stationarity_residual_s": s(incl, "core.stationarity_residual"),
        "models.build_s": s(incl, "models.build"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in own.items() if k.startswith(layer + ".")) / 1e9
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(jobs: list[dict], probes: list[float]) -> dict:
    timed = [j for j in jobs if "main_s" in j]
    passed = [j for j in jobs if j["passed"]]
    errors = [j["check"]["error"] for j in passed if j["check"]["error"] is not None]
    return {
        "setup_s": _median([j["setup_s"] for j in timed] + probes),
        "job_p50_s": _median([j["main_s"] for j in timed]),
        "jobs_per_s": len(passed) / sum(j["wall_s"] for j in jobs),
        "peak_rss_mb": _median([j["maxrss_mb"] for j in timed]),
        "accuracy_digits": min((-math.log10(max(e, ERROR_FLOOR)) for e in errors), default=0.0),
        "passed_ratio": len(passed) / len(jobs),
    }


def per_layer(jobs: list[dict]) -> dict:
    traced = [j for j in jobs if j["kind"] == "traced" and "layers" in j]
    plain = [j["main_s"] for j in jobs if j["kind"] == "plain" and "main_s" in j]
    blas1 = [j for j in jobs if j["kind"] == "blas1" and "layers" in j]
    out = {}
    for name in (traced[0]["layers"] if traced else {}):
        out[name] = _median([j["layers"][name] for j in traced])
    traced_main = _median([j["main_s"] for j in traced])
    out["trace.overhead_ratio"] = traced_main / _median(plain) if plain else 0.0
    if blas1:
        out["blas1.job_s"] = blas1[0]["main_s"]
        for layer in LAYERS:
            out[f"blas1.layer.{layer}.self_s"] = blas1[0]["layers"][f"layer.{layer}.self_s"]
    return out


def _units() -> dict:
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: int) -> dict:
    from envinfo import environment, steal_ticks

    units = _units()
    reference = load_reference().get(workload)
    wrun = WorkloadRun(workload, seed, reference)
    try:
        wrun.start_up()  # untimed: .pyc files and the page cache get in place
        steal_before = steal_ticks()
        if trace:
            wrun.run(seconds, ["plain", "traced", "blas1"], ["plain", "traced"], deadline)
            metrics = per_layer(wrun.jobs)
        else:
            wrun.run(seconds, ["plain"], ["plain"], deadline, probe=True)
            metrics = end_to_end(wrun.jobs, wrun.setups)
        steal_after = steal_ticks()
    finally:
        wrun.close()
    jobs = wrun.jobs
    failed = [j for j in jobs if not j["passed"]]
    props_ok = reference is None or all(
        wrun.properties[k] == v for k, v in reference["properties"].items())
    recorded = (reference or {}).get("sha256", {}).get(str(seed))
    shas = [j["check"]["sha256"] for j in jobs if j["check"]["sha256"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(steal_before, steal_after),
        "properties": wrun.properties,
        "properties_match_reference": props_ok,
        "report_sha256": sorted(set(shas)),
        "reference_sha256": recorded,
        "sha256_mismatches": sum(1 for h in shas if recorded and h != recorded),
        "absent_hooks": sorted({h for j in jobs for h in j.get("absent_hooks", [])}),
        "jobs": [_job_summary(j) for j in jobs],
        "setup_probes_s": wrun.setups,
        "failures": [j["check"]["problems"] or j.get("traceback") for j in failed][:5],
    }
    result = {
        "correct": not failed and props_ok and reference is not None,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"record": record, "result": result}


def _job_summary(job: dict) -> dict:
    out = {k: v for k, v in job.items() if k != "layers"}
    out["check"] = {k: v for k, v in job["check"].items() if k != "structure"}
    return out


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _table(workload: str, metrics: dict) -> str:
    lines = [f"{workload}:"]
    for name, m in metrics.items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    if args.workload != "all":
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           T0_NS + int(HARD_LIMIT_S * 1e9))
        print(_table(args.workload, out["result"]["metrics"]), file=sys.stderr)
        print(json.dumps(out["record"]))
        print(json.dumps(out["result"]))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           _now() + int(HARD_LIMIT_S * 1e9))
        res = out["result"]
        print(_table(name, res["metrics"]))
        print(f"  jobs {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    raise SystemExit(main())
