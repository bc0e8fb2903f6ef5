"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workloads all --seeds 0-9 [--trace 0] [--out FILE]

Each run is `python3 benchmark/run.py --workload W --seed N --seconds S
--trace T` from the checkout root, as BENCHMARK.json's command.  For every
workload and metric it prints the median over the seeds and the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median, next to the metric's bound, plus each run's wall time.
With `--out` it writes the same numbers as JSON; `baseline.json` is such a
file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, float]:
    argv = [sys.executable if a == "python3" else a for a in spec["command"]]
    argv += ["--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} seed {seed}: result keys {sorted(result)}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit(f"{workload} seed {seed}: metric {m['name']} missing or wrong unit")
    return result, record, wall


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in names:
        runs = []
        for seed in _seeds(args.seeds):
            result, record, wall = one_run(spec, workload, seed, args.trace)
            runs.append((seed, result, record, wall))
            print(f"{workload} seed {seed}: correct {result['correct']} jobs "
                  f"{result['attempted']} failed {result['failed']} wall {wall:.1f} s "
                  f"steal {record['environment']['steal_s']}", file=sys.stderr, flush=True)
        entry = {"seeds": [r[0] for r in runs], "run_wall_s": [r[3] for r in runs],
                 "all_correct": all(r[1]["correct"] for r in runs),
                 "environment": runs[-1][2]["environment"], "metrics": {}}
        for metric in runs[0][1]["metrics"]:
            values = [r[1]["metrics"][metric]["value"] for r in runs]
            entry["metrics"][metric] = {
                "unit": runs[0][1]["metrics"][metric]["unit"],
                "median": statistics.median(values),
                "quartile_spread": spread(values) if len(values) >= 2 else None,
                "values": values,
            }
        summary["workloads"][workload] = entry
        print(f"{workload}: all correct {entry['all_correct']}, run wall "
              f"{min(entry['run_wall_s']):.1f}-{max(entry['run_wall_s']):.1f} s")
        print("  job main s per seed: " + "; ".join(
            " ".join(f"{j['main_s']:.2f}" for j in r[2]["jobs"] if "main_s" in j) for r in runs))
        for metric, m in entry["metrics"].items():
            bound = bounds.get(metric)
            sp = m["quartile_spread"]
            flag = "" if bound is None or sp is None else (
                "  ok" if sp < bound / 3 else "  WITHIN" if sp <= bound else "  OVER")
            print(f"  {metric:34s} median {m['median']:<12.6g} {m['unit']:7s} spread "
                  f"{'-' if sp is None else f'{sp:.4f}'}"
                  f"{'' if bound is None else f' / bound {bound}'}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
