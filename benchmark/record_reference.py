"""Record the structural reference the checker compares every job against.

    python3 benchmark/record_reference.py [--seeds 20]

Runs one plain job per workload and seed, checks its numeric errors against
the config's thresholds, and requires every seed of a workload to give the
same report structure (branch, degeneracy classes, per-order ranks and free
directions, kernel dimension per lambda) and the same workload properties.
Writes `benchmark/reference.json`: per workload the structure, the
properties, and the sha256 of report.json per seed.  Run it at the commit
whose behaviour is the reference; later runs report a differing sha256 as a
count, not as a failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def record(workload: str, seeds: range) -> dict:
    entry = {"structure": None, "properties": None, "sha256": {}}
    for seed in seeds:
        wrun = run.WorkloadRun(workload, seed, reference=None)
        try:
            job = wrun.run_job("plain", run._now() + int(run.HARD_LIMIT_S * 1e9))
        finally:
            wrun.close()
        check = job["check"]
        if not job["passed"]:
            raise SystemExit(f"{workload} seed {seed}: job failed: {check['problems']}")
        for key, value in (("structure", check["structure"]),
                           ("properties", wrun.properties)):
            if entry[key] is None:
                entry[key] = value
            elif entry[key] != value:
                raise SystemExit(f"{workload} seed {seed}: {key} differs from seed "
                                 f"{seeds[0]}: {value} != {entry[key]}")
        entry["sha256"][str(seed)] = check["sha256"]
        print(f"{workload} seed {seed}: ok, main {job['main_s']:.2f} s", file=sys.stderr)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    run._import_program()
    reference = {name: record(name, range(args.seeds)) for name in WORKLOADS}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
