"""One benchmark job: a fresh interpreter that imports `fgkls.cli` and calls `main`.

    python3 benchmark/launcher.py RESULT.json [--trace] -- <fgkls arguments>

Every user invocation of `fgkls` pays interpreter start and import, so each
job is its own process.  The launcher reads the monotonic clock first, then
imports `fgkls.cli` (found through PYTHONPATH, which the benchmark points at
the checkout's `src`), then calls `fgkls.cli.main(argv)` unchanged.  With
`--trace` it installs `tracer.Tracer` after the timed import.  It writes the
clock readings, the exit code, its own peak RSS (VmHWM) and, when traced, the spans
to RESULT.json.  Its own exit status is 0 whenever RESULT.json was written.
"""

import time

T_START = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import sys  # noqa: E402

import fgkls.cli  # noqa: E402

T_IMPORTED = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    """Peak resident set of this process since exec.

    On Linux, ru_maxrss also carries the RSS the parent had when it forked
    this process, so the benchmark's own memory would leak into the job's
    figure; VmHWM in /proc/self/status counts this process's memory only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run() -> dict:
    import json
    import os
    import traceback

    sep = sys.argv.index("--")
    result_path, flags, argv = sys.argv[1], sys.argv[2:sep], sys.argv[sep + 1:]
    tracer = None
    main = fgkls.cli.main
    if "--trace" in flags:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", main)

    record = {"t_start": T_START, "t_imported": T_IMPORTED,
              "t_main_start": time.clock_gettime_ns(time.CLOCK_MONOTONIC)}
    try:
        record["exit_code"] = main(argv)
    except SystemExit as err:
        record["exit_code"] = err.code
    except Exception:  # the job's failure is data for the checker, not a crash here
        record["exit_code"] = None
        record["error"] = traceback.format_exc()
    record["t_main_end"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    record["maxrss_kb"] = _peak_rss_kb()
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record


if __name__ == "__main__":
    if len(sys.argv) == 1:
        # Start-up probe: report the clock readings and stop before any job.
        print(f'{{"t_start": {T_START}, "t_imported": {T_IMPORTED}}}')
    else:
        _run()
