"""Environment record attached to every benchmark result (read-only probes)."""

from __future__ import annotations

import ctypes
import os
import platform


def steal_ticks() -> int | None:
    """Cumulative steal time of all CPUs from /proc/stat, in clock ticks."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _openblas() -> dict:
    """Version string and thread count of the OpenBLAS numpy loaded, if any."""
    info: dict = {"config": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                return {"config": get_config().decode(), "threads": get_threads()}
    return info


def environment(steal_before: int | None, steal_after: int | None) -> dict:
    import numpy as np

    blas = _openblas()
    ticks = os.sysconf("SC_CLK_TCK")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas["config"],
        "blas_threads": blas["threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "steal_s": (steal_after - steal_before) / ticks
        if steal_before is not None and steal_after is not None else None,
    }
