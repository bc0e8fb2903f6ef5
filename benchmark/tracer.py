"""Span tracer that wraps the public functions of `fgkls` from outside.

Nothing under `src/` is edited.  Each hook rebinds a name where its caller
looks it up (for example `fgkls.cli.run_pointer_scheme`, which `cmd_*`
reaches through the `fgkls.cli` module globals), so a refactor that keeps a
public name keeps its span.  A name that no longer exists is skipped and
reported as absent; a class is never replaced by a function (that breaks
`isinstance`), so `DensityMatrix` validations are counted by wrapping its
`__post_init__`.

A span records (name, start_ns, end_ns, parent index); spans stay in memory
and are written out once, when the job exits.  Self times are computed
afterwards by `self_times`.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name).  The module is where the caller looks the
# name up; `COMMANDS` is the dict `fgkls.cli.main` dispatches through.
SPAN_HOOKS = [
    ("fgkls.cli", "load_config", "cli.load_config"),
    ("fgkls.cli", "COMMANDS", "cli.command"),
    ("fgkls.cli", "build_oscillator_spin", "models.build"),
    ("fgkls.cli", "build_two_level", "models.build"),
    ("fgkls.cli", "run_pointer_scheme", "perturbation.scheme"),
    ("fgkls.perturbation", "offdiag_next_deg", "perturbation.closed_form"),
    ("fgkls.perturbation", "offdiag_next_nondeg", "perturbation.closed_form"),
    ("fgkls.perturbation", "assemble_internal_system_deg", "perturbation.assemble"),
    ("fgkls.perturbation", "assemble_diagonal_system_nondeg", "perturbation.assemble"),
    ("fgkls.perturbation", "solve_with_rank_check", "perturbation.solve"),
    ("fgkls.perturbation", "apply_trace_condition", "perturbation.trace_condition"),
    ("fgkls.cli", "steady_state_basis", "exact.steady_state"),
    ("fgkls.cli", "integrate_trajectory", "exact.integrate"),
    ("fgkls.cli", "hermitian_affine_distance", "exact.distance"),
    ("fgkls.cli", "point_to_affine_distance", "exact.distance"),
    ("fgkls.cli", "vectorize_liouvillian", "core.vectorize_liouvillian"),
    ("fgkls.cli", "stationarity_residual", "core.stationarity_residual"),
    ("fgkls.core.DensityMatrix", "__post_init__", "core.density_matrix"),
]

# (module, attribute, counter name): calls counted, no span.
COUNT_HOOKS = [
    ("fgkls.perturbation", "dissipator", "perturbation.dissipator_calls"),
]

STEADY_SPAN = "exact.steady_state"


def _resolve(path: str):
    """Import `a.b.C` as module `a.b` attribute `C`, or a plain module path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []          # [name, start_ns, end_ns, parent]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.clock(), 0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self._open[name] = self._open.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                self._stack.pop()
                self._open[name] -= 1
        return traced

    def counting(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)
        return counted

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def _rebind(self, owner_path: str, attr: str, make) -> None:
        label = f"{owner_path}.{attr}"
        try:
            owner = _resolve(owner_path)
        except (ImportError, AttributeError):
            self.absent.append(label)
            return
        target = getattr(owner, attr, None)
        if isinstance(target, dict):
            for key, fn in list(target.items()):
                target[key] = make(fn)
        elif callable(target) and not isinstance(target, type):
            setattr(owner, attr, make(target))
        else:
            self.absent.append(label)

    def install(self) -> None:
        """Wrap every hook that exists in the imported `fgkls`."""
        for owner, attr, name in SPAN_HOOKS:
            self._rebind(owner, attr, functools.partial(self.wrap, name))
        for owner, attr, name in COUNT_HOOKS:
            self._rebind(owner, attr, functools.partial(self.counting, name))
        self._install_svd_counter()

    def _install_svd_counter(self) -> None:
        # Computed, not measured: sum of m*n*min(m, n) over the SVDs taken
        # inside steady_state_basis, and the largest min(m, n) (number of
        # singular values) among them.
        import numpy.linalg as la

        svd = la.svd

        @functools.wraps(svd)
        def counted_svd(a, *args, **kwargs):
            if self.inside(STEADY_SPAN):
                shape = getattr(a, "shape", ())
                if len(shape) >= 2:
                    m, n = shape[-2:]
                    batch = 1
                    for k in shape[:-2]:
                        batch *= k
                    self.add("exact.svd_ops_computed", batch * m * n * min(m, n))
                    self.counts["exact.svd_dim_max"] = max(
                        self.counts.get("exact.svd_dim_max", 0), min(m, n))
            return svd(a, *args, **kwargs)

        la.svd = counted_svd

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out
