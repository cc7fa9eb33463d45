"""Spans and counts recorded around the program's public functions.

The solvers import their helpers by name (``from .fem import
assemble_stiffness``), so a wrapper has to replace the name in every module
that looks it up, not only where the function is defined. ``Tracer.install``
does that for the sites in ``SITES`` and ``uninstall`` puts the originals
back. Spans stay in memory; ``per_layer_metrics`` turns them into the
numbers the benchmark prints.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time

import numpy as np

# (span name, [(module path, attribute), ...]); a name listed once per module
# that looks it up. An attribute of the form "PROBLEMS[cantilever]" patches
# the solver slot of that registry entry.
SITES = [
    ("fem.assemble_stiffness", [("toacnn.cantilever", "assemble_stiffness"),
                                ("toacnn.pressure", "assemble_stiffness")]),
    ("fem.solve_many", [("toacnn.fem", "solve_many"), ("toacnn.pressure", "solve_many"),
                        ("toacnn.microstructure", "solve_many")]),
    ("fem.splu", [("scipy.sparse.linalg", "splu")]),
    ("fem.compliance", [("toacnn.cantilever", "compliance"), ("toacnn.pressure", "compliance")]),
    ("optimize.build_filter", [("toacnn.cantilever", "build_filter"),
                               ("toacnn.pressure", "build_filter"),
                               ("toacnn.microstructure", "build_filter")]),
    ("optimize.sensitivity_filter", [("toacnn.cantilever", "sensitivity_filter"),
                                     ("toacnn.pressure", "sensitivity_filter"),
                                     ("toacnn.microstructure", "sensitivity_filter")]),
    ("optimize.oc_update", [("toacnn.cantilever", "oc_update"),
                            ("toacnn.microstructure", "oc_update")]),
    ("optimize.mma_update", [("toacnn.pressure", "mma_update")]),
    ("pressure.assemble_darcy", [("toacnn.pressure", "assemble_darcy")]),
    ("pressure.pressure_to_loads", [("toacnn.pressure", "pressure_to_loads")]),
    ("pressure.arch_sensitivities", [("toacnn.pressure", "arch_sensitivities")]),
    ("microstructure.homogenize", [("toacnn.microstructure", "homogenize")]),
    ("opt.solve", [("toacnn.cantilever", "solve_cantilever"),
                   ("toacnn.dataset", "PROBLEMS[cantilever]"),
                   ("toacnn.dataset", "PROBLEMS[arch]"),
                   ("toacnn.dataset", "PROBLEMS[micro]")]),
    ("opt.evaluate", [("toacnn.cantilever", "evaluate_cantilever"),
                      ("toacnn.pressure", "evaluate_arch"),
                      ("toacnn.microstructure", "evaluate_micro")]),
    ("dataset.write_pgm_file", [("toacnn.dataset", "write_pgm_file")]),
    ("dataset.write_manifest", [("toacnn.dataset", "write_manifest")]),
    ("dataset.atomic_write", [("toacnn.dataset", "atomic_write")]),
    ("dataset.load_samples", [("toacnn.dataset", "load_samples")]),
    ("model.forward", [("toacnn.neural.training", "forward"), ("toacnn.neural.model", "forward")]),
    ("model.backward", [("toacnn.neural.training", "backward")]),
    ("training.adam_step", [("toacnn.neural.training", "adam_step")]),
    ("checkpoint.save", [("toacnn.neural.checkpoint", "save_checkpoint_file")]),
    ("checkpoint.load", [("toacnn.neural.checkpoint", "load_checkpoint_file")]),
    ("metrics.volume_error", [("toacnn.metrics", "volume_error")]),
] + [
    (f"layers.{op}_{way}", [("toacnn.neural.model", f"{op}_{way}")])
    for op in ("conv2d", "maxpool", "dense", "tconv", "relu")
    for way in ("forward", "backward")
]

# Per-layer metric -> (span, statistic). "median" and "median_self" are per
# call; "per_forward"/"per_backward" divide the span's total time by the
# number of model forward/backward passes, i.e. they are per sample.
TIMED = {
    "fem.assemble_stiffness_ms": ("fem.assemble_stiffness", "median"),
    "fem.solve_many_self_ms": ("fem.solve_many", "median_self"),
    "fem.splu_ms": ("fem.splu", "median"),
    "fem.compliance_ms": ("fem.compliance", "median"),
    "optimize.build_filter_ms": ("optimize.build_filter", "median"),
    "optimize.sensitivity_filter_ms": ("optimize.sensitivity_filter", "median"),
    "optimize.oc_update_ms": ("optimize.oc_update", "median"),
    "optimize.mma_update_ms": ("optimize.mma_update", "median"),
    "pressure.assemble_darcy_ms": ("pressure.assemble_darcy", "median"),
    "pressure.pressure_to_loads_ms": ("pressure.pressure_to_loads", "median"),
    "pressure.arch_sensitivities_self_ms": ("pressure.arch_sensitivities", "median_self"),
    "microstructure.homogenize_self_ms": ("microstructure.homogenize", "median_self"),
    "dataset.write_pgm_file_ms": ("dataset.write_pgm_file", "median"),
    "dataset.write_manifest_ms": ("dataset.write_manifest", "median"),
    "dataset.load_samples_ms": ("dataset.load_samples", "median"),
    **{
        f"layers.{op}_{way}_ms": (f"layers.{op}_{way}", f"per_{way}")
        for op in ("conv2d", "maxpool", "dense", "tconv", "relu")
        for way in ("forward", "backward")
    },
    "model.forward_ms": ("model.forward", "median"),
    "model.backward_ms": ("model.backward", "median"),
    "training.adam_step_ms": ("training.adam_step", "median"),
    "checkpoint.save_ms": ("checkpoint.save", "median"),
    "checkpoint.load_ms": ("checkpoint.load", "median"),
    "metrics.volume_error_ms": ("metrics.volume_error", "median"),
}

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = [(name, "ms", "lower") for name in TIMED] + [
    ("fem.splu_calls_per_iter", "calls/iter", "lower"),
    ("fem.backsolves_per_rhs", "solves/rhs", "lower"),
    ("fem.lu_fill_nnz", "count", "lower"),
    ("dataset.bytes_written", "bytes/design", "lower"),
]


def _resolve(module_path: str, attr: str):
    """(current function, setter) for one patch site."""
    module = importlib.import_module(module_path)
    if attr.endswith("]"):
        table, key = attr[:-1].split("[")
        registry = getattr(module, table)
        cfg_type, fn = registry[key]

        def setter(new, registry=registry, key=key, cfg_type=cfg_type):
            registry[key] = (cfg_type, new)

        return fn, setter

    fn = getattr(module, attr)
    return fn, lambda new: setattr(module, attr, new)


class _CountingLU:
    """Stands in for a SuperLU object and counts its back-solves."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("backsolves")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder: per-name durations, self times, and counts."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.self_times: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.lu_fill: int | None = None
        self._stack: list[list] = []  # [name, child seconds]
        self._restore: list = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
            self.durations.setdefault(name, []).append(dt)
            self.self_times.setdefault(name, []).append(dt - frame[1])

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name == "fem.solve_many":
                rhs = args[1] if len(args) > 1 else kwargs["rhs_columns"]
                tracer.count("rhs", np.atleast_2d(np.asarray(rhs)).shape[0])
            elif name == "dataset.atomic_write":
                tracer.count("bytes", len(args[1]))
            elif name == "fem.splu" and tracer._active("opt.solve") and not tracer._active("opt.evaluate"):
                tracer.count("splu_in_iterations")
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if name == "fem.splu":
                if tracer.lu_fill is None:
                    with tracer.span("trace.lu_fill"):
                        tracer.lu_fill = int(out.L.nnz + out.U.nnz)
                return _CountingLU(out, tracer)
            if name == "opt.solve":
                tracer.count("iterations", out.iterations)
                tracer.count("designs")
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, sites in SITES:
            for module_path, attr in sites:
                fn, setter = _resolve(module_path, attr)
                setter(self._wrap(name, fn))
                self._restore.append((setter, fn))

    def uninstall(self) -> None:
        while self._restore:
            setter, fn = self._restore.pop()
            setter(fn)

    def per_layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never entered reads 0."""
        forwards = len(self.durations.get("model.forward", []))
        backwards = len(self.durations.get("model.backward", []))
        out: dict[str, float] = {}
        for metric, (span, stat) in TIMED.items():
            durs = self.durations.get(span, [])
            if not durs:
                out[metric] = 0.0
            elif stat == "median":
                out[metric] = 1e3 * statistics.median(durs)
            elif stat == "median_self":
                out[metric] = 1e3 * statistics.median(self.self_times[span])
            else:
                passes = forwards if stat == "per_forward" else backwards
                out[metric] = 1e3 * sum(durs) / passes
        c = self.counts
        iters = c.get("iterations", 0)
        rhs = c.get("rhs", 0)
        designs = c.get("designs", 0)
        out["fem.splu_calls_per_iter"] = c.get("splu_in_iterations", 0) / iters if iters else 0.0
        out["fem.backsolves_per_rhs"] = c.get("backsolves", 0) / rhs if rhs else 0.0
        out["fem.lu_fill_nnz"] = self.lu_fill or 0
        out["dataset.bytes_written"] = c.get("bytes", 0) / designs if designs else 0.0
        return out
