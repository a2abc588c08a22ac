"""Per-layer tracing from outside the program.

The benchmark wraps each layer's public entry point at the name its caller
looks up, records a span per call, and derives self time: a span's
duration minus the time its direct child spans (on the same thread)
cover.  Self times of all spans of a request therefore add up to the time
spent inside traced layers, and whatever is left of the request's wall
time is reported as unattributed.  Nothing here runs in untraced runs:
the wrappers are installed for the traced phase and removed after it.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import Counter, defaultdict


class LayerTracer:
    """Thread-aware span stack with self-time and work-count aggregates."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        #: work counts recorded at the same boundaries (rows, configs, ...)
        self.counts: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        frame = [layer, self.clock(), 0.0]  # name, start, child seconds
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = self.clock() - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.calls[frame[0]] += 1
            self.self_s[frame[0]] += duration - frame[2]

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def attributed_s(self) -> float:
        with self._lock:
            return math.fsum(self.self_s.values())

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.self_s.clear()
            self.counts.clear()


def _fit_rows(args, result):
    return {"surf.fit.fits": 1, "surf.fit.rows": len(args[1])}


def _predict_rows(args, result):
    return {"surf.predict.rows": len(args[1])}


def _evaluate_configs(args, result):
    # Invalid configurations score the finite penalty: not useful.
    from repro.surf.evaluator import PENALTY_SECONDS

    return {
        "surf.evaluate.configs": len(args[1]),
        "surf.evaluate.useful": sum(
            1 for y in result if math.isfinite(y) and y < PENALTY_SECONDS
        ),
    }


def _store_hits(args, result):
    return {"serve.store_get.hits": result is not None}


#: (module, class or None, attribute, layer, work counter of (args, result))
PATCHES = (
    ("repro.workloads.spectral", None, "parse_contraction", "dsl.parse", None),
    ("repro.workloads.tce", None, "parse_contraction", "dsl.parse", None),
    ("repro.serve.client", None, "parse_contraction", "dsl.parse", None),
    ("repro.autotune.tuner", None, "compile_contraction", "core.compile", None),
    ("repro.autotune.tuner", None, "decide_search_space", "tcr.decide", None),
    ("repro.gpusim.timing_table", "ProgramTimingTable", "build",
     "gpusim.table_build", None),
    ("repro.gpusim.perfmodel", "GPUPerformanceModel", "program_timing",
     "gpusim.program_timing", None),
    ("repro.tcr.space", "TuningSpace", "sample_ids", "surf.pool", None),
    ("repro.autotune.tuner", None, "SpacePool", "surf.pool", None),
    ("repro.surf.pool", "SpacePool", "design_matrix", "surf.encode", None),
    ("repro.surf.search", None, "pool_codes", "surf.codes", None),
    ("repro.surf.forest", "ExtraTreesRegressor", "fit", "surf.fit", _fit_rows),
    ("repro.surf.forest", "ExtraTreesRegressor", "make_router", "surf.fit", None),
    ("repro.surf.forest", "PoolRouter", "predict", "surf.predict", _predict_rows),
    ("repro.surf.forest", "ExtraTreesRegressor", "predict", "surf.predict",
     _predict_rows),
    ("repro.surf.evaluator", "ConfigurationEvaluator", "evaluate_batch",
     "surf.evaluate", _evaluate_configs),
    ("repro.surf.separable", "SeparableExhaustiveSearch", "search",
     "surf.sweep", None),
    ("repro.autotune.tuner", "Autotuner", "run_manifest", "autotune.manifest", None),
    ("repro.autotune.tuner", "Autotuner", "tune_contraction", "autotune.request", None),
    ("repro.autotune.tuner", "Autotuner", "tune_program", "autotune.request", None),
    ("repro.serve.store", "ResultStore", "__init__", "serve.store_open", None),
    ("repro.serve.store", "ResultStore", "get", "serve.store_get", _store_hits),
    ("repro.serve.store", "ResultStore", "put", "serve.store_put", None),
    ("repro.serve.service", "TuningService", "submit", "serve.submit", None),
)

#: Layers reported per request (calls and self seconds each).
LAYERS = (
    "dsl.parse",
    "core.compile",
    "tcr.decide",
    "gpusim.table_build",
    "gpusim.program_timing",
    "surf.pool",
    "surf.encode",
    "surf.codes",
    "surf.fit",
    "surf.predict",
    "surf.evaluate",
    "surf.sweep",
    "autotune.manifest",
    "serve.submit",
    "serve.store_get",
    "serve.store_put",
)


def _wrap(fn, tracer: LayerTracer, layer: str, counter):
    @functools.wraps(fn, updated=())
    def traced(*args, **kwargs):
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if counter is not None:
            for name, amount in counter(args, result).items():
                tracer.count(name, amount)
        return result

    return traced


class Installed:
    """The wrappers of :data:`PATCHES`; :meth:`remove` restores every name."""

    def __init__(self, tracer: LayerTracer, patches=PATCHES) -> None:
        self._restore: list = []
        try:
            for module_name, class_name, attr, layer, counter in patches:
                self._install(tracer, module_name, class_name, attr, layer, counter)
        except BaseException:
            self.remove()
            raise

    def _install(self, tracer, module_name, class_name, attr, layer, counter):
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
            # The raw descriptor, so classmethods and inherited methods
            # are restored exactly (an inherited name is deleted again).
            original = owner.__dict__.get(attr)
            current = getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(current.__func__, tracer, layer, counter))
            else:
                wrapped = _wrap(current, tracer, layer, counter)
        else:
            original = owner.__dict__[attr]
            wrapped = _wrap(original, tracer, layer, counter)
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
