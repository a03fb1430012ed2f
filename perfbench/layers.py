"""Per-layer timing for the benchmark's traced runs.

The program is timed from outside: each layer's public entry points are
wrapped in place, and a :class:`Recorder` keeps a stack of open calls so a
layer's *self* time is its duration minus the time spent in wrapped calls
below it.  Nothing is wrapped until an :class:`Installation` is made, which
only the traced run does.

Several entry points are imported by value (``from .runner import
compute_schwarz``), so a wrapper is bound by identity: every attribute in
any loaded ``repro`` module that *is* the original function is rebound to
the wrapper.  Modules that are not loaded yet are wrapped as they load,
through an import hook, so tracing a command imports nothing the command
would not have imported itself.

The recorder is independent of ``repro.obs``: ``repro report`` installs its
own ``TraceCollector`` and that does not disturb these spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.abc
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, span name) for every wrapped entry point; the
#: first component of the span name is the layer
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "build_parser", "cli.parse"),
    ("repro.workloads.base", "Workload.make_request", "request.validate"),
    ("repro.workloads.base", "Workload.validate_params", "request.validate"),
    ("repro.workloads.cache", "run_cached", "cache.run"),
    ("repro.workloads.cache", "ResultCache.get", "cache.lookup"),
    ("repro.workloads.cache", "ResultCache.put", "cache.store"),
    ("repro.kernels.hartreefock.basis", "make_helium_system", "setup.helium"),
    ("repro.kernels.hartreefock.runner", "compute_schwarz", "setup.schwarz"),
    ("repro.kernels.hartreefock.runner", "surviving_quadruple_fraction",
     "setup.survivors"),
    ("repro.kernels.minibude.deck", "make_bm1", "setup.bm1"),
    ("repro.kernels.minibude.deck", "make_deck", "setup.deck"),
    ("repro.core.compiler", "compile_kernel", "compile"),
    ("repro.backends.base", "Backend.time", "model.time"),
    ("repro.gpu.timing", "KernelTimingModel.predict", "model.predict"),
    ("repro.core.device", "DeviceContext.synchronize", "verify.drain"),
    ("repro.core.device", "DeviceContext.enqueue_function", "verify.enqueue"),
    ("repro.core.device", "DeviceBuffer.copy_from_host", "verify.transfer"),
    ("repro.core.device", "DeviceBuffer.copy_to_host", "verify.transfer"),
    ("repro.gpu.executor", "KernelExecutor.launch", "verify.launch"),
    ("repro.kernels.stencil.reference", "*", "verify.reference"),
    ("repro.kernels.babelstream.reference", "*", "verify.reference"),
    ("repro.kernels.minibude.reference", "*", "verify.reference"),
    ("repro.kernels.hartreefock.reference", "*", "verify.reference"),
    ("repro.workloads.base", "Workload.lint_graph", "capture.graph"),
    ("repro.workloads.hartreefock", "HartreeFockWorkload.lint_graph",
     "capture.graph"),
    ("repro.workloads.minibude", "MiniBudeWorkload.lint_graph",
     "capture.graph"),
    ("repro.workloads.stencil", "StencilWorkload.tuning_probe",
     "capture.graph"),
    ("repro.workloads.babelstream", "BabelStreamWorkload.tuning_probe",
     "capture.graph"),
    ("repro.gpu.executor", "KernelExecutor.instantiate",
     "capture.instantiate"),
    ("repro.core.device", "DeviceGraph.replay", "replay"),
    ("repro.graphopt.passes", "optimize_graph", "graphopt.optimize"),
    ("repro.graphopt.lower", "lower_launch", "graphopt.lower"),
    ("repro.tuning.tuner", "Tuner.search", "tuning.search"),
    ("repro.tuning.model", "prune_space", "tuning.prune"),
    ("repro.analysis.lint", "run_lint", "analysis.lint"),
    ("repro.analysis.racecheck", "analyze_graph", "analysis.racecheck"),
    ("repro.analysis.regions", "concretize_launch", "analysis.regions"),
    ("repro.experiments", "run_experiment", "experiment"),
    ("repro.obs.export", "observability_markdown", "report.obs"),
    ("repro.harness.results", "ExperimentResult.to_markdown",
     "report.render"),
)

#: layers in report order; ``other`` is wall time outside every span
LAYERS = ("cli", "request", "cache", "setup", "compile", "model", "verify",
          "capture", "replay", "graphopt", "tuning", "analysis", "experiment",
          "report", "other")

#: spans whose distinct argument tuples are counted (recomputed setup)
DISTINCT = ("setup.schwarz", "setup.bm1")


def _value_key(obj):
    """Hashable stand-in for *obj* that compares by value."""
    import numpy as np      # loaded by repro by now; not imported up front

    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, obj.dtype.str,
                hashlib.sha1(np.ascontiguousarray(obj).tobytes()).hexdigest())
    if isinstance(obj, (list, tuple)):
        return tuple(_value_key(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _value_key(v)) for k, v in obj.items()))
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, _value_key(vars(obj)))
    return obj


class Recorder:
    """Self time, call counts and outcome counters per span name.

    Only calls on the thread that created the recorder are timed: the
    cooperative executor runs kernel lanes on worker threads, and timing
    those too would count the same wall time twice.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.distinct: Dict[str, set] = defaultdict(set)
        self._stack: List[List[float]] = []
        self._thread = threading.get_ident()

    def wrap(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != recorder._thread:
                return fn(*args, **kwargs)
            span = name
            if name == "experiment":
                experiment_id = args[0] if args else kwargs["experiment_id"]
                span = f"experiment.{experiment_id}"
            if name in DISTINCT:
                recorder.distinct[name].add(_value_key((args, kwargs)))
            frame = [0.0]
            recorder._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                recorder._stack.pop()
                if recorder._stack:
                    recorder._stack[-1][0] += elapsed
                recorder.self_s[span] += elapsed - frame[0]
                recorder.calls[span] += 1
            if observe is not None:
                observe(recorder.counts, result)
            return result

        wrapper._perfbench_original = fn
        return wrapper

    def summary(self) -> Dict[str, object]:
        """JSON-friendly totals (self times in ms)."""
        return {
            "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


def _observe_lookup(counts, result):
    counts["cache.hits" if result is not None else "cache.misses"] += 1


def _observe_launch(counts, result):
    counts["verify.launches"] += 1
    counts["verify.lowered"] += getattr(result, "mode", "") == "lowered"


def _observe_lower(counts, result):
    counts["graphopt.lower_attempts"] += 1
    counts["graphopt.lowered"] += result is not None


def _observe_search(counts, result):
    counts["tuning.measured"] += len(result.evaluations)


def _observe_prune(counts, result):
    counts["tuning.pruned"] += len(result.estimates) - len(result.kept)


_OBSERVERS = {
    "cache.lookup": _observe_lookup,
    "verify.launch": _observe_launch,
    "graphopt.lower": _observe_lower,
    "tuning.search": _observe_search,
    "tuning.prune": _observe_prune,
}


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Runs a callback on each target module right after it executes."""

    def __init__(self, modules, on_load: Callable):
        self.pending = set(modules)
        self.on_load = on_load

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        self.pending.discard(fullname)
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            self.on_load(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


class Installation:
    """Wraps every target for one recorder; :meth:`remove` undoes it."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.swaps: Dict[int, Tuple[Callable, Callable]] = {}
        by_module: Dict[str, list] = defaultdict(list)
        for module, attr, name in TARGETS:
            by_module[module].append((attr, name))
        self._by_module = by_module
        self.hook = _WrapOnImport(
            [m for m in by_module if m not in sys.modules], self._wrap_module)
        sys.meta_path.insert(0, self.hook)
        for module in list(by_module):
            if module in sys.modules:
                self._wrap_module(sys.modules[module])

    def _wrap_module(self, module) -> None:
        for attr, name in self._by_module[module.__name__]:
            if attr == "*":
                for key, value in list(vars(module).items()):
                    if (callable(value) and not isinstance(value, type)
                            and not key.startswith("_")
                            and getattr(value, "__module__", None)
                            == module.__name__):
                        self._add(value, name)
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            self._add(vars(holder)[leaf], name)
        self._rebind({id(o): w for o, w in self.swaps.values()})

    def _add(self, original: Callable, name: str) -> None:
        if id(original) not in self.swaps:
            self.swaps[id(original)] = (original,
                                        self.recorder.wrap(name, original))

    def remove(self) -> None:
        if self.hook in sys.meta_path:
            sys.meta_path.remove(self.hook)
        self._rebind({id(w): o for o, w in self.swaps.values()})

    @staticmethod
    def _rebind(mapping: Dict[int, Callable]) -> None:
        """Point every ``repro`` attribute bound to a key of *mapping* at its
        value: module globals and the attributes of classes they define."""
        for modname, module in list(sys.modules.items()):
            if module is None or modname.partition(".")[0] != "repro":
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in mapping:
                    namespace[key] = mapping[id(value)]
                elif isinstance(value, type) and value.__module__ == modname:
                    for attr, member in list(vars(value).items()):
                        if id(member) in mapping:
                            setattr(value, attr, mapping[id(member)])


def wrapped_targets() -> List[str]:
    """Names of loaded target attributes that are currently wrapped."""
    found = []
    for module, attr, _ in TARGETS:
        mod = sys.modules.get(module)
        if mod is None:
            continue
        values = ([v for k, v in vars(mod).items() if not k.startswith("_")]
                  if attr == "*" else [_resolve(mod, attr)])
        found += [f"{module}.{attr}" for v in values
                  if hasattr(v, "_perfbench_original")]
    return found


def _resolve(module, attr: str):
    obj = module
    for part in attr.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def layer_breakdown(self_ms: Dict[str, float],
                    wall_ms: float) -> Dict[str, float]:
    """Self ms per layer (first name component), with ``other`` as the rest."""
    layers = {name: 0.0 for name in LAYERS}
    for span, ms in self_ms.items():
        layers[span.split(".")[0]] += ms
    layers["other"] = wall_ms - sum(v for k, v in layers.items()
                                    if k != "other")
    return layers
