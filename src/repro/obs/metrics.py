"""Process-wide metrics registry: counters, gauges, histograms.

Every subsystem in the reproduction already counts things — memo hits
and misses (compile, result cache, tuning database, ...), fault firings,
graph-compiler rewrites, lint diagnostics — and this registry gives them
one process-wide home with a stable catalog and a :func:`snapshot` dict
for JSON surfaces (``repro trace --json``, CI asserts).

Design points:

* **Catalogued and zero-filled.**  Every counter and histogram the stack
  can emit is declared in :data:`COUNTER_CATALOG` / :data:`HISTOGRAM_CATALOG`
  and appears in every snapshot even when it never fired — a CI assert
  can rely on the full schema being present from the first snapshot.
* **Labelled children.**  ``inc("lint_diagnostics_total", rule="KV103")``
  bumps both the bare catalog counter and a labelled child series
  (``lint_diagnostics_total{rule="KV103"}``); the bare name is always the
  sum over its children.
* **Always-on but cheap.**  Unlike tracing spans, counter increments are a
  dict update under one lock at per-request (not per-element) frequency;
  the instrumented-dispatch benchmark guards the cost.  Tests that need
  exact counts snapshot before/after and diff, or call
  :func:`reset_metrics`.
* **Counted where they happen.**  Counts bumped far more often than that
  stay with their owner and are read on demand: the memos count their own
  hits, misses and disk hits, and :meth:`MetricsRegistry.attach` publishes
  them as the ``memo_*_total{memo=...}`` series.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "COUNTER_CATALOG",
    "HISTOGRAM_CATALOG",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "inc",
    "observe",
    "set_gauge",
    "snapshot",
    "reset_metrics",
    "registry",
]

#: every counter the stack can emit, zero-filled in every snapshot
COUNTER_CATALOG: Tuple[str, ...] = (
    "fault_injections_fired_total",
    "graphopt_ops_elided_total",
    "graphopt_ops_fused_total",
    "lint_diagnostics_total",
    "memo_hits_total",
    "memo_misses_total",
    "memo_disk_hits_total",
)

#: every histogram the stack can emit, zero-filled in every snapshot
HISTOGRAM_CATALOG: Tuple[str, ...] = (
    "workload_run_latency_ms",
)

#: histogram bucket upper bounds in milliseconds (plus implicit +Inf)
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: ``(name, labels, count)`` of one counter series kept outside a registry
Series = Tuple[str, Dict[str, Any], float]


def _series_key(name: str, labels: Dict[str, Any]) -> str:
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Histogram:
    """Fixed-bucket cumulative histogram."""

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, bounds: Tuple[float, ...] = LATENCY_BUCKETS_MS) -> None:
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def as_dict(self) -> Dict[str, Any]:
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, slot in zip(self.bounds, self.buckets):
            running += slot
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = running + self.buckets[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": cumulative,
        }


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms with a stable catalog."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._counter_series: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}
        self._histogram_series: Dict[str, _Histogram] = {}
        self._sources: List[Tuple[Callable[[], Iterable[Series]],
                                  Callable[[], None]]] = []
        self.reset()

    def attach(self, read: Callable[[], Iterable[Series]],
               restart: Callable[[], None]) -> None:
        """Publish labelled counter series that another module keeps.

        *read* returns ``(name, labels, count)`` per series, counted since
        the last call of *restart*.  :meth:`counter` and :meth:`snapshot`
        add them to the labelled children and to the bare counter of each
        name; :meth:`reset` calls *restart*.
        """
        with self._lock:
            self._sources.append((read, restart))

    def reset(self) -> None:
        """Zero every counter/histogram and drop labelled children."""
        with self._lock:
            self._counters = {name: 0.0 for name in COUNTER_CATALOG}
            self._counter_series = {}
            self._gauges = {}
            self._histograms = {name: _Histogram() for name in HISTOGRAM_CATALOG}
            self._histogram_series = {}
            sources = list(self._sources)
        for _, restart in sources:
            restart()

    def _published(self) -> Dict[str, float]:
        """The attached series, plus their sums under each bare name."""
        with self._lock:
            sources = list(self._sources)
        out: Dict[str, float] = {}
        for read, _ in sources:
            for name, labels, count in read():
                for key in (name, _series_key(name, labels)):
                    out[key] = out.get(key, 0.0) + count
        return out

    # ------------------------------------------------------------- mutation
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Bump a counter (and its labelled child when labels are given)."""
        if amount == 0:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount
            if labels:
                key = _series_key(name, labels)
                self._counter_series[key] = (
                    self._counter_series.get(key, 0.0) + amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = _series_key(name, labels) if labels else name
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram sample (and a labelled child series)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram()
            hist.observe(value)
            if labels:
                key = _series_key(name, labels)
                child = self._histogram_series.get(key)
                if child is None:
                    child = self._histogram_series[key] = _Histogram()
                child.observe(value)

    # -------------------------------------------------------------- reading
    def counter(self, name: str, **labels: Any) -> float:
        key = _series_key(name, labels) if labels else name
        published = self._published().get(key, 0.0)
        with self._lock:
            if labels:
                return self._counter_series.get(key, 0.0) + published
            return self._counters.get(key, 0.0) + published

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready dict: full catalog zero-filled plus children."""
        published = self._published()
        with self._lock:
            counters = dict(self._counters)
            counters.update(self._counter_series)
            for key, count in published.items():
                counters[key] = counters.get(key, 0.0) + count
            histograms = {name: h.as_dict()
                          for name, h in self._histograms.items()}
            histograms.update({key: h.as_dict()
                               for key, h in self._histogram_series.items()})
            return {
                "schema": "repro.metrics-snapshot/v1",
                "counters": counters,
                "gauges": dict(self._gauges),
                "histograms": histograms,
            }


# ---------------------------------------------------------------------------
# The process-wide default registry (instrumented sites call the functions)
# ---------------------------------------------------------------------------

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _REGISTRY


def inc(name: str, amount: float = 1.0, **labels: Any) -> None:
    _REGISTRY.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    _REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    _REGISTRY.observe(name, value, **labels)


def snapshot() -> Dict[str, Any]:
    return _REGISTRY.snapshot()


def reset_metrics() -> None:
    _REGISTRY.reset()

