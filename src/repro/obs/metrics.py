"""Process-wide metrics registry: counters, gauges, histograms.

Every subsystem in the reproduction already counts things — memo hits
and misses (compile, result cache, tuning database, ...), fault firings,
retry attempts, breaker trips, graph-compiler rewrites, lint diagnostics —
but until now each count lived in its own ad-hoc dict.  This registry gives
them one process-wide home with a stable catalog, a :func:`snapshot` dict
for JSON surfaces (``repro trace --json``, CI asserts) and a Prometheus
text exposition ready for the future ``repro serve``.

Design points:

* **Catalogued and zero-filled.**  Every counter and histogram the stack
  can emit is declared in :data:`COUNTER_CATALOG` / :data:`HISTOGRAM_CATALOG`
  and appears in every snapshot even when it never fired — a dashboard (or
  a CI assert) can rely on the full schema being present from the first
  scrape.
* **Labelled children.**  ``inc("lint_diagnostics_total", rule="KV103")``
  bumps both the bare catalog counter and a labelled child series
  (``lint_diagnostics_total{rule="KV103"}``); the bare name is always the
  sum over its children.
* **Always-on but cheap.**  Unlike tracing spans, counter increments are a
  dict update under one lock at per-request (not per-element) frequency;
  the instrumented-dispatch benchmark guards the cost.  Tests that need
  exact counts snapshot before/after and diff, or call
  :func:`reset_metrics`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

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
    "render_prometheus",
    "registry",
]

#: every counter the stack can emit, zero-filled in every snapshot
COUNTER_CATALOG: Tuple[str, ...] = (
    "fault_injections_fired_total",
    "retry_attempts_total",
    "breaker_open_total",
    "breaker_half_open_total",
    "breaker_closed_total",
    "degradation_steps_total",
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

_HELP = {
    "fault_injections_fired_total": "FaultInjector rules that actually fired",
    "retry_attempts_total": "re-attempts after a retryable failure",
    "breaker_open_total": "CircuitBreaker closed/half-open -> open transitions",
    "breaker_half_open_total": "CircuitBreaker open -> half-open probe admissions",
    "breaker_closed_total": "CircuitBreaker half-open -> closed recoveries",
    "degradation_steps_total": "degradation-ladder steps taken past the first",
    "graphopt_ops_elided_total": "graph-compiler ops elided by transfer passes",
    "graphopt_ops_fused_total": "graph-compiler fusion rewrites emitted",
    "lint_diagnostics_total": "static-analysis diagnostics (label: rule)",
    "memo_hits_total": "Memo lookups served from memory or disk (label: memo)",
    "memo_misses_total": "Memo lookups that found nothing (label: memo)",
    "memo_disk_hits_total": "Memo hits read from the disk tier (label: memo)",
    "workload_run_latency_ms": "Workload.run wall latency (label: workload)",
}


def _series_key(name: str, labels: Dict[str, Any]) -> str:
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

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
        self.reset()

    def reset(self) -> None:
        """Zero every counter/histogram and drop labelled children."""
        with self._lock:
            self._counters = {name: 0.0 for name in COUNTER_CATALOG}
            self._counter_series = {}
            self._gauges = {}
            self._histograms = {name: _Histogram() for name in HISTOGRAM_CATALOG}
            self._histogram_series = {}

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
        with self._lock:
            if labels:
                return self._counter_series.get(key, 0.0)
            return self._counters.get(key, 0.0)

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready dict: full catalog zero-filled plus children."""
        with self._lock:
            counters = dict(self._counters)
            counters.update(self._counter_series)
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

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        with self._lock:
            lines: List[str] = []
            for name in sorted(set(self._counters) | {
                    key.split("{", 1)[0] for key in self._counter_series}):
                help_text = _HELP.get(name, name)
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {self._counters.get(name, 0.0):g}")
                for key in sorted(self._counter_series):
                    if key.split("{", 1)[0] == name:
                        lines.append(f"{key} {self._counter_series[key]:g}")
            for key in sorted(self._gauges):
                name = key.split("{", 1)[0]
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{key} {self._gauges[key]:g}")
            for name in sorted(self._histograms):
                help_text = _HELP.get(name, name)
                hist = self._histograms[name]
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} histogram")
                running = 0
                for bound, slot in zip(hist.bounds, hist.buckets):
                    running += slot
                    lines.append(f'{name}_bucket{{le="{bound:g}"}} {running}')
                lines.append(
                    f'{name}_bucket{{le="+Inf"}} {running + hist.buckets[-1]}')
                lines.append(f"{name}_sum {hist.total:g}")
                lines.append(f"{name}_count {hist.count}")
            return "\n".join(lines) + "\n"


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


def render_prometheus() -> str:
    return _REGISTRY.render_prometheus()
