"""Unified observability layer: tracing spans, trace export, metrics.

Three pieces, all off-by-default or always-cheap, mirroring how the paper
argues performance portability through *observable* per-phase breakdowns:

* :mod:`~repro.obs.trace` — nested host-side spans with wall *and*
  modelled durations, collected by an installable :class:`TraceCollector`
  (the :data:`_ACTIVE`-switch pattern shared with fault injection keeps
  the disabled path zero-overhead);
* :mod:`~repro.obs.export` — Chrome/Perfetto ``trace.json`` export merging
  host spans with the per-stream modelled device timelines;
* :mod:`~repro.obs.metrics` — the process-wide counters/gauges/histograms
  registry with a stable zero-filled catalog and :func:`snapshot`.

Surfaces: ``repro trace <workload>`` (whose text summary is
:func:`~repro.obs.export.observability_markdown`) and ``repro bench
--trace``.  ``repro report`` renders none of it: host wall times do not
belong in a document that regenerates byte for byte.
"""

from .export import (
    build_chrome_trace,
    modelled_vs_wall,
    observability_markdown,
    write_chrome_trace,
)
from .metrics import (
    COUNTER_CATALOG,
    HISTOGRAM_CATALOG,
    MetricsRegistry,
    registry,
    reset_metrics,
    snapshot,
)
from .trace import (
    Span,
    TraceCollector,
    active_collector,
    install_trace_collector,
    span,
)

__all__ = [
    "COUNTER_CATALOG",
    "HISTOGRAM_CATALOG",
    "MetricsRegistry",
    "Span",
    "TraceCollector",
    "active_collector",
    "build_chrome_trace",
    "install_trace_collector",
    "modelled_vs_wall",
    "observability_markdown",
    "registry",
    "reset_metrics",
    "snapshot",
    "span",
    "write_chrome_trace",
]
