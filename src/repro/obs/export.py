"""Chrome/Perfetto trace export: host spans merged with device timelines.

:func:`build_chrome_trace` turns one traced run — the host-side span tree a
:class:`~repro.obs.trace.TraceCollector` gathered plus the modelled
per-stream timeline of every :class:`DeviceContext` created under it — into
the Chrome trace event format (the JSON ``chrome://tracing`` and
https://ui.perfetto.dev load directly).

Layout of the exported trace:

* **pid 1, "host"** — one thread track per host thread, carrying the nested
  spans (``workload.run`` → ``tuning.resolve`` → ``graph.replay`` …) as
  complete ("X") events in *wall-clock* microseconds relative to the
  collector's epoch.  Span args, ids and the modelled-vs-wall durations
  ride in ``args``.
* **pid 2+, one per device context** — one thread track per stream lane,
  carrying the *modelled* timeline (µs from the context's t=0).  H2D,
  kernel, D2H and memset operations are color-coded via ``cname``;
  graph-replay summary events are expanded into their per-op schedule
  (recorded once at graph compile time) nested inside the summary slice.

The two timebases are intentionally distinct — host tracks show where the
process spent wall time, device tracks show where the *model* says the GPU
would have spent it.  The per-span ``modelled_ms``/``wall_ms`` pair in
``args`` sits side by side and is never subtracted: the simulator's wall
clock is not GPU time.

The emitted object keeps the standard ``traceEvents`` key and adds a
``metrics`` key (a registry snapshot) — extra top-level keys are legal in
the Chrome trace object form and tooling ignores them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from . import metrics as _metrics
from .trace import Span, TraceCollector

__all__ = [
    "CNAME_BY_KIND",
    "build_chrome_trace",
    "write_chrome_trace",
    "modelled_vs_wall",
    "observability_markdown",
]

#: Chrome trace color names per device-operation kind
CNAME_BY_KIND = {
    "kernel": "thread_state_running",   # green
    "h2d": "rail_response",             # blue
    "d2h": "rail_animation",            # purple
    "memset": "grey",
    "graph": "rail_load",               # red-orange (summary slice)
    "event": "black",
}

_HOST_PID = 1
_FIRST_DEVICE_PID = 2


def _meta(name: str, pid: int, label: str, tid: int = 0) -> Dict[str, Any]:
    event: Dict[str, Any] = {"name": name, "ph": "M", "pid": pid,
                             "args": {"name": label}}
    if name == "thread_name":
        event["tid"] = tid
    return event


def _span_event(span: Span, epoch_s: float, tid: int) -> Dict[str, Any]:
    args = dict(span.args)
    args["span_id"] = span.span_id
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.wall_ms is not None:
        args["wall_ms"] = span.wall_ms
    if span.modelled_ms is not None:
        args["modelled_ms"] = span.modelled_ms
    if span.error:
        args["error"] = span.error
    return {
        "name": span.name,
        "cat": "host",
        "ph": "X",
        "ts": (span.start_s - epoch_s) * 1e6,
        "dur": ((span.end_s or span.start_s) - span.start_s) * 1e6,
        "pid": _HOST_PID,
        "tid": tid,
        "args": args,
    }


def _device_events(ctx: Any, pid: int) -> List[Dict[str, Any]]:
    """Trace events for one device context: lanes, ops, expanded graphs."""
    events: List[Dict[str, Any]] = []
    label = getattr(getattr(ctx, "spec", None), "name", "device")
    events.append(_meta("process_name", pid, f"device:{label}"))
    tids: Dict[str, int] = {}

    def lane(stream: str) -> int:
        tid = tids.get(stream)
        if tid is None:
            tid = tids[stream] = len(tids)
            events.append(_meta("thread_name", pid, f"stream:{stream}",
                                tid=tid))
        return tid

    for ev in getattr(ctx, "timeline", ()):
        tid = lane(ev.stream)
        start_us = ev.start_ms * 1e3
        span_us = max((ev.end_ms - ev.start_ms) * 1e3, 0.0)
        if ev.kind == "event":
            events.append({"name": ev.name, "cat": "event", "ph": "i",
                           "s": "t", "ts": start_us, "pid": pid, "tid": tid})
            continue
        args: Dict[str, Any] = {"modelled_ms": ev.modelled_time_ms,
                                "stream": ev.stream}
        for key, value in (ev.details or {}).items():
            if key != "schedule" and isinstance(value, (str, int, float, bool)):
                args[key] = value
        events.append({
            "name": ev.name,
            "cat": ev.kind,
            "ph": "X",
            "ts": start_us,
            "dur": span_us,
            "pid": pid,
            "tid": tid,
            "cname": CNAME_BY_KIND.get(ev.kind, "grey"),
            "args": args,
        })
        # A graph summary slice carries the per-op schedule recorded at
        # compile time; expand it into nested slices on the same lane.
        for op in (ev.details or {}).get("schedule", ()):
            events.append({
                "name": op["name"],
                "cat": f"graph.{op['kind']}",
                "ph": "X",
                "ts": start_us + op["start_ms"] * 1e3,
                "dur": op["duration_ms"] * 1e3,
                "pid": pid,
                "tid": tid,
                "cname": CNAME_BY_KIND.get(op["kind"], "grey"),
                "args": {"graph": ev.name, "modelled_ms": op["duration_ms"]},
            })
    return events


def build_chrome_trace(
        collector: TraceCollector,
        *,
        metrics_snapshot: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Merge *collector*'s spans and registered contexts into a Chrome trace.

    When *metrics_snapshot* is omitted the process-wide registry is
    snapshotted, so the export always carries the full counter catalog.
    """
    events: List[Dict[str, Any]] = [_meta("process_name", _HOST_PID, "host")]
    thread_tids: Dict[int, int] = {}
    for span in collector.spans:
        if span.end_s is None:
            continue  # still open: nothing sensible to draw
        tid = thread_tids.get(span.thread)
        if tid is None:
            tid = thread_tids[span.thread] = len(thread_tids)
            events.append(_meta("thread_name", _HOST_PID, f"host.{tid}",
                                tid=tid))
        events.append(_span_event(span, collector.epoch_s, tid))
    for index, ctx in enumerate(collector.contexts):
        events.extend(_device_events(ctx, _FIRST_DEVICE_PID + index))
    if metrics_snapshot is None:
        metrics_snapshot = _metrics.snapshot()
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metrics": metrics_snapshot,
        "otherData": {"exporter": "repro.obs.export/v1",
                      "spans": len(collector.spans),
                      "contexts": len(collector.contexts)},
    }


def write_chrome_trace(path: str, collector: TraceCollector, *,
                       metrics_snapshot: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
    """Build and write the Chrome trace JSON; returns the trace object."""
    trace = build_chrome_trace(collector, metrics_snapshot=metrics_snapshot)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return trace


def modelled_vs_wall(collector: TraceCollector) -> List[Dict[str, Any]]:
    """Per-span rows of host wall time beside modelled device time.

    Only spans that attributed a nonzero modelled duration appear (a
    span with no device work models none).  The two are different quantities: the
    simulator's wall clock is not GPU time, so they are reported side by
    side and never subtracted.
    """
    return [{"span_id": span.span_id, "name": span.name,
             "wall_ms": span.wall_ms, "modelled_ms": span.modelled_ms}
            for span in collector.spans
            if span.modelled_ms and span.wall_ms is not None]


def observability_markdown(
        collector: Optional[TraceCollector] = None,
        snapshot: Optional[Dict[str, Any]] = None) -> List[str]:
    """Markdown lines of the ``repro trace`` observability summary.

    The counters that fired, the ``workload_run_latency_ms`` histogram and,
    given a *collector*, each modelled span's host wall time beside its
    modelled device time, in the order the spans ended.  All of it depends on the host and on what the
    process ran before, so no committed document renders it.
    """
    if snapshot is None:
        snapshot = _metrics.snapshot()
    lines: List[str] = ["", "## Observability", ""]
    counters = snapshot.get("counters", {})
    fired = {name: value for name, value in sorted(counters.items())
             if value and "{" not in name}
    lines.append("### Metrics registry")
    lines.append("")
    if fired:
        lines.append("| counter | value |")
        lines.append("|---|---|")
        for name, value in fired.items():
            lines.append(f"| `{name}` | {value:g} |")
    else:
        lines.append("No counters fired in this process.")
    hist = snapshot.get("histograms", {}).get("workload_run_latency_ms")
    if hist and hist.get("count"):
        lines.append("")
        lines.append(
            f"`workload_run_latency_ms`: n={hist['count']}, "
            f"mean={hist['sum'] / hist['count']:.3f} ms, "
            f"min={hist['min']:.3f} ms, max={hist['max']:.3f} ms")
    if collector is not None:
        rows = modelled_vs_wall(collector)
        lines.append("")
        lines.append("### Modelled vs wall time per span")
        lines.append("")
        if rows:
            lines.append("| span | wall (ms) | modelled (ms) |")
            lines.append("|---|---:|---:|")
            for row in rows:
                lines.append(f"| `{row['name']}` | {row['wall_ms']:.3f} | "
                             f"{row['modelled_ms']:.3f} |")
        else:
            lines.append("No spans carried a modelled duration.")
    return lines
