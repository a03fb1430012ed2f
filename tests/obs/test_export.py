"""Tests for the Chrome/Perfetto trace export (repro.obs.export)."""

import json

import pytest

from repro.harness.runner import MeasurementProtocol
from repro.obs import (
    COUNTER_CATALOG,
    TraceCollector,
    build_chrome_trace,
    install_trace_collector,
    modelled_vs_wall,
    observability_markdown,
    write_chrome_trace,
)
from repro.obs.metrics import reset_metrics, snapshot

FAST = MeasurementProtocol(warmup=0, repeats=2)


@pytest.fixture
def traced_run(stencil):
    """One traced stencil run: (collector, trace dict)."""
    request = stencil.make_request(params={"L": 18}, protocol=FAST)
    with install_trace_collector() as collector:
        stencil.run(request)
    return collector, build_chrome_trace(collector,
                                         metrics_snapshot=snapshot())


class TestChromeTrace:
    def test_event_schema(self, traced_run):
        _, trace = traced_run
        events = trace["traceEvents"]
        assert events
        assert trace["displayTimeUnit"] == "ms"
        for ev in events:
            assert {"name", "ph", "pid"} <= set(ev)
            if ev["ph"] == "X":
                assert ev["ts"] >= 0 and ev["dur"] >= 0
                assert isinstance(ev["tid"], int)

    def test_host_and_device_processes(self, traced_run):
        _, trace = traced_run
        events = trace["traceEvents"]
        pids = {ev["pid"] for ev in events if ev["ph"] != "M"}
        assert 1 in pids          # host spans
        assert pids - {1}         # at least one device context
        # every stream got a named lane
        lane_names = [ev for ev in events
                      if ev["ph"] == "M" and ev["name"] == "thread_name"
                      and ev["pid"] != 1]
        assert any(ev["args"]["name"].startswith("stream:")
                   for ev in lane_names)

    def test_nested_host_span_present(self, traced_run):
        _, trace = traced_run
        host = [ev for ev in trace["traceEvents"]
                if ev["ph"] == "X" and ev["pid"] == 1]
        assert any(ev["args"].get("parent_id") is not None for ev in host)
        assert any(ev["args"].get("parent_id") is None for ev in host)

    def test_metrics_snapshot_carries_full_catalog(self, traced_run):
        _, trace = traced_run
        counters = trace["metrics"]["counters"]
        for name in COUNTER_CATALOG:
            assert name in counters

    def test_other_data(self, traced_run):
        collector, trace = traced_run
        other = trace["otherData"]
        assert other["exporter"] == "repro.obs.export/v1"
        assert other["spans"] == len(collector.spans)
        assert other["contexts"] == len(collector.contexts)

    def test_written_file_is_loadable(self, traced_run, tmp_path):
        collector, _ = traced_run
        path = tmp_path / "trace.json"
        written = write_chrome_trace(str(path), collector)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert len(loaded["traceEvents"]) == len(written["traceEvents"])

    def test_graph_replay_expands_schedule(self, stencil):
        request = stencil.make_request(params={"L": 18}, protocol=FAST,
                                       optimize="all")
        with install_trace_collector() as collector:
            probe = stencil.tuning_probe(request)
            probe.replay()
        trace = build_chrome_trace(collector)
        cats = {ev.get("cat") for ev in trace["traceEvents"]}
        # the graph summary slice plus its expanded per-op children
        assert "graph" in cats
        assert any(str(c).startswith("graph.") for c in cats)
        expanded = [ev for ev in trace["traceEvents"]
                    if str(ev.get("cat", "")).startswith("graph.")]
        parent = next(ev for ev in trace["traceEvents"]
                      if ev.get("cat") == "graph")
        for ev in expanded:
            assert ev["ts"] >= parent["ts"]
            assert ev["args"]["graph"] == parent["name"]


class TestModelledVsWall:
    def test_rows_only_for_modelled_spans(self):
        collector = TraceCollector()
        with collector.span("with-model") as sp:
            sp.set_modelled(5.0)
        with collector.span("without-model"):
            pass
        with collector.span("zero-model") as sp:
            sp.set_modelled(0.0)
        rows = modelled_vs_wall(collector)
        assert [r["name"] for r in rows] == ["with-model"]
        row = rows[0]
        assert row["modelled_ms"] == 5.0
        assert row["wall_ms"] >= 0.0
        assert "error_pct" not in row       # never subtracted


class TestObservabilityMarkdown:
    def test_section_with_fired_counters(self):
        reset_metrics()
        from repro.obs.metrics import inc, observe

        inc("fault_injections_fired_total", 2)
        observe("workload_run_latency_ms", 4.0)
        collector = TraceCollector()
        with collector.span("workload.run") as sp:
            sp.set_modelled(1.0)
        lines = observability_markdown(collector)
        text = "\n".join(lines)
        assert "## Observability" in text
        assert "| `fault_injections_fired_total` | 2 |" in text
        assert "workload_run_latency_ms`: n=1" in text
        assert "### Modelled vs wall time per span" in text
        assert "| `workload.run` |" in text

    def test_section_without_activity(self):
        reset_metrics()
        text = "\n".join(observability_markdown())
        assert "No counters fired in this process." in text
        assert "Modelled vs wall" not in text  # no collector given

    def test_every_modelled_span_is_listed(self):
        reset_metrics()
        collector = TraceCollector()
        for i in range(30):
            with collector.span(f"s{i}") as sp:
                sp.set_modelled(1.0)
            sp.end_s = sp.start_s + i * 1e-3        # s{i} took i ms
        lines = observability_markdown(collector)
        header = lines.index("| span | wall (ms) | modelled (ms) |")
        assert lines[header + 2:] == [
            f"| `s{i}` | {i:.3f} | 1.000 |" for i in range(30)]
