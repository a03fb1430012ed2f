"""Tests for the process-wide metrics registry (repro.obs.metrics)."""

import pytest

from repro.harness.runner import MeasurementProtocol
from repro.obs.metrics import (
    COUNTER_CATALOG,
    HISTOGRAM_CATALOG,
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    registry,
    reset_metrics,
    snapshot,
)

FAST = MeasurementProtocol(warmup=0, repeats=2)


class TestRegistry:
    def test_snapshot_zero_fills_full_catalog(self):
        reg = MetricsRegistry()
        snap = reg.snapshot()
        assert snap["schema"] == "repro.metrics-snapshot/v1"
        for name in COUNTER_CATALOG:
            assert snap["counters"][name] == 0.0
        for name in HISTOGRAM_CATALOG:
            hist = snap["histograms"][name]
            assert hist["count"] == 0 and hist["sum"] == 0.0
            assert hist["buckets"]["+Inf"] == 0

    def test_inc_bumps_bare_and_labelled_child(self):
        reg = MetricsRegistry()
        reg.inc("lint_diagnostics_total", rule="KV103")
        reg.inc("lint_diagnostics_total", rule="KV103")
        reg.inc("lint_diagnostics_total", rule="GR204")
        snap = reg.snapshot()
        assert snap["counters"]["lint_diagnostics_total"] == 3.0
        assert snap["counters"]['lint_diagnostics_total{rule="KV103"}'] == 2.0
        assert snap["counters"]['lint_diagnostics_total{rule="GR204"}'] == 1.0
        assert reg.counter("lint_diagnostics_total") == 3.0
        assert reg.counter("lint_diagnostics_total", rule="KV103") == 2.0

    def test_inc_zero_is_a_noop(self):
        reg = MetricsRegistry()
        reg.inc("graphopt_ops_fused_total", 0)
        assert reg.counter("graphopt_ops_fused_total") == 0.0
        assert "graphopt_ops_fused_total{}" not in reg.snapshot()["counters"]

    def test_gauges(self):
        reg = MetricsRegistry()
        reg.set_gauge("queue_depth", 4)
        reg.set_gauge("queue_depth", 2, device="h100")
        snap = reg.snapshot()
        assert snap["gauges"]["queue_depth"] == 4.0
        assert snap["gauges"]['queue_depth{device="h100"}'] == 2.0

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        for value in (0.3, 0.7, 3.0, 99999.0):
            reg.observe("workload_run_latency_ms", value)
        hist = reg.snapshot()["histograms"]["workload_run_latency_ms"]
        assert hist["count"] == 4
        assert hist["min"] == 0.3 and hist["max"] == 99999.0
        assert hist["sum"] == pytest.approx(0.3 + 0.7 + 3.0 + 99999.0)
        assert hist["buckets"]["0.5"] == 1
        assert hist["buckets"]["1"] == 2
        assert hist["buckets"]["5"] == 3
        assert hist["buckets"]["+Inf"] == 4
        # cumulative counts never decrease along the bounds
        counts = [hist["buckets"][f"{b:g}"] for b in LATENCY_BUCKETS_MS]
        assert counts == sorted(counts)

    def test_labelled_histogram_child(self):
        reg = MetricsRegistry()
        reg.observe("workload_run_latency_ms", 2.0, workload="stencil")
        snap = reg.snapshot()
        child = snap["histograms"]['workload_run_latency_ms{workload="stencil"}']
        assert child["count"] == 1
        assert snap["histograms"]["workload_run_latency_ms"]["count"] == 1

    def test_reset_restores_zero_filled_catalog(self):
        reg = MetricsRegistry()
        reg.inc("fault_injections_fired_total", 5, site="x")
        reg.observe("workload_run_latency_ms", 1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"]["fault_injections_fired_total"] == 0.0
        assert 'fault_injections_fired_total{site="x"}' not in snap["counters"]
        assert snap["histograms"]["workload_run_latency_ms"]["count"] == 0


class TestInstrumentedSites:
    """The hook sites actually feed the process-wide registry."""

    def test_workload_run_observes_latency(self, stencil):
        reset_metrics()
        request = stencil.make_request(params={"L": 18}, protocol=FAST)
        stencil.run(request)
        hist = snapshot()["histograms"]["workload_run_latency_ms"]
        assert hist["count"] == 1
        child = snapshot()["histograms"].get(
            'workload_run_latency_ms{workload="stencil"}')
        assert child is not None and child["count"] == 1

    def test_compile_cache_counters(self, stencil):
        reset_metrics()
        request = stencil.make_request(params={"L": 18}, protocol=FAST)
        reg = registry()
        stencil.run(request)
        first = (reg.counter("memo_hits_total", memo="compile"),
                 reg.counter("memo_misses_total", memo="compile"))
        stencil.run(request)
        second = (reg.counter("memo_hits_total", memo="compile"),
                  reg.counter("memo_misses_total", memo="compile"))
        # a repeat run re-serves every kernel from the compile memo
        assert second[0] > first[0]
        assert second[1] == first[1]

    def test_result_cache_counters(self, stencil):
        from repro.workloads.cache import ResultCache, run_cached

        reset_metrics()
        request = stencil.make_request(params={"L": 18}, protocol=FAST)
        cache = ResultCache()
        run_cached(request, cache=cache, workload=stencil)
        assert registry().counter("memo_misses_total", memo="result") == 1.0
        run_cached(request, cache=cache, workload=stencil)
        assert registry().counter("memo_hits_total", memo="result") == 1.0

    def test_tuning_db_counters(self, stencil):
        from repro.tuning.db import TuningDB

        reset_metrics()
        db = TuningDB()
        request = stencil.make_request(params={"L": 18}, protocol=FAST)
        assert db.get(request) is None
        assert registry().counter("memo_misses_total", memo="tuning") == 1.0

    def test_lint_diagnostics_counter(self):
        from repro.analysis.lint import run_lint

        reset_metrics()
        report = run_lint()
        total = registry().counter("lint_diagnostics_total")
        assert total == float(len(report.diagnostics))
