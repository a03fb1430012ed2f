"""Tests for the host-side tracing spans (repro.obs.trace)."""

import threading

import pytest

from repro.core.device import DeviceContext
from repro.core.errors import ConfigurationError
from repro.harness.runner import MeasurementProtocol
from repro.obs import trace
from repro.obs.trace import (
    Span,
    TraceCollector,
    active_collector,
    install_trace_collector,
)

FAST = MeasurementProtocol(warmup=0, repeats=2)


def small_request(workload, **kwargs):
    return workload.make_request(params={"L": 18}, protocol=FAST, **kwargs)


class TestSpanNesting:
    def test_parent_child_links(self):
        collector = TraceCollector()
        with collector.span("outer") as outer:
            with collector.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.children == [inner]
        # completion order: inner closes first
        assert [s.name for s in collector.spans] == ["inner", "outer"]
        assert [s.name for s in collector.roots()] == ["outer"]

    def test_wall_and_modelled_durations(self):
        collector = TraceCollector()
        with collector.span("timed") as sp:
            sp.set_modelled(1.25)
        assert sp.wall_ms is not None and sp.wall_ms >= 0.0
        assert sp.modelled_ms == 1.25
        sp.set_modelled(None)  # None never clobbers an attribution
        assert sp.modelled_ms == 1.25

    def test_annotate_and_as_dict(self):
        collector = TraceCollector()
        with collector.span("s", gpu="h100") as sp:
            sp.annotate(source="search")
        payload = sp.as_dict()
        assert payload["args"] == {"gpu": "h100", "source": "search"}
        assert payload["name"] == "s"
        assert payload["error"] is None

    def test_error_is_recorded_and_reraised(self):
        collector = TraceCollector()
        with pytest.raises(ValueError):
            with collector.span("failing"):
                raise ValueError("boom")
        (sp,) = collector.spans
        assert sp.error == "ValueError: boom"
        assert sp.wall_ms is not None

    def test_threads_build_independent_trees(self):
        collector = TraceCollector()
        seen = {}

        def worker(tag):
            with collector.span(f"outer-{tag}"):
                with collector.span(f"inner-{tag}") as inner:
                    seen[tag] = inner

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in ("a", "b")]
        with collector.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # worker spans nest under their own thread's root, never under main
        for tag in ("a", "b"):
            parent = next(s for s in collector.spans
                          if s.name == f"outer-{tag}")
            assert parent.parent_id is None
            assert seen[tag].parent_id == parent.span_id

    def test_summary_aggregates_by_name(self):
        collector = TraceCollector()
        for _ in range(3):
            with collector.span("rep") as sp:
                sp.set_modelled(2.0)
        summary = collector.summary()
        assert summary["spans"] == 3
        assert summary["by_name"]["rep"]["count"] == 3
        assert summary["by_name"]["rep"]["modelled_ms"] == pytest.approx(6.0)


class TestInstall:
    def test_install_sets_and_clears_active(self):
        assert active_collector() is None
        with install_trace_collector() as collector:
            assert active_collector() is collector
        assert active_collector() is None

    def test_nesting_raises(self):
        with install_trace_collector():
            with pytest.raises(ConfigurationError):
                with install_trace_collector():
                    pass  # pragma: no cover

    def test_cleared_even_on_error(self):
        with pytest.raises(RuntimeError):
            with install_trace_collector():
                raise RuntimeError("escape")
        assert active_collector() is None

    def test_module_span_disabled_is_shared_noop(self):
        scope = trace.span("anything", key="value")
        assert scope is trace._NULL_SCOPE
        with scope:  # no collector consulted, nothing recorded
            pass

    def test_module_span_enabled_records(self):
        with install_trace_collector() as collector:
            with trace.span("via-module") as sp:
                assert isinstance(sp, Span)
        assert [s.name for s in collector.spans] == ["via-module"]


class TestWorkloadIntegration:
    def test_workload_run_span_tree(self, stencil):
        request = small_request(stencil)
        with install_trace_collector() as collector:
            result = stencil.run(request)
        assert result.verification.passed
        names = [s.name for s in collector.spans]
        assert "workload.run" in names
        run_span = next(s for s in collector.spans if s.name == "workload.run")
        assert run_span.parent_id is None
        assert run_span.args["workload"] == "stencil"
        # the analytic device time is attributed to the run span
        assert run_span.modelled_ms is not None and run_span.modelled_ms > 0
        assert run_span.wall_ms > 0
        # the verification program's replay nests under the run and
        # models the program's makespan
        replays = [s for s in collector.spans if s.name == "graph.replay"]
        assert [s.parent_id for s in replays] == [run_span.span_id]
        assert replays[0].modelled_ms == \
            result.timing["verify_pipeline"].elapsed_ms

    def test_contexts_registered_while_tracing(self, stencil):
        with install_trace_collector() as collector:
            stencil.run(small_request(stencil))
        assert collector.contexts
        ctx = collector.contexts[0]
        assert hasattr(ctx, "timeline")

    def test_register_context_dedups_on_identity(self):
        collector = TraceCollector()
        ctx = DeviceContext("h100")
        collector.register_context(ctx)
        collector.register_context(ctx)
        assert len(collector.contexts) == 1

    def test_graph_replay_span(self, ctx):
        import numpy as np

        from repro.core.dtypes import DType
        from repro.core.layout import Layout
        from repro.kernels.babelstream.kernels import copy_kernel

        n = 256
        buf_a = ctx.enqueue_create_buffer(DType.float32, n, label="a")
        buf_c = ctx.enqueue_create_buffer(DType.float32, n, label="c")
        a = buf_a.tensor(Layout.row_major(n), mut=False)
        c = buf_c.tensor(Layout.row_major(n), mut=True)
        with ctx.capture("copy") as graph:
            buf_a.copy_from_host(np.ones(n, dtype=np.float32))
            ctx.enqueue_function(copy_kernel, a, c, n,
                                 grid_dim=(1,), block_dim=(n,))
            buf_c.copy_to_host()
        with install_trace_collector() as collector:
            graph.replay()
        replay = next(s for s in collector.spans if s.name == "graph.replay")
        assert replay.args["graph"] == "copy"
        assert replay.modelled_ms is not None and replay.modelled_ms > 0
