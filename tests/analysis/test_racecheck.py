"""Device-graph race detector: happens-before over streams and events."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import Severity, analyze_graph, run_lint
from repro.analysis.lint import lint_graphs
from repro.core.device import DeviceContext
from repro.core.dtypes import DType
from repro.core.errors import AnalysisError, DeviceError
from repro.kernels.babelstream.kernels import copy_kernel


def _rules(diags):
    # analyze_graph returns a diagnostics list; lint_graphs a LintReport
    diags = getattr(diags, "diagnostics", diags)
    return sorted({d.rule for d in diags})


def _errors(diags):
    return [d for d in diags if d.severity == Severity.ERROR]


def _two_stream_graph(*, with_edge: bool):
    """H2D write on one stream, D2H read of the same buffer on another.

    With no event edge the two operations are concurrent — the classic
    cross-stream race.  ``with_edge=True`` adds the ``record``/``wait``
    pair that serialises them.
    """
    ctx = DeviceContext("h100")
    s1 = ctx.stream("producer")
    s2 = ctx.stream("consumer")
    data = np.arange(16, dtype=np.float64)
    with ctx.capture("racecheck") as graph:
        buf = ctx.enqueue_create_buffer(DType.float64, 16, label="shared")
        buf.copy_from_host(data, stream=s1)
        if with_edge:
            s2.wait(ctx.event("ready").record(s1))
        buf.copy_to_host(stream=s2)
    return graph


def test_cross_stream_overlap_without_edge_is_flagged():
    diags = analyze_graph(_two_stream_graph(with_edge=False))
    assert "GR201" in _rules(diags)
    assert _errors(diags)
    (diag,) = [d for d in diags if d.rule == "GR201"]
    assert "shared" in diag.message


def test_event_edge_serialises_the_same_graph():
    assert _rules(analyze_graph(_two_stream_graph(with_edge=True))) == []


def test_same_stream_order_is_never_a_race():
    ctx = DeviceContext("h100")
    s = ctx.stream("only")
    data = np.ones(8)
    with ctx.capture("serial") as graph:
        buf = ctx.enqueue_create_buffer(DType.float64, 8, label="b")
        buf.copy_from_host(data, stream=s)
        buf.copy_to_host(stream=s)
    assert _rules(analyze_graph(graph)) == []


def test_dead_transfer_is_a_warning_not_an_error():
    ctx = DeviceContext("h100")
    s = ctx.stream("s")
    with ctx.capture("dead") as graph:
        buf = ctx.enqueue_create_buffer(DType.float64, 8, label="unused")
        buf.copy_from_host(np.zeros(8), stream=s)
    diags = analyze_graph(graph)
    assert _rules(diags) == ["GR203"]
    assert not _errors(diags)  # warning: reported, does not fail the gate


def test_use_after_free_carries_enqueue_site():
    # a tensor taken before free() reaches the launch, which refuses the
    # freed buffer with the recorded enqueue site
    ctx = DeviceContext("h100", record_sites=True)
    s = ctx.stream("s")
    buf = ctx.enqueue_create_buffer(DType.float64, 8, label="gone")
    t = buf.tensor()
    buf.free()
    with pytest.raises(DeviceError, match=r"enqueued at .*test_racecheck"):
        ctx.enqueue_function(copy_kernel, t, t, 8, grid_dim=1, block_dim=8,
                             stream=s)


def test_capture_check_raises_on_race():
    ctx = DeviceContext("h100")
    s1, s2 = ctx.stream("a"), ctx.stream("b")
    data = np.zeros(4)
    with pytest.raises(AnalysisError, match="GR201"):
        with ctx.capture("checked", check=True):
            buf = ctx.enqueue_create_buffer(DType.float64, 4, label="hot")
            buf.copy_from_host(data, stream=s1)
            buf.copy_to_host(stream=s2)
    # the capture-scoped site recording must not leak past the capture
    assert ctx.record_sites is False


def test_capture_check_passes_clean_graph():
    ctx = DeviceContext("h100")
    s = ctx.stream("s")
    with ctx.capture("clean", check=True) as graph:
        buf = ctx.enqueue_create_buffer(DType.float64, 4, label="ok")
        buf.copy_from_host(np.zeros(4), stream=s)
        buf.copy_to_host(stream=s)
    assert graph is not None


def test_all_workload_lint_graphs_are_clean():
    report = lint_graphs()
    assert report.ok, report.render()
    # every capture lints twice: as recorded and after the graph-compiler
    # pass pipeline — the optimized rewrite must stay as clean
    assert len(report.graphs) == 8
    assert report.diagnostics == []


def test_run_lint_is_clean_end_to_end():
    report = run_lint()
    assert report.ok, report.render()
    assert len(report.kernels) >= 8


class TestGraphoptProvenance:
    """The race detector reads graph-compiler pass provenance: a transfer
    the optimizer elided is not reported itself."""

    @staticmethod
    def _dead_upload_graph():
        ctx = DeviceContext("h100")
        s = ctx.stream("s")
        buf = ctx.enqueue_create_buffer(DType.float64, 8, label="unused")
        live = ctx.enqueue_create_buffer(DType.float64, 8, label="live")
        with ctx.capture("dead") as graph:
            buf.copy_from_host(np.zeros(8), stream=s)
            live.copy_from_host(np.ones(8), stream=s)
            live.copy_to_host(stream=s)
        return graph

    def test_genuinely_dead_upload_still_fires_after_other_passes(self):
        from repro.graphopt import optimize_graph

        graph = self._dead_upload_graph()
        # without the elide pass the dead upload stays live — and flagged
        optimized, _ = optimize_graph(graph, "fuse", check=False)
        assert _rules(analyze_graph(optimized)) == ["GR203"]
        # the elide pass is exactly the fix the warning asks for
        optimized, _ = optimize_graph(graph, "elide")
        assert _rules(analyze_graph(optimized)) == []

    def test_op_elided_predicate(self):
        from repro.analysis.racecheck import op_elided
        from repro.graphopt import optimize_graph

        graph = self._dead_upload_graph()
        optimized, _ = optimize_graph(graph, "elide")
        flags = {op_elided(op) for op in optimized.ops}
        assert flags == {True, False}
        for op in optimized.ops:
            if op_elided(op):
                assert op.meta["graphopt"]["pass"] == "elide"
