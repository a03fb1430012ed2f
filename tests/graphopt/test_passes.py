"""The graph-compiler pass pipeline: elision, fusion, legality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.device import DeviceContext, DeviceError
from repro.core.dtypes import DType
from repro.core.errors import ConfigurationError
from repro.core.kernel import LaunchConfig
from repro.analysis import verify_kernel
from repro.gpu.executor import (KernelExecutor, kernel_uses_barrier,
                                kernel_vector_safe)
from repro.graphopt import PASS_NAMES, optimize_graph, parse_passes
from repro.kernels.babelstream.kernels import (
    SCALAR,
    add_kernel,
    copy_kernel,
    dot_kernel,
    mul_kernel,
)


def _replays_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        assert np.array_equal(a[key], b[key]), key


class TestParsePasses:
    def test_all_none_and_subsets(self):
        assert parse_passes("all") == PASS_NAMES
        assert parse_passes("none") == ()
        assert parse_passes(None) == ()
        assert parse_passes("fuse") == ("fuse",)

    def test_canonical_order_is_restored(self):
        assert parse_passes("fuse,elide") == PASS_NAMES
        assert parse_passes(["fuse", "elide"]) == ("elide", "fuse")

    def test_unknown_pass_raises(self):
        for passes in ("fuse,vectorize", "hoist"):
            with pytest.raises(ConfigurationError,
                               match=r"\('elide', 'fuse'\)"):
                parse_passes(passes)


class TestFusion:
    def test_adjacent_stream_kernels_fuse_to_one(self, stream_capture):
        ctx, graph, bufs = stream_capture
        optimized, report = optimize_graph(graph, "fuse")
        assert graph.num_kernels == 4          # input untouched
        assert optimized.num_kernels == 1
        assert report.fused[0]["parts"] == ["copy_kernel", "mul_kernel",
                                            "add_kernel", "triad_kernel"]
        _replays_equal(graph.replay(), optimized.replay())

    def test_fused_op_dispatches_through_lowering_tier(self, stream_capture):
        ctx, graph, bufs = stream_capture
        optimized, _ = optimize_graph(graph, "fuse")
        fused = [op for op in optimized.ops
                 if op.kind == "kernel" and not (op.meta or {}).get("elided")]
        assert len(fused) == 1
        assert fused[0].meta["mode"] == "lowered"
        # the fused kernel's verdict and barrier fact are its parts'
        meta = fused[0].meta
        assert verify_kernel(meta["kern"]).inferred is True
        assert kernel_vector_safe(meta["kern"])
        assert not kernel_uses_barrier(meta["kern"])
        result = KernelExecutor().launch(meta["kern"], meta["args"],
                                         meta["launch"])
        assert result.mode == "lowered"

    def test_tombstones_carry_provenance(self, stream_capture):
        ctx, graph, bufs = stream_capture
        optimized, _ = optimize_graph(graph, "fuse")
        stones = [op for op in optimized.ops
                  if (op.meta or {}).get("elided")]
        assert len(stones) == 4
        for op in stones:
            assert op.meta["graphopt"]["pass"] == "fuse"
            assert op.meta["graphopt"]["action"] == "fused-into"

    def test_fused_timing_is_sum_of_parts(self, stream_capture):
        ctx, graph, bufs = stream_capture
        optimized, report = optimize_graph(graph, "fuse")
        # no per-kernel models were supplied, so the parts model 0 ms each
        assert report.fused[0]["timing_ms"] == pytest.approx(0.0)
        assert optimized.makespan_ms <= graph.makespan_ms

    def test_barrier_kernel_never_fuses(self):
        """The Dot reduction (shared memory + barriers) stays unfused."""
        n, tb = 512, 64
        blocks = n // tb
        ctx = DeviceContext("h100")
        a_buf = ctx.enqueue_create_buffer(DType.float64, n, label="a")
        c_buf = ctx.enqueue_create_buffer(DType.float64, n, label="c")
        sums_buf = ctx.enqueue_create_buffer(DType.float64, blocks,
                                             label="sums")
        a, c = a_buf.tensor(), c_buf.tensor()
        sums = sums_buf.tensor()
        launch = LaunchConfig.make(blocks, tb)
        with ctx.capture("dot") as graph:
            a_buf.copy_from_host(np.linspace(0.0, 1.0, n))
            ctx.enqueue_function(copy_kernel, a, c, n,
                                 grid_dim=launch.grid_dim,
                                 block_dim=launch.block_dim)
            ctx.enqueue_function(dot_kernel, a, c, sums, n, tb,
                                 grid_dim=launch.grid_dim,
                                 block_dim=launch.block_dim)
            sums_buf.copy_to_host()
        optimized, report = optimize_graph(graph, "fuse")
        assert report.fused == []
        assert optimized.num_kernels == 2
        _replays_equal(graph.replay(), optimized.replay())

    def test_cross_stream_kernels_never_fuse(self):
        """Event-ordered kernels on different streams stay separate."""
        n = 256
        ctx = DeviceContext("h100")
        s1, s2 = ctx.stream("s1"), ctx.stream("s2")
        a_buf = ctx.enqueue_create_buffer(DType.float64, n, label="a")
        b_buf = ctx.enqueue_create_buffer(DType.float64, n, label="b")
        c_buf = ctx.enqueue_create_buffer(DType.float64, n, label="c")
        a, b, c = a_buf.tensor(), b_buf.tensor(), c_buf.tensor()
        launch = LaunchConfig.for_elements(n, 64)
        with ctx.capture("cross", check=True) as graph:
            a_buf.copy_from_host(np.ones(n), stream=s1)
            c_buf.copy_from_host(np.zeros(n), stream=s1)
            b_buf.copy_from_host(np.zeros(n), stream=s1)
            ctx.enqueue_function(copy_kernel, a, c, n,
                                 grid_dim=launch.grid_dim,
                                 block_dim=launch.block_dim, stream=s1)
            s2.wait(ctx.event("copy-done").record(s1))
            ctx.enqueue_function(mul_kernel, b, c, SCALAR, n,
                                 grid_dim=launch.grid_dim,
                                 block_dim=launch.block_dim, stream=s2)
            b_buf.copy_to_host(stream=s2)
        optimized, report = optimize_graph(graph, "fuse")
        assert report.fused == []
        assert optimized.num_kernels == 2
        _replays_equal(graph.replay(), optimized.replay())

    def test_covered_launch_fuses_bit_identical(self):
        """Non-identical launches fuse once regions prove a cover set.

        Both kernels guard with ``i < n`` over the same 256 elements, so
        the symbolic regions under either geometry are identical — the
        follower legally joins the leader's run and replay is
        bit-identical.
        """
        n = 256
        ctx = DeviceContext("h100")
        a_buf = ctx.enqueue_create_buffer(DType.float64, n, label="a")
        c_buf = ctx.enqueue_create_buffer(DType.float64, n, label="c")
        a, c = a_buf.tensor(), c_buf.tensor()
        with ctx.capture("launches") as graph:
            a_buf.copy_from_host(np.ones(n))
            ctx.enqueue_function(copy_kernel, a, c, n,
                                 grid_dim=4, block_dim=64)
            ctx.enqueue_function(add_kernel, a, c, c, n,
                                 grid_dim=2, block_dim=128)
            c_buf.copy_to_host()
        optimized, report = optimize_graph(graph, "fuse")
        assert len(report.fused) == 1
        assert report.fused[0]["parts"] == ["copy_kernel", "add_kernel"]
        assert optimized.num_kernels == 1
        _replays_equal(graph.replay(), optimized.replay())

    def test_uncovered_launch_never_fuses(self):
        """A launch pair whose regions differ stays unfused.

        The follower only carries 128 lanes, so under its own launch it
        writes ``[0..127]`` — running it under the leader's 256-lane
        geometry would double the region.  No cover, no fusion.
        """
        n = 256
        ctx = DeviceContext("h100")
        a_buf = ctx.enqueue_create_buffer(DType.float64, n, label="a")
        c_buf = ctx.enqueue_create_buffer(DType.float64, n, label="c")
        a, c = a_buf.tensor(), c_buf.tensor()
        with ctx.capture("launches") as graph:
            a_buf.copy_from_host(np.ones(n))
            ctx.enqueue_function(copy_kernel, a, c, n,
                                 grid_dim=4, block_dim=64)
            ctx.enqueue_function(add_kernel, a, c, c, n,
                                 grid_dim=1, block_dim=128)
            c_buf.copy_to_host()
        optimized, report = optimize_graph(graph, "fuse")
        assert report.fused == []
        assert optimized.num_kernels == 2
        _replays_equal(graph.replay(), optimized.replay())

    def test_multi_chunk_launch_never_fuses(self):
        """Launches beyond one lane chunk interleave per chunk: unsound."""
        from repro.gpu.vector_executor import VECTOR_CHUNK_LANES

        n = VECTOR_CHUNK_LANES + 1024
        ctx = DeviceContext("h100")
        a_buf = ctx.enqueue_create_buffer(DType.float64, n, label="a")
        c_buf = ctx.enqueue_create_buffer(DType.float64, n, label="c")
        a, c = a_buf.tensor(), c_buf.tensor()
        launch = LaunchConfig.for_elements(n, 256)
        with ctx.capture("chunked") as graph:
            a_buf.copy_from_host(np.ones(n))
            ctx.enqueue_function(copy_kernel, a, c, n,
                                 grid_dim=launch.grid_dim,
                                 block_dim=launch.block_dim)
            ctx.enqueue_function(add_kernel, a, c, c, n,
                                 grid_dim=launch.grid_dim,
                                 block_dim=launch.block_dim)
            c_buf.copy_to_host()
        optimized, report = optimize_graph(graph, "fuse")
        assert report.fused == []
        _replays_equal(graph.replay(), optimized.replay())

    def test_fused_graph_lints_clean(self, stream_capture):
        from repro.analysis.racecheck import analyze_graph

        ctx, graph, bufs = stream_capture
        optimized, _ = optimize_graph(graph, "all", check=True)
        assert analyze_graph(optimized) == []


class TestElision:
    def _capture_with_dead_upload(self):
        n = 64
        ctx = DeviceContext("h100")
        a_buf = ctx.enqueue_create_buffer(DType.float64, n, label="a")
        d_buf = ctx.enqueue_create_buffer(DType.float64, n, label="dead")
        a, c = a_buf.tensor(), d_buf.tensor()
        with ctx.capture("dead") as graph:
            a_buf.copy_from_host(np.ones(n))
            d_buf.copy_from_host(np.zeros(n))     # never read afterwards
            a_buf.copy_to_host()
        return ctx, graph

    def test_dead_upload_is_elided(self):
        ctx, graph = self._capture_with_dead_upload()
        optimized, report = optimize_graph(graph, "elide")
        assert [e["action"] for e in report.elided] == ["dead-write"]
        assert report.elided[0]["buffer"] == "dead"
        assert report.ops_after == report.ops_before - 1
        _replays_equal(graph.replay(), optimized.replay())

    def test_redundant_memset_is_elided(self):
        n = 64
        ctx = DeviceContext("h100")
        buf = ctx.enqueue_create_buffer(DType.float64, n, label="x")
        with ctx.capture("redundant") as graph:
            buf.fill(0.0)                         # overwritten before read
            buf.copy_from_host(np.ones(n))
            buf.copy_to_host()
        optimized, report = optimize_graph(graph, "elide")
        assert [e["action"] for e in report.elided] == ["redundant-write"]
        assert report.elided[0]["kind"] == "memset"
        _replays_equal(graph.replay(), optimized.replay())

        # h2d -> memset -> memset -> kernel read: the first two writes are
        # each overwritten before any read, the last one is read
        a_buf = ctx.enqueue_create_buffer(DType.float64, n, label="a")
        c_buf = ctx.enqueue_create_buffer(DType.float64, n, label="c")
        launch = LaunchConfig.for_elements(n, 64)
        with ctx.capture("rows") as graph:
            a_buf.copy_from_host(np.ones(n))
            a_buf.fill(2.0)
            a_buf.fill(3.0)
            ctx.enqueue_function(copy_kernel, a_buf.tensor(), c_buf.tensor(),
                                 n, grid_dim=launch.grid_dim,
                                 block_dim=launch.block_dim)
            c_buf.copy_to_host()
        optimized, report = optimize_graph(graph, "elide")
        assert [(e["kind"], e["action"]) for e in report.elided] == [
            ("h2d", "redundant-write"), ("memset", "redundant-write")]
        assert report.ops_after == report.ops_before - 2
        replay = optimized.replay()
        _replays_equal(graph.replay(), replay)
        assert np.all(replay["c"] == 3.0)

    def test_live_upload_is_kept(self, stream_capture):
        ctx, graph, bufs = stream_capture
        optimized, report = optimize_graph(graph, "elide")
        assert report.elided == []


class TestPipeline:
    def test_input_graph_is_never_mutated(self, stream_capture):
        ctx, graph, bufs = stream_capture
        before = [(op.kind, op.name) for op in graph.ops]
        optimize_graph(graph, "all")
        after = [(op.kind, op.name) for op in graph.ops]
        assert before == after

    def test_report_shape(self, stream_capture):
        ctx, graph, bufs = stream_capture
        optimized, report = optimize_graph(graph, "all")
        payload = report.as_dict()
        assert payload["graph"] == "stream"
        assert payload["optimized"] == "stream+opt"
        assert payload["passes"] == list(PASS_NAMES)
        assert payload["kernels_before"] == 4
        assert payload["kernels_after"] == 1
        assert payload["ops_before"] == 9  # 3 h2d + 4 kernels + 2 d2h
        assert payload["ops_after"] == 6   # 4 kernels -> 1 fused

    def test_optimized_graph_carries_report(self, stream_capture):
        ctx, graph, bufs = stream_capture
        optimized, report = optimize_graph(graph, "all")
        assert optimized._graphopt_report is report

    def test_workload_request_opt_in(self):
        """RunRequest.optimize feeds the probe through the pipeline."""
        from repro.workloads import get_workload

        wl = get_workload("babelstream")
        plain = wl.tuning_probe(wl.make_request(verify=False))
        optimized = wl.tuning_probe(
            wl.make_request(verify=False, optimize="all"))
        assert plain.num_kernels == 4
        assert optimized.num_kernels == 1
        assert optimized._graphopt_report.fused
        _replays_equal(plain.replay(), optimized.replay())

    def test_workload_request_rejects_hoist(self):
        from repro.workloads import get_workload

        with pytest.raises(ConfigurationError, match="'elide', 'fuse'"):
            get_workload("babelstream").make_request(optimize="hoist")

    def test_rewritten_requires_compiled_graph(self):
        ctx = DeviceContext("h100")
        buf = ctx.enqueue_create_buffer(DType.float64, 8, label="x")
        with pytest.raises(DeviceError, match="capturing"):
            with ctx.capture("open") as graph:
                buf.fill(0.0)
                graph.rewritten(list(graph.ops))
