"""Tests for the device runtime: DeviceContext, DeviceBuffer, streams,
events and captured device graphs."""

import numpy as np
import pytest

from repro.core import (
    DeviceContext,
    DType,
    Layout,
    block_dim,
    block_idx,
    kernel,
    thread_idx,
)
from repro.core.errors import DeviceError, OutOfMemoryError
from repro.core.kernel import KernelModel

#: a modelled store-only kernel, for tests that need non-zero kernel time
_FILL_MODEL = KernelModel(name="fill", dtype=DType.float64, loads_global=0,
                          stores_global=1, flops=0)


@kernel
def _fill(tensor, value, n):
    i = block_idx.x * block_dim.x + thread_idx.x
    if i < n:
        tensor[i] = value


@kernel
def _scale(tensor, factor, n):
    i = block_idx.x * block_dim.x + thread_idx.x
    if i < n:
        tensor[i] = tensor[i] * factor


class TestDeviceBuffer:
    def test_allocation_and_fill(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float32, 100)
        buf.fill(3.0)
        assert np.all(buf.copy_to_host() == 3.0)

    def test_copy_from_host_roundtrip(self, ctx, rng):
        data = rng.normal(size=64)
        buf = ctx.enqueue_create_buffer(DType.float64, 64)
        buf.copy_from_host(data)
        np.testing.assert_allclose(buf.copy_to_host(), data)

    def test_copy_from_host_wrong_size(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 10)
        with pytest.raises(DeviceError):
            buf.copy_from_host(np.zeros(5))

    def test_copy_to_host_into_out(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 8)
        buf.fill(2.0)
        out = np.zeros(8)
        buf.copy_to_host(out)
        assert np.all(out == 2.0)

    def test_tensor_view(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 12)
        t = buf.tensor(Layout.row_major(3, 4))
        t[2, 3] = 5.0
        assert buf.array[11] == 5.0

    def test_free_and_double_free(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 8)
        buf.free()
        with pytest.raises(DeviceError):
            buf.free()

    def test_use_after_free(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 8)
        buf.free()
        with pytest.raises(DeviceError):
            buf.fill(1.0)

    def test_upload_to_freed_buffer_names_it(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 8, label="gone")
        buf.free()
        with pytest.raises(DeviceError, match="freed buffer 'gone'"):
            buf.copy_from_host(np.zeros(8))

    def test_download_from_freed_buffer_names_it(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 8, label="gone")
        buf.free()
        with pytest.raises(DeviceError, match="freed buffer 'gone'"):
            buf.copy_to_host()

    def test_len_and_nbytes(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float32, 10)
        assert len(buf) == 10
        assert buf.nbytes == 40

    def test_out_of_memory(self, ctx):
        huge = ctx.spec.memory_bytes  # more than the reserved-capacity allows
        with pytest.raises(OutOfMemoryError):
            ctx.enqueue_create_buffer(DType.float64, huge // 8 + 1)


class TestDeviceContext:
    def test_kernel_launch_produces_correct_result(self, ctx):
        n = 100
        buf = ctx.enqueue_create_buffer(DType.float32, n)
        t = buf.tensor()
        ctx.enqueue_function(_fill, t, 7.0, n, grid_dim=4, block_dim=32)
        ctx.synchronize()
        assert np.all(buf.copy_to_host() == 7.0)

    def test_multiple_kernels_in_order(self, ctx):
        n = 32
        buf = ctx.enqueue_create_buffer(DType.float64, n)
        t = buf.tensor()
        ctx.enqueue_function(_fill, t, 2.0, n, grid_dim=2, block_dim=16)
        ctx.enqueue_function(_scale, t, 3.0, n, grid_dim=2, block_dim=16)
        ctx.synchronize()
        assert np.all(buf.copy_to_host() == 6.0)

    def test_timeline_records_kernels_and_transfers(self, ctx):
        n = 16
        buf = ctx.enqueue_create_buffer(DType.float32, n)
        buf.copy_from_host(np.zeros(n))
        t = buf.tensor()
        ctx.enqueue_function(_fill, t, 1.0, n, grid_dim=1, block_dim=16)
        buf.copy_to_host()
        kinds = [e.kind for e in ctx.timeline]
        assert kinds.count("kernel") == 1
        assert "h2d" in kinds and "d2h" in kinds

    def test_modelled_time_recorded_with_model(self, ctx):
        n = 1024
        buf = ctx.enqueue_create_buffer(DType.float64, n)
        t = buf.tensor()
        model = KernelModel(name="fill", dtype=DType.float64, loads_global=0,
                            stores_global=1, flops=0)
        ctx.enqueue_function(_fill, t, 1.0, n, grid_dim=4, block_dim=256,
                             model=model)
        ctx.synchronize()
        assert ctx.kernel_time_ms > 0

    def test_memory_summary_tracks_allocations(self, ctx):
        before = ctx.memory_summary["bytes_in_use"]
        buf = ctx.enqueue_create_buffer(DType.float64, 1000)
        assert ctx.memory_summary["bytes_in_use"] == before + 8000
        buf.free()
        assert ctx.memory_summary["bytes_in_use"] == before

    def test_create_tensor_convenience(self, ctx):
        t = ctx.enqueue_create_buffer(DType.float64, 16).tensor(
            Layout.row_major(4, 4))
        t[1, 1] = 3.0
        assert t[1, 1] == 3.0

    def test_reset_timeline(self, ctx):
        ctx.enqueue_create_buffer(DType.float32, 8).copy_to_host()
        ctx.reset_timeline()
        assert ctx.timeline == []

    def test_unknown_gpu_rejected(self):
        from repro.core.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            DeviceContext("rtx9090")

    def test_use_after_free_in_kernel_names_the_buffer(self, ctx):
        # a tensor taken before free() still reaches the launch, which
        # refuses the freed buffer by name
        n = 8
        buf = ctx.enqueue_create_buffer(DType.float64, n, label="victim")
        t = buf.tensor()
        buf.free()
        with pytest.raises(DeviceError, match="uses freed buffer 'victim'"):
            ctx.enqueue_function(_fill, t, 1.0, n, grid_dim=1, block_dim=8)


class TestEnqueueRunsAtOnce:
    """Outside a capture every enqueue executes before it returns, in
    enqueue order; ``synchronize()`` only hands back the timeline."""

    def test_kernel_result_is_visible_without_synchronize(self, ctx):
        n = 16
        buf = ctx.enqueue_create_buffer(DType.float32, n)
        ctx.enqueue_function(_fill, buf.tensor(), 1.0, n, grid_dim=1,
                             block_dim=16)
        assert np.all(buf.array == 1.0)
        assert [e.kind for e in ctx.timeline] == ["kernel"]

    def test_h2d_kernel_d2h_run_in_enqueue_order(self, ctx):
        n = 16
        buf = ctx.enqueue_create_buffer(DType.float64, n)
        buf.copy_from_host(np.full(n, 2.0))
        ctx.enqueue_function(_scale, buf.tensor(), 3.0, n, grid_dim=1,
                             block_dim=16)
        out = buf.copy_to_host(np.full(n, -1.0))
        assert np.all(out == 6.0)
        assert [e.kind for e in ctx.timeline] == ["h2d", "kernel", "d2h"]

    def test_copy_to_host_returns_the_data(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 8)
        buf.copy_from_host(np.arange(8.0))
        result = buf.copy_to_host()
        np.testing.assert_array_equal(result, np.arange(8.0))
        assert not np.shares_memory(result, buf.array)

    def test_host_mutation_after_upload_does_not_reach_the_buffer(self, ctx):
        src = np.full(4, 1.0)
        buf = ctx.enqueue_create_buffer(DType.float64, 4)
        buf.copy_from_host(src)
        src[:] = 99.0
        assert np.all(buf.array == 1.0)

    def test_enqueue_fill_executes_at_once(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 8)
        ctx.enqueue_fill(buf, 7.0)
        assert np.all(buf.array == 7.0)

    def test_synchronize_returns_the_timeline_and_is_idempotent(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 4)
        buf.fill(1.0)
        buf.copy_to_host()
        first = ctx.synchronize()
        assert [e.kind for e in first] == ["memset", "d2h"]
        assert ctx.synchronize() == first     # nothing left to run
        assert ctx.stream("s").synchronize().name == "s"

    def test_reset_timeline_restarts_clocks_from_zero(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 4096)
        buf.copy_from_host(np.zeros(4096))
        buf.copy_from_host(np.zeros(4096))
        ctx.reset_timeline()
        buf.fill(5.0)
        (memset,) = ctx.timeline
        assert memset.start_ms == 0.0
        assert ctx.elapsed_ms == memset.end_ms > 0.0
        assert np.all(buf.array == 5.0)

    def test_cross_stream_pipeline_executes_in_dag_order(self, ctx):
        n = 16
        buf = ctx.enqueue_create_buffer(DType.float64, n)
        h2d, compute = ctx.stream("h2d"), ctx.stream("compute")
        buf.copy_from_host(np.full(n, 2.0), stream=h2d)
        compute.wait(ctx.event("up").record(h2d))
        ctx.enqueue_function(_scale, buf.tensor(), 2.0, n, grid_dim=1,
                             block_dim=n, stream=compute)
        out = buf.copy_to_host(stream=compute)
        assert np.all(out == 4.0)
        upload = ctx.lanes["h2d"][0]
        (launch,) = [e for e in ctx.timeline if e.kind == "kernel"]
        assert launch.start_ms >= upload.end_ms

    def test_event_has_a_timestamp_once_recorded(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 1 << 12)
        buf.copy_from_host(np.zeros(1 << 12))
        ev = ctx.event("now").record()
        assert ev.recorded
        assert ev.elapsed_ms() == pytest.approx(ctx.elapsed_ms)
        assert ev.elapsed_ms() > 0.0


class TestFillMemset:
    def test_fill_is_a_timeline_memset_event(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 1024, label="m")
        buf.fill(3.0)
        memsets = [e for e in ctx.timeline if e.kind == "memset"]
        assert len(memsets) == 1
        assert memsets[0].modelled_time_ms > 0.0
        assert "m" in memsets[0].name
        assert np.all(buf.array == 3.0)


class TestEvents:
    def test_elapsed_ms_is_monotonic_along_a_stream(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 4096)
        stamps = []
        for i in range(4):
            buf.copy_from_host(np.zeros(4096))
            stamps.append(ctx.event(f"e{i}").record().elapsed_ms())
        assert stamps == sorted(stamps)
        assert stamps[0] < stamps[-1]         # strictly advancing with work

    def test_captured_event_has_a_timestamp_after_replay(self, ctx):
        with ctx.capture() as graph:
            ev = ctx.event("later").record()
        with pytest.raises(DeviceError, match="no timestamp"):
            ev.elapsed_ms()
        graph.replay()
        assert ev.elapsed_ms() == 0.0         # recorded on an idle stream

    def test_elapsed_on_unrecorded_event_raises(self, ctx):
        with pytest.raises(DeviceError, match="never recorded"):
            ctx.event("nobody").elapsed_ms()

    def test_wait_on_unrecorded_event_raises(self, ctx):
        with pytest.raises(DeviceError, match="never recorded"):
            ctx.stream("s").wait(ctx.event("unrecorded"))

    def test_reset_timeline_invalidates_recorded_events(self, ctx):
        # A pre-reset timestamp belongs to the discarded timeline; waiting
        # on it afterwards would schedule work at a stale absolute time and
        # inflate elapsed_ms past serial_time_ms.
        buf = ctx.enqueue_create_buffer(DType.float64, 1 << 16)
        buf.copy_from_host(np.zeros(1 << 16))
        ev = ctx.event("stale").record()
        ctx.reset_timeline()
        with pytest.raises(DeviceError, match="never recorded"):
            ctx.stream("s2").wait(ev)
        with pytest.raises(DeviceError, match="never recorded"):
            ev.elapsed_ms()
        buf.copy_to_host()
        assert ctx.elapsed_ms == pytest.approx(ctx.serial_time_ms)
        ev.record()                            # re-recording revives it
        assert ev.elapsed_ms() == pytest.approx(ctx.elapsed_ms)

    def test_elapsed_since_reports_the_interval(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 1 << 16)
        start = ctx.event("start").record()
        buf.copy_from_host(np.zeros(1 << 16))
        stop = ctx.event("stop").record()
        interval = stop.elapsed_ms(since=start)
        assert interval == pytest.approx(
            stop.elapsed_ms() - start.elapsed_ms())
        assert interval > 0.0


class TestStreamsAndOverlap:
    def test_stream_identity_and_pool(self, ctx):
        assert ctx.stream("a") is ctx.stream("a")
        assert ctx.stream_pool(1) == [ctx.default_stream]
        pool = ctx.stream_pool(3)
        assert len(pool) == 3 and len({s.name for s in pool}) == 3

    def test_foreign_stream_rejected(self, ctx):
        other = DeviceContext("h100")
        with pytest.raises(DeviceError):
            ctx.enqueue_create_buffer(DType.float64, 4).fill(
                0.0, stream=other.default_stream)

    def test_foreign_event_rejected_by_wait(self, ctx):
        # a foreign timestamp would leak another context's absolute
        # timeline into this one's clocks
        other = DeviceContext("h100")
        other.enqueue_create_buffer(DType.float64, 1 << 18).copy_to_host()
        ev = other.event("theirs").record()
        with pytest.raises(DeviceError, match="belong"):
            ctx.stream("s").wait(ev)

    def test_foreign_event_rejected_by_elapsed_since(self, ctx):
        other = DeviceContext("h100")
        theirs = other.event("theirs").record()
        mine = ctx.event("mine").record()
        with pytest.raises(DeviceError, match="same"):
            mine.elapsed_ms(since=theirs)

    def test_fan_in_joins_lanes_and_skips_the_target(self, ctx):
        pool = ctx.stream_pool(3)
        compute = ctx.stream("compute")
        bufs = [ctx.enqueue_create_buffer(DType.float64, 1 << 16)
                for _ in pool]
        for buf, lane in zip(bufs, pool):
            buf.copy_from_host(np.zeros(1 << 16), stream=lane)
        ctx.fan_in(pool + [compute], compute, prefix="up")
        bufs[0].copy_to_host(stream=compute)
        # the download starts only after the slowest upload lane
        download = ctx.timeline[-1]
        assert download.start_ms == pytest.approx(
            max(e.end_ms for e in ctx.timeline[:3]))
        # no join event was recorded for the target stream itself
        assert not any(e.kind == "event" and e.stream == "compute"
                       for e in ctx.timeline)

    def test_two_stream_copy_compute_pipeline_beats_serial_sum(self, ctx):
        # ISSUE-4 acceptance: with the copy on one stream and an
        # independent kernel on another, the makespan must be strictly
        # less than the serial sum of the events.
        copy_s, compute_s = ctx.stream("copy"), ctx.stream("compute")
        big = ctx.enqueue_create_buffer(DType.float64, 1 << 20)
        big.copy_from_host(np.zeros(1 << 20), stream=copy_s)
        n = 256
        work = ctx.enqueue_create_buffer(DType.float64, n)
        ctx.enqueue_function(_fill, work.tensor(), 1.0, n, grid_dim=1,
                             block_dim=n, model=_FILL_MODEL, stream=compute_s)
        assert ctx.elapsed_ms < ctx.serial_time_ms
        lanes = ctx.lanes
        assert set(lanes) == {"copy", "compute"}
        breakdown = ctx.pipeline_breakdown()
        assert breakdown.overlap_saved_ms > 0.0
        assert breakdown.as_dict()["lanes"]["copy"] > 0.0

    def test_single_stream_pipeline_is_serial(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 1 << 18)
        buf.copy_from_host(np.zeros(1 << 18))
        buf.copy_to_host()
        assert ctx.elapsed_ms == pytest.approx(ctx.serial_time_ms)

    def test_event_wait_serialises_across_streams(self, ctx):
        s1, s2 = ctx.stream("s1"), ctx.stream("s2")
        buf = ctx.enqueue_create_buffer(DType.float64, 1 << 18)
        buf.copy_from_host(np.zeros(1 << 18), stream=s1)
        done = ctx.event("h2d-done").record(s1)
        s2.wait(done)
        buf.copy_to_host(stream=s2)
        # the dependent copy cannot overlap the first one
        assert ctx.elapsed_ms == pytest.approx(ctx.serial_time_ms)


class TestDeviceGraph:
    def _captured_fill(self, ctx, n=64):
        buf = ctx.enqueue_create_buffer(DType.float64, n, label="x")
        t = buf.tensor()
        with ctx.capture("fill-step") as graph:
            buf.copy_from_host(np.zeros(n))
            ctx.enqueue_function(_scale, t, 3.0, n, grid_dim=1, block_dim=n,
                                 model=_FILL_MODEL)
            buf.copy_to_host()
        return buf, graph

    def test_capture_records_without_executing(self, ctx):
        buf, graph = self._captured_fill(ctx)
        assert np.all(buf.array == 0.0)
        assert ctx.timeline == []
        assert graph.num_operations == 3 and graph.num_kernels == 1
        assert graph.makespan_ms > 0.0
        assert graph.input_labels == ("x",)

    def test_replay_executes_and_rebinds_inputs(self, ctx):
        buf, graph = self._captured_fill(ctx, n=64)
        out = graph.replay(x=np.full(64, 2.0))
        np.testing.assert_array_equal(out["x"], np.full(64, 6.0))
        out2 = graph.replay()                 # falls back to captured source
        np.testing.assert_array_equal(out2["x"], np.zeros(64))
        assert graph.replays == 2

    def test_replay_appends_one_summary_timeline_event(self, ctx):
        _, graph = self._captured_fill(ctx)
        graph.replay()
        graph.replay()
        kinds = [e.kind for e in ctx.timeline]
        assert kinds == ["graph", "graph"]
        assert ctx.elapsed_ms == pytest.approx(2 * graph.makespan_ms)

    def test_unknown_binding_is_a_clean_error(self, ctx):
        _, graph = self._captured_fill(ctx)
        with pytest.raises(DeviceError, match="nope"):
            graph.replay(nope=np.zeros(64))

    def test_wrong_size_binding_rejected(self, ctx):
        _, graph = self._captured_fill(ctx, n=64)
        with pytest.raises(DeviceError, match="elements"):
            graph.replay(x=np.zeros(8))

    def test_replay_of_freed_buffer_names_it(self, ctx):
        buf, graph = self._captured_fill(ctx)
        buf.free()
        with pytest.raises(DeviceError, match="x"):
            graph.replay()

    def test_replay_before_capture_closes_raises(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 4)
        with ctx.capture() as graph:
            buf.fill(1.0)
            with pytest.raises(DeviceError, match="capturing"):
                graph.replay()

    def test_synchronize_during_capture_raises(self, ctx):
        with ctx.capture():
            with pytest.raises(DeviceError, match="capture"):
                ctx.synchronize()

    def test_nested_capture_rejected(self, ctx):
        with ctx.capture():
            with pytest.raises(DeviceError, match="already active"):
                ctx.capture().__enter__()

    def test_noncontiguous_copy_to_host_out_rejected(self, ctx):
        # reshape(-1) of an F-order destination would be a copy: the write
        # would silently miss the caller's array
        buf = ctx.enqueue_create_buffer(DType.float64, 4)
        buf.fill(7.0)
        with pytest.raises(DeviceError, match="contiguous"):
            buf.copy_to_host(np.zeros((2, 2)).T)
        out2d = np.zeros((2, 2))              # C-order 2-D view is fine
        buf.copy_to_host(out2d)
        assert np.all(out2d == 7.0)

    def test_captured_upload_snapshots_its_source(self, ctx):
        src = np.full(4, 1.0)
        buf = ctx.enqueue_create_buffer(DType.float64, 4, label="src")
        with ctx.capture() as graph:
            buf.copy_from_host(src)
        src[:] = 99.0                         # caller mutates before replay
        graph.replay()
        assert np.all(buf.array == 1.0)

    def test_replay_reads_contents_written_before_it(self, ctx):
        # an upload enqueued after the capture has run by the time the
        # replay's download reads the buffer
        buf = ctx.enqueue_create_buffer(DType.float64, 4, label="src")
        with ctx.capture() as graph:
            buf.copy_to_host()
        buf.copy_from_host(np.full(4, 5.0))
        out = graph.replay()
        np.testing.assert_array_equal(out["src"], np.full(4, 5.0))

    def test_wait_on_event_from_outside_the_capture_rejected(self, ctx):
        # Same rule as CUDA stream capture: the dependency would otherwise
        # silently vanish from the replayed DAG and its makespan.
        buf = ctx.enqueue_create_buffer(DType.float64, 4)
        outside = ctx.event("outside").record()
        s = ctx.stream("s")
        with pytest.raises(DeviceError, match="outside"):
            with ctx.capture():
                s.wait(outside)
                buf.copy_to_host(stream=s)

    def test_duplicate_h2d_labels_rejected_at_capture(self, ctx):
        # Replay bindings are keyed by label; two buffers sharing one would
        # silently rebind only the last — refuse the capture instead.
        a = ctx.enqueue_create_buffer(DType.float64, 4, label="same")
        b = ctx.enqueue_create_buffer(DType.float64, 4, label="same")
        with pytest.raises(DeviceError, match="same"):
            with ctx.capture():
                a.copy_from_host(np.zeros(4))
                b.copy_from_host(np.ones(4))

    def test_duplicate_d2h_labels_rejected_at_capture(self, ctx):
        a = ctx.enqueue_create_buffer(DType.float64, 4, label="out")
        b = ctx.enqueue_create_buffer(DType.float64, 4, label="out")
        with pytest.raises(DeviceError, match="out"):
            with ctx.capture():
                a.copy_to_host()
                b.copy_to_host()

    def test_second_d2h_of_one_label_rejected_at_capture(self, ctx):
        # An intermediate snapshot would silently collapse to the final
        # state in the label-keyed outputs dict — refuse the capture.
        buf = ctx.enqueue_create_buffer(DType.float64, 4, label="f")
        t = buf.tensor()
        with pytest.raises(DeviceError, match="two D2H"):
            with ctx.capture():
                buf.copy_to_host()
                ctx.enqueue_function(_scale, t, 2.0, 4, grid_dim=1,
                                     block_dim=4)
                buf.copy_to_host()

    def test_replay_during_active_capture_rejected(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 4, label="x")
        with ctx.capture() as inner:
            buf.copy_to_host()
        with ctx.capture():
            with pytest.raises(DeviceError, match="capture is active"):
                inner.replay()

    def test_second_h2d_of_one_label_rejected_at_capture(self, ctx):
        # A replay binding for the label would silently rebind *both*
        # uploads (including a mid-graph re-seed) — refuse the capture.
        buf = ctx.enqueue_create_buffer(DType.float64, 4, label="x")
        with pytest.raises(DeviceError, match="two H2D"):
            with ctx.capture():
                buf.copy_from_host(np.ones(4))
                buf.copy_from_host(np.full(4, 2.0))

    def test_multi_stream_graph_makespan_reflects_overlap(self, ctx):
        s1, s2 = ctx.stream("g1"), ctx.stream("g2")
        a = ctx.enqueue_create_buffer(DType.float64, 1 << 18, label="a")
        b = ctx.enqueue_create_buffer(DType.float64, 1 << 18, label="b")
        with ctx.capture("wide") as graph:
            a.copy_from_host(np.zeros(1 << 18), stream=s1)
            b.copy_from_host(np.zeros(1 << 18), stream=s2)
        serial_guess = 2 * graph.makespan_ms
        with ctx.capture("narrow") as serial_graph:
            a.copy_from_host(np.zeros(1 << 18))
            b.copy_from_host(np.zeros(1 << 18))
        assert graph.makespan_ms < serial_graph.makespan_ms
        assert serial_graph.makespan_ms == pytest.approx(serial_guess)

    def test_multi_stream_graph_replay_keeps_per_lane_accounting(self, ctx):
        s1, s2 = ctx.stream("g1"), ctx.stream("g2")
        a = ctx.enqueue_create_buffer(DType.float64, 1 << 18, label="a")
        b = ctx.enqueue_create_buffer(DType.float64, 1 << 16, label="b")
        with ctx.capture("wide") as graph:
            a.copy_from_host(np.zeros(1 << 18), stream=s1)
            b.copy_from_host(np.zeros(1 << 16), stream=s2)
        graph.replay()
        lanes = ctx.pipeline_breakdown().lanes
        assert lanes["g1"] > 0.0 and lanes["g2"] > 0.0   # not all on one lane
        assert lanes["g1"] > lanes["g2"]                 # bigger copy, busier
        assert ctx.elapsed_ms == pytest.approx(graph.makespan_ms)

    def test_copy_to_host_out_rejected_during_capture(self, ctx):
        buf = ctx.enqueue_create_buffer(DType.float64, 4, label="x")
        dest = np.zeros(4)
        with pytest.raises(DeviceError, match="replay"):
            with ctx.capture():
                buf.copy_to_host(dest)

    def test_captured_copy_to_host_returns_none(self, ctx):
        # during capture the call only registers the download — returning
        # an array would hand back data no code path ever writes
        buf = ctx.enqueue_create_buffer(DType.float64, 4, label="x")
        with ctx.capture() as graph:
            assert buf.copy_to_host() is None
        assert "x" in graph.replay()

    def test_graph_lane_busy_excludes_wait_idle(self, ctx):
        # A cross-stream wait must not count the waiting lane's idle time
        # as busy work: a fully serialised captured pipeline reports the
        # same serial_ms and zero overlap, exactly like direct enqueue.
        s1, s2 = ctx.stream("g1"), ctx.stream("g2")
        big = ctx.enqueue_create_buffer(DType.float64, 1 << 18, label="big")
        small = ctx.enqueue_create_buffer(DType.float64, 1 << 12, label="sm")
        with ctx.capture("serialised") as graph:
            big.copy_from_host(np.zeros(1 << 18), stream=s1)
            s2.wait(ctx.event("up").record(s1))
            small.copy_to_host(stream=s2)
        graph.replay()
        breakdown = ctx.pipeline_breakdown()
        assert breakdown.overlap_saved_ms == pytest.approx(0.0)
        assert breakdown.elapsed_ms == pytest.approx(graph.makespan_ms)

    def test_rerecorded_event_in_capture_uses_latest_record(self, ctx):
        # a wait observes the latest preceding record, as on a real stream
        s1, s2 = ctx.stream("r1"), ctx.stream("r2")
        first = ctx.enqueue_create_buffer(DType.float64, 1 << 18, label="r_a")
        second = ctx.enqueue_create_buffer(DType.float64, 1 << 18, label="r_b")
        ev = ctx.event("tick")
        with ctx.capture("rerecord") as graph:
            first.copy_from_host(np.zeros(1 << 18), stream=s1)
            ev.record(s1)
            second.copy_from_host(np.ones(1 << 18), stream=s1)
            ev.record(s1)                     # re-record after the 2nd copy
            s2.wait(ev)
            second.copy_to_host(stream=s2)
        with ctx.capture("serial") as serial:
            first.copy_from_host(np.zeros(1 << 18))
            second.copy_from_host(np.ones(1 << 18))
            second.copy_to_host()
        assert graph.makespan_ms == pytest.approx(serial.makespan_ms)


class TestReplayRuns:
    """Untraced replays of one graph in a row are kept as one run entry."""

    @staticmethod
    def _two_stream_graph(ctx, name="pipe", n=256):
        up, down = ctx.stream(f"{name}-up"), ctx.stream(f"{name}-down")
        buf = ctx.enqueue_create_buffer(DType.float64, n, label=name)
        with ctx.capture(name) as graph:
            buf.copy_from_host(np.zeros(n), stream=up)
            down.wait(ctx.event(f"{name}-done").record(up))
            buf.copy_to_host(stream=down)
        return graph

    @staticmethod
    def _rows(ctx):
        return [(e.kind, e.name, e.stream, e.modelled_time_ms, e.start_ms,
                 e.end_ms, {k: v for k, v in e.details.items()
                            if k != "schedule"})
                for e in ctx.timeline]

    def _drive(self, traced):
        from repro.obs.trace import install_trace_collector

        ctx = DeviceContext("h100")
        a = self._two_stream_graph(ctx, "a")
        b = self._two_stream_graph(ctx, "b", n=1024)
        extra = ctx.enqueue_create_buffer(DType.float64, 64, label="extra")
        steps = [a.replay, a.replay, b.replay, a.replay, b.replay, b.replay,
                 lambda: extra.fill(1.0), a.replay, a.replay]
        for step in steps:
            if traced:
                with install_trace_collector():
                    step()
            else:
                step()
        return ctx

    def test_runs_expand_to_the_events_traced_replays_append(self):
        # a traced replay appends its events directly: the untraced runs
        # must expand to the same events, bit for bit
        untraced, traced = self._drive(False), self._drive(True)
        assert self._rows(untraced) == self._rows(traced)
        assert untraced.elapsed_ms == traced.elapsed_ms
        assert untraced.serial_time_ms == traced.serial_time_ms
        assert (untraced.pipeline_breakdown().as_dict()
                == traced.pipeline_breakdown().as_dict())

    def test_untraced_replays_retain_constant_memory(self, ctx):
        import gc
        import tracemalloc

        graph = self._two_stream_graph(ctx)
        tracemalloc.start()
        try:
            for _ in range(1000):
                graph.replay()
            gc.collect()
            after_1k = tracemalloc.get_traced_memory()[0]
            for _ in range(9000):
                graph.replay()
            gc.collect()
            after_10k = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after_10k - after_1k < 64 * 1024
        # the expanded timeline is the replay recurrence, exactly
        start, ends, busy = 0.0, [], {}
        for _ in range(10000):
            for stream, lane_busy, lane_end in graph._shape.lanes:
                ends.append(start + lane_end)
                busy.setdefault(stream, []).append(lane_busy)
            start = start + graph.makespan_ms
        breakdown = ctx.pipeline_breakdown()
        assert ctx.elapsed_ms == breakdown.elapsed_ms == max(ends)
        assert breakdown.lanes == {s: sum(v) for s, v in busy.items()}
        assert breakdown.operations == 20000
        assert [e.details["replay"] for e in ctx.timeline[-2:]] == [10000] * 2

    def test_reset_timeline_drops_runs(self, ctx):
        graph = self._two_stream_graph(ctx)
        graph.replay()
        graph.replay()
        ctx.reset_timeline()
        assert ctx.timeline == [] and ctx.elapsed_ms == 0.0
        graph.replay()
        assert [(e.start_ms, e.details["replay"]) for e in ctx.timeline] \
            == [(0.0, 3), (0.0, 3)]

    def test_adopt_timeline_copies_the_executed_timeline(self, ctx):
        graph = self._two_stream_graph(ctx)
        graph.replay()
        graph.replay()
        other = DeviceContext("h100")
        other.adopt_timeline(ctx)
        rows = self._rows(ctx)
        ctx.reset_timeline()
        assert self._rows(other) == rows and len(rows) == 4
