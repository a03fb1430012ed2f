"""The NumPy-codegen lowering tier: legality, bit-identity, memoisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import verifier
from repro.core.device import DeviceContext
from repro.core.dtypes import DType
from repro.core.errors import LayoutError
from repro.core.intrinsics import any_lane, block_dim, block_idx, compress_lanes, thread_idx
from repro.core.kernel import LaunchConfig, kernel
from repro.core.layout import Layout, LayoutTensor
from repro.gpu import vector_executor
from repro.gpu.executor import KernelExecutor
from repro.graphopt import lower as lower_mod
from repro.graphopt import lower_launch, lower_source, lowering_report
from repro.kernels.babelstream.kernels import (
    SCALAR,
    START_A,
    START_B,
    START_C,
    add_kernel,
    copy_kernel,
    dot_kernel,
    mul_kernel,
    triad_kernel,
)
from repro.kernels.stencil.kernel import laplacian_kernel
from repro.kernels.stencil.problem import StencilProblem
from repro.kernels.stencil.runner import stencil_launch_config


N = 1 << 10


@kernel(name="_inplace_scale", vector_safe=True, strict=True)
def _inplace_scale(a, scalar, n):
    """``a[i] = scalar * a[i]`` — the store target is also read."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    a[i] = scalar * a[i]


@kernel(name="_scale2d", vector_safe=True, strict=True)
def _scale2d(f, u, nx, ny):
    """``f[i, j] = 2 * u[i, j]`` over a 2-D launch."""
    i = block_dim.x * block_idx.x + thread_idx.x
    j = block_dim.y * block_idx.y + thread_idx.y
    m = (i < nx) & (j < ny)
    if not any_lane(m):
        return
    i, j = compress_lanes(m, i, j)
    f[i, j] = 2.0 * u[i, j]


@kernel(name="_shift_double", vector_safe=True)
def _shift_double(a, n):
    """``a[i] = 2 * a[i - 1]``: each lane reads its left neighbour's store."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = (i > 0) & (i < n)
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    a[i] = 2.0 * a[i - 1]


@kernel(name="_parse_once_probe", vector_safe=True)
def _parse_once_probe(a, n):
    """Outside the lowerable subset (an augmented store): always falls back."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    a[i] += 1.0


def _scale2d_tensors(f_layout):
    u = LayoutTensor(DType.float64, Layout.row_major(4, 6),
                     np.arange(24.0), mut=False)
    f = LayoutTensor(DType.float64, f_layout, np.zeros(24))
    return f, u


def _stream_tensors(ctx, n=N):
    bufs, tensors = {}, {}
    for label, start in (("a", START_A), ("b", START_B), ("c", START_C)):
        bufs[label] = ctx.enqueue_create_buffer(DType.float64, n, label=label)
        bufs[label].copy_from_host(np.full(n, start))
        tensors[label] = bufs[label].tensor()
    return bufs, tensors


class TestLowerSource:
    def test_copy_kernel_lowers_to_whole_array_slice(self):
        ctx = DeviceContext("h100")
        bufs, t = _stream_tensors(ctx)
        launch = LaunchConfig.for_elements(N, 256)
        source = lower_source(copy_kernel, (t["a"], t["c"], N), launch)
        assert source is not None
        assert "def _entry(*args):" in source
        # the tail guard bakes to the exact extent: lanes [0, N)
        assert f"_d1[0:{N}] = _d0[0:{N}]" in source

    def test_partial_tail_bakes_tight_bounds(self):
        # n smaller than the launched lane count: the mask tightens the slice
        ctx = DeviceContext("h100")
        bufs, t = _stream_tensors(ctx)
        launch = LaunchConfig.for_elements(N, 256)  # 1024 lanes
        source = lower_source(copy_kernel, (t["a"], t["c"], 1000), launch)
        assert "[0:1000]" in source

    def test_read_modify_write_materialises_rhs(self):
        ctx = DeviceContext("h100")
        bufs, t = _stream_tensors(ctx)
        launch = LaunchConfig.for_elements(N, 256)
        source = lower_source(_inplace_scale, (t["a"], SCALAR, N), launch)
        assert ".copy()" in source

    def test_barrier_kernel_is_rejected_with_reason(self):
        ctx = DeviceContext("h100")
        n, tb = 512, 64
        bufs, t = _stream_tensors(ctx, n)
        sums_buf = ctx.enqueue_create_buffer(DType.float64, n // tb,
                                             label="sums")
        args = (t["a"], t["b"], sums_buf.tensor(), n, tb)
        launch = LaunchConfig.make(n // tb, tb)
        assert lower_launch(dot_kernel, args, launch) is None
        report = lowering_report(dot_kernel, args, launch)
        assert report["kernel"] == "dot_kernel"
        assert report["lowered"] is False
        assert report["reason"]

    def test_report_for_lowerable_kernel_carries_source(self):
        ctx = DeviceContext("h100")
        bufs, t = _stream_tensors(ctx)
        launch = LaunchConfig.for_elements(N, 256)
        report = lowering_report(copy_kernel, (t["a"], t["c"], N), launch)
        assert report["lowered"] is True
        assert "def _entry" in report["source"]


class TestMemoisation:
    def test_same_specialisation_reuses_the_entry(self):
        ctx = DeviceContext("h100")
        bufs, t = _stream_tensors(ctx)
        launch = LaunchConfig.for_elements(N, 256)
        args = (t["a"], t["c"], N)
        first = lower_launch(copy_kernel, args, launch)
        second = lower_launch(copy_kernel, args, launch)
        assert first is second is not None

    def test_new_scalar_value_is_a_new_specialisation(self):
        # bounds bake scalar argument values into the generated slices
        ctx = DeviceContext("h100")
        bufs, t = _stream_tensors(ctx)
        launch = LaunchConfig.for_elements(N, 256)
        full = lower_launch(copy_kernel, (t["a"], t["c"], N), launch)
        tail = lower_launch(copy_kernel, (t["a"], t["c"], N - 24), launch)
        assert full is not None and tail is not None
        assert full is not tail


class TestExecutorDispatch:
    def test_lowered_mode_runs_the_compiled_entry(self):
        ctx = DeviceContext("h100")
        bufs, t = _stream_tensors(ctx)
        launch = LaunchConfig.for_elements(N, 256)
        result = KernelExecutor().launch(copy_kernel, (t["a"], t["c"], N),
                                         launch, mode="lowered")
        assert result.mode == "lowered"
        assert result.counters.threads_run == launch.total_threads
        assert result.counters.blocks_run == launch.num_blocks
        np.testing.assert_array_equal(bufs["c"].array, bufs["a"].array)

    def test_lowered_mode_falls_back_for_unsupported_bodies(self):
        ctx = DeviceContext("h100")
        n, tb = 512, 64
        bufs, t = _stream_tensors(ctx, n)
        sums_buf = ctx.enqueue_create_buffer(DType.float64, n // tb,
                                             label="sums")
        args = (t["a"], t["b"], sums_buf.tensor(), n, tb)
        result = KernelExecutor().launch(dot_kernel, args,
                                         LaunchConfig.make(n // tb, tb),
                                         mode="lowered")
        assert result.mode == "vectorized"  # fell back to the interpreter
        expected = float(np.dot(bufs["a"].array, bufs["b"].array))
        assert float(np.sum(sums_buf.array)) == pytest.approx(expected)

    def test_stream_sweep_bit_identical_to_vectorized(self):
        results = {}
        for mode in ("vectorized", "lowered"):
            ctx = DeviceContext("h100")
            bufs, t = _stream_tensors(ctx)
            launch = LaunchConfig.for_elements(N, 256)
            ex = KernelExecutor()
            for kern, args in ((copy_kernel, (t["a"], t["c"], N)),
                               (mul_kernel, (t["b"], t["c"], SCALAR, N)),
                               (add_kernel, (t["a"], t["b"], t["c"], N)),
                               (triad_kernel, (t["a"], t["b"], t["c"],
                                               SCALAR, N))):
                res = ex.launch(kern, args, launch, mode=mode)
                assert res.mode == mode
            results[mode] = {k: bufs[k].array.copy() for k in bufs}
        for label in ("a", "b", "c"):
            assert np.array_equal(results["vectorized"][label],
                                  results["lowered"][label]), label

    def test_inplace_kernel_bit_identical_to_vectorized(self):
        results = {}
        for mode in ("vectorized", "lowered"):
            ctx = DeviceContext("h100")
            bufs, t = _stream_tensors(ctx)
            res = KernelExecutor().launch(_inplace_scale,
                                          (t["a"], SCALAR, N),
                                          LaunchConfig.for_elements(N, 256),
                                          mode=mode)
            assert res.mode == mode
            results[mode] = bufs["a"].array.copy()
        assert np.array_equal(results["vectorized"], results["lowered"])

    def test_stencil_bit_identical_to_vectorized(self):
        L = 16
        problem = StencilProblem(L, "float64")
        u_host = problem.initial_field().reshape(-1)
        sargs = problem.inverse_spacing_squared
        launch = stencil_launch_config(L, (64, 4, 1))
        layout = Layout.row_major(L, L, L)
        results = {}
        for mode in ("vectorized", "lowered"):
            ctx = DeviceContext("h100")
            u_buf = ctx.enqueue_create_buffer(problem.dtype, L ** 3,
                                              label="u")
            f_buf = ctx.enqueue_create_buffer(problem.dtype, L ** 3,
                                              label="f")
            u_buf.copy_from_host(u_host)
            u = u_buf.tensor(layout, mut=False, bounds_check=False)
            f = f_buf.tensor(layout, bounds_check=False)
            res = KernelExecutor().launch(
                laplacian_kernel, (f, u, L, L, L) + tuple(sargs),
                launch, mode=mode)
            assert res.mode == mode
            results[mode] = f_buf.array.copy()
        assert np.any(results["lowered"] != 0.0)
        assert np.array_equal(results["vectorized"], results["lowered"])


class TestSpecialisationKey:
    """The memo key must separate every specialisation that lowers differently."""

    LAUNCH = LaunchConfig.make((1, 1), (4, 6))

    def test_layout_is_part_of_the_key(self):
        row_f, u = _scale2d_tensors(Layout.row_major(4, 6))
        res = KernelExecutor().launch(_scale2d, (row_f, u, 4, 6), self.LAUNCH)
        assert res.mode == "lowered"
        # Same shape and dtype, column-major output: the row-major entry
        # must not be reused (it would scatter into the wrong elements).
        outputs = {}
        for mode in ("auto", "vectorized"):
            col_f, u = _scale2d_tensors(Layout.col_major(4, 6))
            res = KernelExecutor().launch(_scale2d, (col_f, u, 4, 6),
                                          self.LAUNCH, mode=mode)
            assert res.mode == "vectorized"
            outputs[mode] = col_f.to_numpy()
        assert np.array_equal(outputs["auto"], outputs["vectorized"])
        assert np.array_equal(outputs["auto"],
                              2.0 * np.arange(24.0).reshape(4, 6))

    def test_store_into_immutable_tensor_raises_like_the_interpreter(self):
        f, u = _scale2d_tensors(Layout.row_major(4, 6))
        res = KernelExecutor().launch(_scale2d, (f, u, 4, 6), self.LAUNCH)
        assert res.mode == "lowered"
        frozen, u = _scale2d_tensors(Layout.row_major(4, 6))
        frozen.mut = False
        assert lower_launch(_scale2d, (frozen, u, 4, 6), self.LAUNCH) is None
        report = lowering_report(_scale2d, (frozen, u, 4, 6), self.LAUNCH)
        assert "immutable" in report["reason"]
        with pytest.raises(LayoutError):
            KernelExecutor().launch(_scale2d, (frozen, u, 4, 6), self.LAUNCH)
        assert not np.any(frozen.ptr)

    def test_multi_chunk_shifted_self_read_stays_interpreted(self,
                                                             monkeypatch):
        launch = LaunchConfig.make(4, 16)
        single = np.ones(64)
        a = LayoutTensor(DType.float64, Layout.row_major(64), single)
        assert lower_launch(_shift_double, (a, 64), launch) is not None
        # Split the same grid into 16-lane chunks: the interpreter now sees
        # earlier chunks' stores, which whole-array slicing cannot mimic.
        monkeypatch.setattr(vector_executor, "VECTOR_CHUNK_LANES", 16)
        outputs = {}
        for mode in ("auto", "vectorized"):
            data = np.ones(64)
            a = LayoutTensor(DType.float64, Layout.row_major(64), data)
            res = KernelExecutor().launch(_shift_double, (a, 64), launch,
                                          mode=mode)
            assert res.mode == "vectorized"
            outputs[mode] = data
        assert np.array_equal(outputs["auto"], outputs["vectorized"])


class TestMemos:
    def test_lowered_memo_reports_hits(self):
        ctx = DeviceContext("h100")
        bufs, t = _stream_tensors(ctx)
        launch = LaunchConfig.for_elements(N, 256)
        lower_launch(copy_kernel, (t["a"], t["c"], N), launch)
        before = lower_mod.LOWERED_MEMO.cache_info()
        lower_launch(copy_kernel, (t["a"], t["c"], N), launch)
        after = lower_mod.LOWERED_MEMO.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        assert 0 < after.entries

    def test_unlowerable_body_is_parsed_once(self, monkeypatch):
        parses = []
        real_parse = verifier._parse_kernel
        monkeypatch.setattr(verifier, "_parse_kernel",
                            lambda fn: parses.append(fn) or real_parse(fn))
        verifier.KERNEL_AST_MEMO.clear()
        for n in (64, 128, 256):        # three launch shapes, one parse
            data = np.zeros(n)
            a = LayoutTensor(DType.float64, Layout.row_major(n), data)
            res = KernelExecutor().launch(_parse_once_probe, (a, n),
                                          LaunchConfig.for_elements(n, 64))
            assert res.mode == "vectorized"
        # all three lowering attempts (and the verifier's flag cross-check)
        # share the one parse
        assert parses == [_parse_once_probe.fn]
        info = verifier.KERNEL_AST_MEMO.cache_info()
        assert info.misses == 1 and info.hits >= 2
