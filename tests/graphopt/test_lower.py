"""The NumPy-codegen lowering tier: legality, bit-identity, memoisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import kernel_ir
from repro.core.device import DeviceContext
from repro.core.dtypes import DType
from repro.core.errors import LayoutError
from repro.core.intrinsics import (
    any_lane,
    barrier,
    block_dim,
    block_idx,
    compress_lanes,
    lane_where,
    masked_gather,
    masked_store,
    shared_array,
    thread_idx,
)
from repro.core.kernel import Kernel, LaunchConfig, kernel
from repro.core.layout import Layout, LayoutTensor
from repro.gpu import vector_executor
from repro.gpu.executor import ExecutionCounters, KernelExecutor
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


@kernel(name="_inplace_scale", strict=True)
def _inplace_scale(a, scalar, n):
    """``a[i] = scalar * a[i]`` — the store target is also read."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    a[i] = scalar * a[i]


@kernel(name="_scale2d", strict=True)
def _scale2d(f, u, nx, ny):
    """``f[i, j] = 2 * u[i, j]`` over a 2-D launch."""
    i = block_dim.x * block_idx.x + thread_idx.x
    j = block_dim.y * block_idx.y + thread_idx.y
    m = (i < nx) & (j < ny)
    if not any_lane(m):
        return
    i, j = compress_lanes(m, i, j)
    f[i, j] = 2.0 * u[i, j]


@kernel(name="_shift_double")
def _shift_double(a, n):
    """``a[i] = 2 * a[i - 1]``: each lane reads its left neighbour's store."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = (i > 0) & (i < n)
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    a[i] = 2.0 * a[i - 1]


@kernel(name="_parse_once_probe")
def _parse_once_probe(a, n):
    """Outside the lowerable subset (an augmented store): always falls back."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    a[i] += 1.0


@kernel(name="_row_sums", strict=True)
def _row_sums(out, table, weights, n, nrows, ncols):
    """``out[i] = sum_r sum_c w[c] * table[r, c] * i`` via accumulators."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    total = 0.0
    for r in range(nrows):
        scale = table[r, 0] * 0.5
        for c in range(ncols):
            total = total + weights[c] * table[r, c] * i
            total = total + lane_where(scale > 0.0, scale, -scale)
    out[i] = total


@kernel(name="_block_max_tree", strict=True)
def _block_max_tree(x, block_out, tb, n):
    """A shared-memory tree reduction (maximum) per block."""
    buf = shared_array(tb, DType.float32, key="buf")
    t = thread_idx.x
    g = block_dim.x * block_idx.x + t
    buf[t] = masked_gather(x, g, g < n, -np.inf)
    stride = block_dim.x // 2
    while stride > 0:
        barrier()
        m = t < stride
        masked_store(buf, t, np.maximum(masked_gather(buf, t, m),
                                        masked_gather(buf, t + stride, m)),
                     m)
        stride //= 2
    barrier()
    masked_store(block_out, block_idx.x, buf[0], t == 0)


def _ragged_unmasked_body(b, ends, sums, n, stride):
    """A grid-stride sum with an unmasked gather ``b[i]``: in bounds on the
    trips each block runs, out of bounds past them; ``i`` is stored after
    the loop, where each block left it.  The static verifier cannot confirm
    the unmasked gather, so the kernel stays out of the ``repro lint``
    registry (a bare :class:`Kernel`, not the decorator)."""
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = block_idx.x * 50 + tid * 3
    acc = 0.0
    while any_lane(i < n):
        acc = acc + b[i]
        i = i + stride
    ends[block_idx.x * block_dim.x + tid] = i
    sh[tid] = acc
    barrier()
    masked_store(sums, block_idx.x, sh[0] + sh[1], tid == 0)


_ragged_unmasked = Kernel(_ragged_unmasked_body, name="_ragged_unmasked")


def _reset_sums_body(out, a, n):
    """``x`` restarts every iteration (and ``y`` ends on a constant): the
    last iteration's values, not sums over the loop."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    x = 1.0
    y = 0.0
    for k in range(4):
        x = 0.0
        x = x + a[k]
        y = y + a[k]
        y = 5.0
    out[i] = x + y


_reset_sums = Kernel(_reset_sums_body, name="_reset_sums")


def _loop_counter_body(out, a, n):
    """``c += 1`` and ``d = d * 2.0`` of constants in a static loop: a new
    constant every iteration, which an array axis would bind only once."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    c = 0
    d = 1.0
    for k in range(4):
        c += 1
        d = d * 2.0
    out[i] = a[i] + c + d


_loop_counter = Kernel(_loop_counter_body, name="_loop_counter")


def _invariant_terms_body(out, a, n):
    """Accumulation terms that do not vary with the loop: a lane array and
    a constant."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    acc = 0.0
    for k in range(4):
        acc = acc + a[i]
        acc = acc + 1.0
    out[i] = acc


_invariant_terms = Kernel(_invariant_terms_body, name="_invariant_terms")


def _recurrence_body(out, a, n):
    """A long loop the axis form refuses (``x`` is no accumulator) and a
    ``range()`` whose bound is read at run time."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    x = 0.0
    for k in range(12):
        x = x * 0.5 + a[k]
    for k in range(int(a[0])):
        x = x + 1.0
    out[i] = x


_recurrence = Kernel(_recurrence_body, name="_recurrence")


def _nested_stride_body(a, sums, n, stride):
    """A grid-stride loop inside another grid-stride loop."""
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = block_idx.x * block_dim.x + tid
    acc = 0.0
    while any_lane(i < n):
        j = tid
        while any_lane(j < n):
            acc = acc + masked_gather(a, j, j < n)
            j = j + stride
        i = i + stride
    sh[tid] = acc
    barrier()
    masked_store(sums, block_idx.x, sh[0], tid == 0)


_nested_stride = Kernel(_nested_stride_body, name="_nested_stride")


def _weak_start_body(a, sums, n, stride):
    """A grid-stride sum from a Python ``0.1``: a float32 fold would
    round the start that a block running no trip keeps exactly."""
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = block_idx.x * 50 + tid
    acc = 0.1
    while any_lane(i < n):
        acc = acc + masked_gather(a, i, i < n)
        i = i + stride
    sh[tid] = acc
    barrier()
    masked_store(sums, block_idx.x, sh[0], tid == 0)


def _int_start_body(a, sums, n, stride):
    """A grid-stride sum from a Python ``0``: a block running no trip
    keeps the int, whose negation is ``0``, not the fold's ``-0.0``."""
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = block_idx.x * 50 + tid
    acc = 0
    while any_lane(i < n):
        acc = acc + masked_gather(a, i, i < n)
        i = i + stride
    sh[tid] = -acc
    barrier()
    masked_store(sums, block_idx.x, sh[0], tid == 0)


def _weak_use_body(a, sums, n, stride):
    """The sum, a Python float in a block that runs no trip, meets a
    Python float after the loop."""
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = block_idx.x * 50 + tid
    acc = 0.0
    while any_lane(i < n):
        acc = acc + masked_gather(a, i, i < n)
        i = i + stride
    sh[tid] = acc * 0.5
    barrier()
    masked_store(sums, block_idx.x, sh[0], tid == 0)


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

    def test_unsupported_kernel_is_rejected_with_reason(self):
        data = np.zeros(N)
        args = (LayoutTensor(DType.float64, Layout.row_major(N), data), N)
        launch = LaunchConfig.for_elements(N, 256)
        assert lower_launch(_parse_once_probe, args, launch) is None
        report = lowering_report(_parse_once_probe, args, launch)
        assert report["kernel"] == "_parse_once_probe"
        assert report["lowered"] is False
        assert "augmented store" in report["reason"]

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
        data = np.arange(float(N))
        a = LayoutTensor(DType.float64, Layout.row_major(N), data)
        result = KernelExecutor().launch(_parse_once_probe, (a, N - 24),
                                         LaunchConfig.for_elements(N, 256),
                                         mode="lowered")
        assert result.mode == "vectorized"  # fell back to the interpreter
        expected = np.arange(float(N))
        expected[:N - 24] += 1.0
        assert data.tobytes() == expected.tobytes()

    def test_dot_kernel_lowers_with_barrier_and_shared_counts(self):
        ctx = DeviceContext("h100")
        n, tb = 512, 64
        bufs, t = _stream_tensors(ctx, n)
        runs = {}
        for mode in ("auto", "vectorized"):
            sums_buf = ctx.enqueue_create_buffer(DType.float64, n // tb,
                                                 label="sums")
            res = KernelExecutor().launch(
                dot_kernel, (t["a"], t["b"], sums_buf.tensor(), n, tb),
                LaunchConfig.make(n // tb, tb), mode=mode)
            runs[mode] = (res, sums_buf.array.tobytes())
        (auto, auto_sums), (vec, vec_sums) = runs["auto"], runs["vectorized"]
        assert (auto.mode, vec.mode) == ("lowered", "vectorized")
        assert auto_sums == vec_sums
        assert auto.counters.as_dict() == vec.counters.as_dict()
        assert auto.counters.barriers == 7 * n  # log2(64) + 1 per thread
        assert auto.shared_bytes_per_block == vec.shared_bytes_per_block \
            == tb * 8

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
            u = u_buf.tensor(layout, mut=False)
            f = f_buf.tensor(layout)
            res = KernelExecutor().launch(
                laplacian_kernel, (f, u, L, L, L) + tuple(sargs),
                launch, mode=mode)
            assert res.mode == mode
            results[mode] = f_buf.array.copy()
        assert np.any(results["lowered"] != 0.0)
        assert np.array_equal(results["vectorized"], results["lowered"])


class TestGenericKernels:
    """Fixtures that are not shipped kernels lower and match bitwise."""

    def _compare(self, kern, make_args, launch):
        runs = {}
        for mode in ("auto", "vectorized"):
            args, outputs = make_args()
            res = KernelExecutor().launch(kern, args, launch, mode=mode)
            runs[mode] = (res, [o.tobytes() for o in outputs])
        (auto, auto_out), (vec, vec_out) = runs["auto"], runs["vectorized"]
        assert (auto.mode, vec.mode) == ("lowered", "vectorized")
        assert auto_out == vec_out
        assert auto.counters.as_dict() == vec.counters.as_dict()
        assert auto.shared_bytes_per_block == vec.shared_bytes_per_block
        return auto

    def test_accumulate_loop_kernel(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(5, 7)).astype(np.float32)
        weights = rng.normal(size=7).astype(np.float32)

        def make_args():
            out = np.zeros(40, dtype=np.float32)
            f32 = DType.float32
            return ((LayoutTensor(f32, Layout.row_major(40), out),
                     LayoutTensor(f32, Layout.row_major(5, 7), table,
                                  mut=False),
                     LayoutTensor(f32, Layout.row_major(7), weights,
                                  mut=False), 40, 5, 7), [out])
        self._compare(_row_sums, make_args, LaunchConfig.make(3, 16))
        args, _ = make_args()
        source = lower_source(_row_sums, args, LaunchConfig.make(3, 16))
        assert "_fold(" in source       # the loop nest became array axes

    def test_block_tree_reduction_kernel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=128).astype(np.float32)

        def make_args():
            out = np.zeros(4, dtype=np.float32)
            f32 = DType.float32
            return ((LayoutTensor(f32, Layout.row_major(128), x, mut=False),
                     LayoutTensor(f32, Layout.row_major(4), out), 32, 120),
                    [out])
        res = self._compare(_block_max_tree, make_args,
                            LaunchConfig.make(4, 32))
        assert res.counters.barriers == 6 * 128
        assert res.shared_bytes_per_block == 32 * 4

    def test_accumulator_rebound_inside_its_loop_is_not_folded(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])

        def make_args():
            out = np.zeros(8)
            return ((LayoutTensor(DType.float64, Layout.row_major(8), out),
                     LayoutTensor(DType.float64, Layout.row_major(4), a,
                                  mut=False), 8), [out])
        self._compare(_reset_sums, make_args, LaunchConfig.make(1, 8))
        args, (out,) = make_args()
        KernelExecutor().launch(_reset_sums, args, LaunchConfig.make(1, 8))
        assert (out == 9.0).all()

    def test_constant_updated_every_iteration_is_not_bound_once(self):
        a = np.arange(8.0)

        def make_args():
            out = np.zeros(8)
            return ((LayoutTensor(DType.float64, Layout.row_major(8), out),
                     LayoutTensor(DType.float64, Layout.row_major(8), a,
                                  mut=False), 8), [out])
        self._compare(_loop_counter, make_args, LaunchConfig.make(1, 8))
        args, (out,) = make_args()
        KernelExecutor().launch(_loop_counter, args, LaunchConfig.make(1, 8))
        assert out.tolist() == (a + 4 + 16).tolist()

    def test_loop_invariant_terms_fold_like_the_interpreter(self):
        a = np.linspace(-1.0, 1.0, 8)

        def make_args():
            out = np.zeros(8)
            return ((LayoutTensor(DType.float64, Layout.row_major(8), out),
                     LayoutTensor(DType.float64, Layout.row_major(8), a,
                                  mut=False), 8), [out])
        self._compare(_invariant_terms, make_args, LaunchConfig.make(1, 8))

    def test_nest_over_the_budget_runs_in_chunks(self, monkeypatch):
        # 48 lanes and a 100-element budget: the row loop runs one row at a
        # time (a scalar index), the 12-column loop two columns at a time
        monkeypatch.setattr(lower_mod, "AXIS_BUDGET", 100)
        lower_mod.LOWERED_MEMO.clear()
        rng = np.random.default_rng(5)
        table = rng.normal(size=(5, 12)).astype(np.float32)
        weights = rng.normal(size=12).astype(np.float32)

        def make_args():
            out = np.zeros(40, dtype=np.float32)
            f32 = DType.float32
            return ((LayoutTensor(f32, Layout.row_major(40), out),
                     LayoutTensor(f32, Layout.row_major(5, 12), table,
                                  mut=False),
                     LayoutTensor(f32, Layout.row_major(12), weights,
                                  mut=False), 40, 5, 12), [out])
        try:
            self._compare(_row_sums, make_args, LaunchConfig.make(3, 16))
            source = lower_source(_row_sums, make_args()[0],
                                  LaunchConfig.make(3, 16))
        finally:
            lower_mod.LOWERED_MEMO.clear()
        assert "for _chunk1 in range(0, 5, 1):" in source
        assert "in range(0, 12, 2):" in source
        assert "while" not in source

    def test_refused_long_loops_run_interpreted(self):
        a = np.array([3.0] + [0.25] * 11)

        def make_args():
            out = np.zeros(8)
            return ((LayoutTensor(DType.float64, Layout.row_major(8), out),
                     LayoutTensor(DType.float64, Layout.row_major(12), a,
                                  mut=False), 8), [out])
        launch = LaunchConfig.make(1, 8)
        report = lowering_report(_recurrence, make_args()[0], launch)
        assert report["reason"] == "a binding from outside an axis-form " \
                                   "loop is reassigned inside it"
        outputs = {}
        for mode in ("auto", "vectorized"):
            args, (out,) = make_args()
            res = KernelExecutor().launch(_recurrence, args, launch,
                                          mode=mode)
            outputs[mode] = (res.mode, out.tobytes())
        assert outputs["auto"] == outputs["vectorized"]
        assert outputs["auto"][0] == "vectorized"

    def test_block_tree_reduction_stores_prefix_slices(self):
        x = np.zeros(128, dtype=np.float32)
        f32 = DType.float32
        args = (LayoutTensor(f32, Layout.row_major(128), x, mut=False),
                LayoutTensor(f32, Layout.row_major(4), np.zeros(4, np.float32)),
                32, 120)
        source = lower_source(_block_max_tree, args, LaunchConfig.make(4, 32))
        assert "_sh1[:, 0:16] = np.maximum(_sh1[:, 0:16], _sh1[:, 16:32])" \
            in source
        # all five rounds (16, 8, 4, 2, 1) are slice stores
        assert source.count("] = np.maximum(_sh1[:, 0:") == 5

    @staticmethod
    def _ragged_args(size):
        b = np.random.default_rng(8).normal(size=size)
        ends, sums = np.zeros(32, dtype=np.int64), np.zeros(4)
        return ((LayoutTensor(DType.float64, Layout.row_major(size), b,
                              mut=False),
                 LayoutTensor(DType.int64, Layout.row_major(32), ends),
                 LayoutTensor(DType.float64, Layout.row_major(4), sums),
                 140, 16), [ends, sums])

    @staticmethod
    def _ragged_direct(size, launch):
        """``_ragged_unmasked`` through the lowered entry and through the
        lockstep interpreter, called directly (the verifier refutes the
        unmasked gather, so the executor would run it ``cooperative``):
        ``{path: (output bytes, barriers, atomics, shared bytes)}`` and the
        lowered run's ``(args, outputs)``."""
        runs = {}
        args, outputs = TestGenericKernels._ragged_args(size)
        entry = lower_launch(_ragged_unmasked, args, launch)
        assert entry is not None
        barriers, atomics, shared = entry(*args)
        runs["lowered"] = ([o.tobytes() for o in outputs], barriers, atomics,
                           shared)
        lowered = (args, outputs)
        args, outputs = TestGenericKernels._ragged_args(size)
        counters = ExecutionCounters()
        shared = vector_executor.run_vectorized(_ragged_unmasked, args, launch,
                                                counters, per_block=True)
        assert counters.threads_run == launch.total_threads
        assert counters.blocks_run == launch.num_blocks
        runs["vectorized"] = ([o.tobytes() for o in outputs],
                              counters.barriers, counters.atomics, shared)
        return runs, lowered

    def test_grid_stride_trips_past_a_block_gather_nothing(self):
        # blocks 0-2 run 9, 6 and 3 trips and read b up to index 153;
        # block 3 runs none.  On the trip axis every block spans 9 trips,
        # whose indices reach 249: those must not be bounds-checked
        launch = LaunchConfig.make(4, 8)
        runs, (args, (ends, _)) = self._ragged_direct(154, launch)
        assert runs["lowered"] == runs["vectorized"]
        starts = np.arange(4)[:, None] * 50 + np.arange(8) * 3
        trips = np.array([[9], [6], [3], [0]])
        assert ends.tolist() == (starts + 16 * trips).ravel().tolist()
        assert "_trips" in lower_source(_ragged_unmasked, args, launch)

    def test_grid_stride_gather_out_of_bounds_raises_like_the_interpreter(
            self):
        launch = LaunchConfig.make(4, 8)
        errors = {}
        args, _ = self._ragged_args(150)
        entry = lower_launch(_ragged_unmasked, args, launch)
        assert entry is not None
        with pytest.raises(LayoutError) as info:
            entry(*args)
        errors["lowered"] = str(info.value)
        args, _ = self._ragged_args(150)
        with pytest.raises(LayoutError) as info:
            vector_executor.run_vectorized(_ragged_unmasked, args, launch,
                                           ExecutionCounters(),
                                           per_block=True)
        errors["vectorized"] = str(info.value)
        assert errors["lowered"] == errors["vectorized"]

    def test_nested_grid_stride_loop_is_refused_and_runs_vectorized(self):
        def make_args():
            sums = np.zeros(4)
            return ((LayoutTensor(DType.float64, Layout.row_major(40),
                                  np.arange(40.0), mut=False),
                     LayoutTensor(DType.float64, Layout.row_major(4), sums),
                     40, 16), [sums])
        launch = LaunchConfig.make(4, 8)
        args, _ = make_args()
        report = lowering_report(_nested_stride, args, launch)
        assert report == {
            "kernel": "_nested_stride", "lowered": False,
            "reason": "loop inside a grid-stride loop"}
        runs = {}
        for mode in ("auto", "vectorized"):
            args, (sums,) = make_args()
            res = KernelExecutor().launch(_nested_stride, args, launch,
                                          mode=mode)
            runs[mode] = (res.mode, sums.tobytes())
        assert runs["auto"] == ("vectorized", runs["vectorized"][1])


def _sequential(init, rows, dtype):
    """The interpreter's fold: one addition per row, in order, per lane."""
    out = np.empty(rows.shape[1:], dtype)
    for lane in np.ndindex(out.shape):
        acc = dtype.type(init[lane])
        for row in rows:
            acc = dtype.type(acc + row[lane])
        out[lane] = acc
    return out


class TestWeakAccumulator:
    """After a trip axis a block that ran no trip holds the Python start:
    the fold's dtype must hold it, and no later use may tell them apart."""

    CASES = {
        # (kernel, dtype): the refusal, or None when it lowers
        ("weak_start", "float64"): None,
        ("weak_start", "float32"): "trip-axis accumulator starts at a value "
                                   "its fold dtype does not hold",
        ("weak_use", "float64"): "axis form meets a value of mixed type",
        ("weak_use", "float32"): "axis form meets a value of mixed type",
        ("int_start", "float64"): "trip-axis accumulator starts at a value "
                                  "its fold dtype does not hold",
        ("int_start", "float32"): "trip-axis accumulator starts at a value "
                                  "its fold dtype does not hold",
    }
    KERNELS = {"weak_start": Kernel(_weak_start_body, name="_weak_start"),
               "weak_use": Kernel(_weak_use_body, name="_weak_use"),
               "int_start": Kernel(_int_start_body, name="_int_start")}

    @pytest.mark.parametrize("name, dtype", sorted(CASES))
    def test_refusal_and_modes_agree(self, name, dtype):
        kern, dt = self.KERNELS[name], DType.from_name(dtype)
        launch = LaunchConfig.make(4, 8)    # block 3 runs no trip

        def run(mode):
            a = LayoutTensor(dt, Layout.row_major(140),
                             np.linspace(-1.0, 1.0, 140).astype(dtype))
            sums = LayoutTensor(dt, Layout.row_major(4), np.zeros(4, dtype))
            res = KernelExecutor().launch(kern, (a, sums, 140, 16), launch,
                                          mode=mode)
            return res.mode, sums.ptr.tobytes()

        args = (LayoutTensor(dt, Layout.row_major(140), np.zeros(140, dtype)),
                LayoutTensor(dt, Layout.row_major(4), np.zeros(4, dtype)),
                140, 16)
        report = lowering_report(kern, args, launch)
        assert report.get("reason") == self.CASES[name, dtype]
        auto, vec = run("auto"), run("vectorized")
        assert auto[0] == ("vectorized" if report.get("reason")
                           else "lowered")
        assert auto[1] == vec[1]


class TestFold:
    """``_fold`` adds every lane's rows one by one, in iteration order."""

    @settings(max_examples=60, deadline=None)
    @given(lanes=st.sampled_from([(1,), (2,), (3,), (4, 5)]),
           ext=st.sampled_from([(1,), (7,), (200,), (3, 70), (130,)]),
           nterms=st.integers(1, 3),
           dtype=st.sampled_from([np.float64, np.float32]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_a_sequential_python_sum(self, lanes, ext, nterms, dtype,
                                             seed):
        dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)

        def values(shape):
            # magnitudes over 16 decades, signed zeros included: any other
            # summation order rounds differently
            out = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)
            out[rng.random(shape) < 0.05] = -0.0
            return out.astype(dtype)

        init = values(lanes)
        terms = [values(ext + lanes) for _ in range(nterms)]
        # iteration-major, then statement order: the interpreter's additions
        rows = np.stack(terms, axis=len(ext)).reshape((-1,) + lanes)
        got = lower_mod._fold(init, tuple(terms), 0, ext, dtype.name)
        assert got.dtype == dtype
        assert got.tobytes() == _sequential(init, rows, dtype).tobytes()

    def test_one_lane_over_128_rows_is_not_summed_pairwise(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(1000, 1)) * 10.0 ** rng.integers(-8, 9,
                                                                 (1000, 1))
        expected = _sequential(np.zeros(1), rows, np.dtype(np.float64))
        # NumPy's own reduction of one long column is pairwise: different
        assert np.add.reduce(rows, axis=0).tobytes() != expected.tobytes()
        got = lower_mod._fold(0.0, (rows,), 0, (1000,), "float64")
        assert got.tobytes() == expected.tobytes()

    def test_all_negative_zero_rows_stay_negative_zero(self):
        rows = np.full((6, 3), -0.0)
        got = lower_mod._fold(-0.0, (rows,), 0, (6,), "float64")
        assert np.signbit(got).all() and (got == 0.0).all()

    def test_batch_axes_before_the_loop_axes(self):
        rng = np.random.default_rng(6)
        terms = rng.normal(size=(2, 150, 3))
        got = lower_mod._fold(np.zeros((2, 1, 3)), (terms,), 1, (150,),
                              "float64")
        assert got.shape == (2, 1, 3)
        for b in range(2):
            expected = _sequential(np.zeros(3), terms[b],
                                   np.dtype(np.float64))
            assert got[b, 0].tobytes() == expected.tobytes()


@kernel(name="_walk_count")
def _walk_count(steps, out, n):
    """Counts the leading positive entries of *steps*: the while test reads
    a tensor at an index the region analysis cannot bound."""
    k = 0
    while steps[k] > 0.0:
        k = k + 1
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    out[i] = k * 1.0


@kernel(name="_branch_shift")
def _branch_shift(flags, a, out, n):
    """Both arms of a uniform runtime branch read `a` at ``i - 1``, which
    the region analysis cannot prove in bounds."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    j = i - 1
    if flags[0] > 0.0:
        out[i] = a[j]
    else:
        out[i] = 2.0 * a[j]


@kernel(name="_branch_rebind")
def _branch_rebind(flags, a, out, n):
    """One arm rebinds an index the code checked before the branch."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    j = i
    x = a[j]
    if flags[0] > 0.0:
        j = j - 1
    out[i] = x + a[j]


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

    def test_scalar_arguments_decide_which_accesses_are_checked(self):
        # the region analysis proves `table` in bounds for nrows <= 5 only;
        # the scalars are in the key, so each specialisation has its checks
        launch = LaunchConfig.make(3, 16)
        f32 = DType.float32
        sources, errors = {}, {}
        for nrows in (5, 6):
            args = (LayoutTensor(f32, Layout.row_major(40),
                                 np.zeros(40, np.float32)),
                    LayoutTensor(f32, Layout.row_major(5, 7),
                                 np.ones(35, np.float32)),
                    LayoutTensor(f32, Layout.row_major(7),
                                 np.ones(7, np.float32)), 40, nrows, 7)
            sources[nrows] = lower_source(_row_sums, args, launch)
            if nrows == 6:
                for mode in ("auto", "vectorized"):
                    with pytest.raises(LayoutError) as info:
                        KernelExecutor().launch(_row_sums, args, launch,
                                                mode=mode)
                    errors[mode] = str(info.value)
        assert "_check_index" not in sources[5]
        assert "_check_index" in sources[6]
        assert errors["auto"] == errors["vectorized"] == \
            "index 5 out of bounds for dimension 0 of extent 5"

    def test_while_test_reading_an_unproven_tensor_stays_interpreted(self):
        # only a grid-stride `while` lowers; this one runs interpreted,
        # checking every read of its test
        args = (LayoutTensor(DType.float64, Layout.row_major(4), np.ones(4)),
                LayoutTensor(DType.float64, Layout.row_major(8), np.zeros(8)),
                8)
        launch = LaunchConfig.make(1, 8)
        report = lowering_report(_walk_count, args, launch)
        assert report["reason"] == "while loop with a runtime test"
        for mode in ("auto", "vectorized", "sequential"):
            with pytest.raises(LayoutError, match="index 4 out of bounds"):
                KernelExecutor().launch(_walk_count, args, launch, mode=mode)

    @staticmethod
    def _branch_args(flag):
        f64 = DType.float64
        return (LayoutTensor(f64, Layout.row_major(1), np.array([flag])),
                LayoutTensor(f64, Layout.row_major(16), np.arange(16.0)),
                LayoutTensor(f64, Layout.row_major(16), np.zeros(16)), 16)

    def test_each_branch_checks_its_own_indices(self):
        # the else arm must not rely on the check the if arm emitted
        launch = LaunchConfig.make(1, 16)
        source = lower_source(_branch_shift, self._branch_args(-1.0), launch)
        arms = source.split("    else:\n")
        assert len(arms) == 2
        assert all(arm.count("_check_index(v_j, 0, 16, True)") == 1
                   for arm in arms)
        for flag in (1.0, -1.0):
            errors = {}
            for mode in ("auto", "vectorized"):
                with pytest.raises(LayoutError) as info:
                    KernelExecutor().launch(_branch_shift,
                                            self._branch_args(flag), launch,
                                            mode=mode)
                errors[mode] = str(info.value)
            assert errors["auto"] == errors["vectorized"] == \
                "lane index out of bounds for dimension 0 of extent 16"

    def test_rebinding_in_a_branch_drops_the_check(self):
        launch = LaunchConfig.make(1, 16)
        source = lower_source(_branch_rebind, self._branch_args(1.0), launch)
        assert source.count("_check_index(v_j, 0, 16, True)") == 2
        ok = self._branch_args(-1.0)
        assert KernelExecutor().launch(_branch_rebind, ok, launch).mode == \
            "lowered"
        np.testing.assert_array_equal(ok[2].ptr, 2.0 * np.arange(16.0))
        for mode in ("auto", "vectorized"):
            with pytest.raises(LayoutError, match="lane index out of bounds"):
                KernelExecutor().launch(_branch_rebind,
                                        self._branch_args(1.0), launch,
                                        mode=mode)

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
        real_parse = kernel_ir._parse_kernel
        monkeypatch.setattr(kernel_ir, "_parse_kernel",
                            lambda fn: parses.append(fn) or real_parse(fn))
        kernel_ir.IR_MEMO.clear()
        for n in (64, 128, 256):        # three launch shapes, one parse
            data = np.zeros(n)
            a = LayoutTensor(DType.float64, Layout.row_major(n), data)
            res = KernelExecutor().launch(_parse_once_probe, (a, n),
                                          LaunchConfig.for_elements(n, 64))
            assert res.mode == "vectorized"
        # all three lowering attempts (and the verifier's flag cross-check)
        # share the one parse, held by the kernel IR
        assert parses == [_parse_once_probe.fn]
        info = kernel_ir.IR_MEMO.cache_info()
        assert info.misses == 1 and info.hits >= 2
