"""Tests for the functional kernel executor (sequential and cooperative)."""

import numpy as np
import pytest

from repro.core import DType, barrier, block_dim, block_idx, grid_dim, kernel, shared_array, thread_idx
from repro.core.intrinsics import masked_store
from repro.core.errors import LaunchError
from repro.core.kernel import LaunchConfig
from repro.gpu.executor import ExecutionCounters, KernelExecutor, kernel_uses_barrier


@kernel
def _global_id_kernel(out, n):
    i = block_idx.x * block_dim.x + thread_idx.x
    if i < n:
        out[i] = i


@kernel
def _block_sum_kernel(a, sums, n, tb):
    tile = shared_array(tb, DType.float64, key="tile")
    i = block_idx.x * block_dim.x + thread_idx.x
    tid = thread_idx.x
    tile[tid] = a[i] if i < n else 0.0
    offset = block_dim.x // 2
    while offset > 0:
        barrier()
        if tid < offset:
            tile[tid] += tile[tid + offset]
        offset //= 2
    barrier()
    # predicated final store (the shipped dot_kernel idiom) so the kernel
    # also verifies clean under `repro lint` when the suite registers it
    masked_store(sums, block_idx.x, tile[0], tid == 0)


@kernel
def _kernel_3d(out, nx, ny, nz):
    x = block_idx.x * block_dim.x + thread_idx.x
    y = block_idx.y * block_dim.y + thread_idx.y
    z = block_idx.z * block_dim.z + thread_idx.z
    if x < nx and y < ny and z < nz:
        out[z * ny * nx + y * nx + x] += 1


class TestSequentialExecution:
    def test_every_thread_runs_once(self):
        n = 64
        out = np.full(n, -1.0)
        result = KernelExecutor().launch(_global_id_kernel, (out, n),
                                         LaunchConfig.make(4, 16))
        np.testing.assert_array_equal(out, np.arange(n, dtype=float))
        assert result.threads_run == 64
        assert result.blocks_run == 4
        assert result.mode == "sequential"

    def test_3d_grid_covers_domain_exactly_once(self):
        nx, ny, nz = 6, 5, 4
        out = np.zeros(nx * ny * nz)
        launch = LaunchConfig.make((2, 3, 2), (4, 2, 2))
        KernelExecutor().launch(_kernel_3d, (out, nx, ny, nz), launch)
        assert np.all(out == 1.0)

    def test_guard_threads_do_nothing(self):
        n = 10
        out = np.full(16, -1.0)
        KernelExecutor().launch(_global_id_kernel, (out, n), LaunchConfig.make(1, 16))
        assert np.all(out[n:] == -1.0)

    def test_plain_callable_accepted(self):
        out = np.zeros(4)

        def body(buf):
            buf[thread_idx.x] = 2.0

        KernelExecutor().launch(body, (out,), LaunchConfig.make(1, 4))
        assert np.all(out == 2.0)


class TestCooperativeExecution:
    def test_block_reduction_matches_numpy(self, rng):
        n, tb, blocks = 64, 16, 4
        a = rng.normal(size=n)
        sums = np.zeros(blocks)
        result = KernelExecutor().launch(
            _block_sum_kernel, (a, sums, n, tb), LaunchConfig.make(blocks, tb))
        assert result.mode == "cooperative"
        expected = a.reshape(blocks, tb).sum(axis=1)
        np.testing.assert_allclose(sums, expected, rtol=1e-12)
        assert result.counters.barriers > 0
        assert result.shared_bytes_per_block == tb * 8

    def test_forced_sequential_mode(self):
        out = np.zeros(8)
        result = KernelExecutor().launch(_global_id_kernel, (out, 8),
                                         LaunchConfig.make(1, 8), mode="sequential")
        assert result.mode == "sequential"

    def test_kernel_error_is_surfaced(self):
        @kernel
        def bad_kernel(a):
            barrier()
            raise ValueError("boom")

        with pytest.raises(LaunchError):
            KernelExecutor().launch(bad_kernel, (np.zeros(2),),
                                    LaunchConfig.make(1, 2), mode="cooperative")


class TestExecutorLimits:
    def test_total_thread_limit(self):
        small = KernelExecutor(max_total_threads=100)
        with pytest.raises(LaunchError):
            small.launch(_global_id_kernel, (np.zeros(1000), 1000),
                         LaunchConfig.make(10, 100))

    def test_unknown_mode(self):
        with pytest.raises(LaunchError):
            KernelExecutor().launch(_global_id_kernel, (np.zeros(4), 4),
                                    LaunchConfig.make(1, 4), mode="warp")

    def test_barrier_detection_heuristic(self):
        assert kernel_uses_barrier(_block_sum_kernel) is True
        assert kernel_uses_barrier(_global_id_kernel) is False

    def test_counters_dict(self):
        counters = ExecutionCounters()
        counters.record_atomic()
        counters.record_barrier()
        counters.record_thread()
        counters.record_block()
        assert counters.as_dict() == {"threads_run": 1, "blocks_run": 1,
                                      "barriers": 1, "atomics": 1}


class TestCooperativePool:
    """Semantics of the pooled cooperative executor (one worker pool + one
    reusable barrier processing every block of the grid)."""

    def test_multiblock_reduction_matches_numpy(self, rng):
        n, tb, blocks = 128, 16, 8
        a = rng.normal(size=n)
        sums = np.zeros(blocks)
        result = KernelExecutor().launch(
            _block_sum_kernel, (a, sums, n, tb), LaunchConfig.make(blocks, tb))
        assert result.mode == "cooperative"
        np.testing.assert_allclose(sums, a.reshape(blocks, tb).sum(axis=1),
                                   rtol=1e-12)
        # Every simulated thread ran exactly once, in every block.
        assert result.threads_run == blocks * tb
        assert result.blocks_run == blocks
        # _block_sum_kernel executes log2(tb) barriers in the loop + 1 final
        # barrier per thread; the executor's end-of-block lockstep wait is an
        # implementation detail and must NOT be counted.
        assert result.counters.barriers == blocks * tb * 5
        assert result.shared_bytes_per_block == tb * 8

    def test_pool_matches_sequential_for_plain_kernel(self):
        n = 64
        out_seq = np.full(n, -1.0)
        out_coop = np.full(n, -1.0)
        launch = LaunchConfig.make(4, 16)
        r_seq = KernelExecutor().launch(_global_id_kernel, (out_seq, n), launch,
                                        mode="sequential")
        r_coop = KernelExecutor().launch(_global_id_kernel, (out_coop, n),
                                         launch, mode="cooperative")
        np.testing.assert_array_equal(out_seq, out_coop)
        assert r_seq.threads_run == r_coop.threads_run == n
        assert r_seq.blocks_run == r_coop.blocks_run == 4

    def test_error_in_later_block_is_surfaced(self):
        @kernel
        def bad_in_block_two(a):
            if block_idx.x == 2 and thread_idx.x == 0:
                raise ValueError("boom in block 2")
            barrier()

        with pytest.raises(LaunchError, match="bad_in_block_two"):
            KernelExecutor().launch(bad_in_block_two, (np.zeros(2),),
                                    LaunchConfig.make(4, 4), mode="cooperative")

    def test_shared_alloc_is_race_free_at_wide_blocks(self, rng):
        """Regression: the check-then-insert shared allocation let two of a
        wide block's workers allocate distinct arrays, silently dropping one
        thread's partial sums (nondeterministic dot results at tb >= 128)."""
        from repro.kernels.babelstream.kernels import dot_kernel

        n, tb, blocks = 4096, 128, 4
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        expected = a @ b
        for _ in range(5):
            sums = np.zeros(blocks)
            KernelExecutor().launch(dot_kernel, (a, b, sums, n, tb),
                                    LaunchConfig.make(blocks, tb),
                                    mode="cooperative")
            np.testing.assert_allclose(sums.sum(), expected, rtol=1e-12)

    def test_counters_merge_batches_events(self):
        counters = ExecutionCounters()
        counters.merge(threads_run=7, blocks_run=2, barriers=3, atomics=11)
        counters.merge(atomics=1)
        assert counters.as_dict() == {"threads_run": 7, "blocks_run": 2,
                                      "barriers": 3, "atomics": 12}


class TestBarrierHeuristicCache:
    def test_result_cached_on_function_object(self, monkeypatch):
        @kernel
        def cached_probe(a):
            barrier()

        assert kernel_uses_barrier(cached_probe) is True
        # Second query must not re-run source inspection.
        import inspect as inspect_mod

        def exploding_getsource(fn):
            raise AssertionError("getsource re-ran despite the cache")

        monkeypatch.setattr(inspect_mod, "getsource", exploding_getsource)
        assert kernel_uses_barrier(cached_probe) is True

    def test_rewrapped_callable_shares_cache(self):
        def plain(a):
            a[thread_idx.x] = 1.0

        assert kernel_uses_barrier(plain) is False
        # Wrapping the same function in a fresh Kernel (what launch() does for
        # plain callables) must reuse the cached verdict.
        from repro.core.kernel import Kernel
        assert kernel_uses_barrier(Kernel(plain)) is False
        assert plain._repro_uses_barrier is False


def _docstring_mentions_barrier(out, n):
    """Writes each thread's index without any barrier() call or
    shared_array allocation."""
    i = block_idx.x * block_dim.x + thread_idx.x
    if i < n:
        out[i] = float(i)


@kernel
def _vector_docstring_mentions_barrier(out, n):
    """Lockstep-safe, and still without any barrier() call."""
    i = block_idx.x * block_dim.x + thread_idx.x
    masked_store(out, i, i * 2.0, i < n)


class TestBarrierDetection:
    """Only real calls count: the body is classified on its parsed AST."""

    def test_docstring_mention_is_not_a_barrier(self):
        assert kernel_uses_barrier(_docstring_mentions_barrier) is False
        out = np.zeros(40)
        res = KernelExecutor().launch(_docstring_mentions_barrier, (out, 40),
                                      LaunchConfig.make(3, 16))
        assert res.mode == "sequential"
        np.testing.assert_array_equal(out, np.arange(40.0))

    def test_vector_safe_docstring_kernel_runs_whole_grid(self, monkeypatch):
        from repro.gpu import executor as executor_mod

        assert kernel_uses_barrier(_vector_docstring_mentions_barrier) is False
        per_block = []
        real = executor_mod.run_vectorized

        def spy(*args, **kwargs):
            per_block.append(kwargs["per_block"])
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "run_vectorized", spy)
        out = np.zeros(40)
        res = KernelExecutor().launch(_vector_docstring_mentions_barrier,
                                      (out, 40), LaunchConfig.make(3, 16),
                                      mode="vectorized")
        assert res.mode == "vectorized" and per_block == [False]
        np.testing.assert_array_equal(out, np.arange(40.0) * 2.0)

    def test_real_calls_are_detected(self):
        assert kernel_uses_barrier(_block_sum_kernel) is True


def _plain_body(out, n):
    """An undecorated kernel body: launches wrap it in a Kernel."""
    i = block_idx.x * block_dim.x + thread_idx.x
    if i < n:
        out[i] = 2.0 * i


class TestPlainCallable:
    def test_launches_keep_one_kernel_and_its_verdict(self):
        from repro.analysis.verifier import VERIFY_MEMO

        def lookups():
            info = VERIFY_MEMO.cache_info()
            return info.hits + info.misses

        executor = KernelExecutor()
        out = np.zeros(16)
        launch = LaunchConfig.make(1, 16)
        before = lookups()
        for _ in range(50):
            executor.launch(_plain_body, (out, 16), launch)
            executor.instantiate(_plain_body, (out, 16), launch)()
        assert lookups() - before <= 1
        np.testing.assert_array_equal(out, 2.0 * np.arange(16))
