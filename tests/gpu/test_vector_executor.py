"""Tests for the lockstep (vectorized) SIMT execution engine.

Covers the lane helpers, the mode-selection/fallback rules, and the two
contracts the vectorized engine must honour for every science kernel:

* **counter parity** — ``ExecutionCounters`` (threads_run, blocks_run,
  barriers, atomics) identical across sequential, cooperative and vectorized
  execution of the same launch;
* **bit parity** — results bit-identical to the scalar executors for the
  deterministic kernels (stencil, BabelStream, miniBUDE), and matching the
  scalar ``contracted_eri`` oracle via the batched quadruple reference for
  Hartree–Fock (whose six atomic scatter sites interleave differently across
  executors, leaving only last-ulp associativity differences on the
  accumulated Fock matrix).
"""

import numpy as np
import pytest

from repro.core import DType, barrier, block_dim, block_idx, kernel, shared_array, thread_idx
from repro.core.intrinsics import (
    any_lane,
    all_lanes,
    compress_lanes,
    lane_where,
    masked_gather,
    masked_store,
)
from repro.core.kernel import LaunchConfig
from repro.core.layout import Layout, LayoutTensor
from repro.gpu.executor import KernelExecutor, kernel_uses_barrier, kernel_vector_safe
from repro.gpu import vector_executor


# ---------------------------------------------------------------------------
# Lane helpers
# ---------------------------------------------------------------------------

class TestLaneHelpers:
    def test_scalar_degradation(self):
        assert any_lane(True) and not any_lane(False)
        assert all_lanes(True) and not all_lanes(False)
        assert lane_where(True, 1.0, 2.0) == 1.0
        assert lane_where(False, 1.0, 2.0) == 2.0
        assert compress_lanes(True, 5) == 5
        assert compress_lanes(True, 5, 6) == (5, 6)

    def test_vector_forms(self):
        m = np.array([True, False, True])
        assert any_lane(m) is True
        assert all_lanes(m) is False
        np.testing.assert_array_equal(lane_where(m, 1.0, 0.0), [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(
            compress_lanes(m, np.array([10, 20, 30])), [10, 30])
        a, b = compress_lanes(m, np.array([1, 2, 3]), np.array([4, 5, 6]))
        np.testing.assert_array_equal(a, [1, 3])
        np.testing.assert_array_equal(b, [4, 6])

    def test_masked_gather_never_dereferences_inactive_lanes(self):
        target = np.array([1.0, 2.0, 3.0])
        idx = np.array([0, 99, 2])         # lane 1 out of bounds but masked
        m = np.array([True, False, True])
        np.testing.assert_array_equal(
            masked_gather(target, idx, m, other=-1.0), [1.0, -1.0, 3.0])
        # Scalar forms
        assert masked_gather(target, 1, True) == 2.0
        assert masked_gather(target, 99, False, other=7.0) == 7.0

    def test_masked_store_scatters_active_lanes_only(self):
        out = np.zeros(4)
        masked_store(out, np.array([0, 1, 99]), np.array([5.0, 6.0, 7.0]),
                     np.array([True, True, False]))
        np.testing.assert_array_equal(out, [5.0, 6.0, 0.0, 0.0])
        # Broadcasting scalar index/value over the mask shape
        out2 = np.zeros(4)
        masked_store(out2, 2, 9.0, np.array([False, True]))
        assert out2[2] == 9.0
        # Scalar forms
        masked_store(out2, 3, 1.5, True)
        masked_store(out2, 0, 8.0, False)
        np.testing.assert_array_equal(out2, [0.0, 0.0, 9.0, 1.5])

    def test_masked_store_all_inactive_is_noop(self):
        out = np.zeros(2)
        masked_store(out, np.array([5, 6]), np.array([1.0, 2.0]),
                     np.array([False, False]))
        np.testing.assert_array_equal(out, 0.0)


# ---------------------------------------------------------------------------
# Mode selection and fallback
# ---------------------------------------------------------------------------

@kernel(vector_safe=True)
def _vec_iota(out, n):
    i = block_idx.x * block_dim.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    out[i] = i


@kernel
def _scalar_iota(out, n):
    i = block_idx.x * block_dim.x + thread_idx.x
    if i < n:
        out[i] = i


class TestModeSelection:
    def test_vector_safe_flag_round_trips(self):
        assert kernel_vector_safe(_vec_iota) is True
        assert kernel_vector_safe(_scalar_iota) is False
        assert _vec_iota.vector_safe is True

    def test_explicit_false_overrides_sticky_function_marking(self):
        from repro.core.kernel import Kernel

        # Re-wrapping the underlying function inherits the marking ...
        assert Kernel(_vec_iota.fn).vector_safe is True
        # ... but an explicit opt-out must win over the cached attribute.
        assert Kernel(_vec_iota.fn, vector_safe=False).vector_safe is False
        out = np.zeros(8)
        result = KernelExecutor().launch(
            Kernel(_vec_iota.fn, vector_safe=False), (out, 8),
            LaunchConfig.make(1, 8))
        assert result.mode == "sequential"
        np.testing.assert_array_equal(out, np.arange(8.0))

    def test_auto_picks_vectorized_for_vector_safe(self):
        out = np.zeros(32)
        result = KernelExecutor().launch(_vec_iota, (out, 32),
                                         LaunchConfig.make(2, 16))
        assert result.mode == "vectorized"
        np.testing.assert_array_equal(out, np.arange(32.0))

    def test_explicit_vectorized_falls_back_for_plain_kernel(self):
        out = np.zeros(32)
        result = KernelExecutor().launch(_scalar_iota, (out, 32),
                                         LaunchConfig.make(2, 16),
                                         mode="vectorized")
        assert result.mode == "sequential"   # vector safety is a kernel property
        np.testing.assert_array_equal(out, np.arange(32.0))

    def test_explicit_vectorized_falls_back_to_cooperative_for_barrier_kernel(self):
        @kernel
        def barrier_probe(out):
            barrier()
            out[thread_idx.x] = 1.0

        out = np.zeros(4)
        result = KernelExecutor().launch(barrier_probe, (out,),
                                         LaunchConfig.make(1, 4),
                                         mode="vectorized")
        assert result.mode == "cooperative"
        np.testing.assert_array_equal(out, 1.0)

    def test_explicit_scalar_modes_still_available(self):
        out = np.zeros(8)
        result = KernelExecutor().launch(_vec_iota, (out, 8),
                                         LaunchConfig.make(1, 8),
                                         mode="sequential")
        assert result.mode == "sequential"
        np.testing.assert_array_equal(out, np.arange(8.0))


# ---------------------------------------------------------------------------
# Whole-grid chunking
# ---------------------------------------------------------------------------

class TestChunking:
    def test_chunked_whole_grid_matches_single_chunk(self, monkeypatch):
        launch = LaunchConfig.make(16, 8)
        n = 100                               # tail guard active
        full = np.zeros(128)
        KernelExecutor().launch(_vec_iota, (full, n), launch)

        monkeypatch.setattr(vector_executor, "VECTOR_CHUNK_LANES", 16)
        chunked = np.zeros(128)
        result = KernelExecutor().launch(_vec_iota, (chunked, n), launch)
        assert result.mode == "vectorized"
        assert result.threads_run == 128
        assert result.blocks_run == 16
        np.testing.assert_array_equal(full, chunked)

    def test_single_lane_block(self):
        # One thread per block: the lane arrays have size 1 and NumPy keeps
        # them on the array path (no silent scalar degradation).
        out = np.zeros(4)
        result = KernelExecutor().launch(_vec_iota, (out, 4),
                                         LaunchConfig.make(4, 1))
        assert result.mode == "vectorized"
        np.testing.assert_array_equal(out, np.arange(4.0))


# ---------------------------------------------------------------------------
# Lane geometry: memoised per single-chunk launch, read-only everywhere
# ---------------------------------------------------------------------------

#: the (thread_idx, block_idx) components each lane set of the recording
#: kernels below saw, in launch order
_SEEN = []


@kernel(vector_safe=True)
def _record_lanes(out):
    _SEEN.append((thread_idx.x, thread_idx.y, thread_idx.z,
                  block_idx.x, block_idx.y, block_idx.z))
    out[0] = 1.0


@kernel(vector_safe=True)
def _record_block_lanes(out):
    barrier()
    _SEEN.append((thread_idx.x, thread_idx.y, thread_idx.z))
    out[0] = 1.0


def _seen_lanes(kern, launch):
    """The index components *kern* saw in one vectorized launch."""
    _SEEN.clear()
    result = KernelExecutor().launch(kern, (np.zeros(1),), launch,
                                     mode="vectorized")
    assert result.mode == "vectorized"
    seen = list(_SEEN)
    _SEEN.clear()
    return seen


#: the untuned stencil tuning probe's geometry: (512, 1, 1) blocks on an
#: L=16 grid, 131,072 lanes in one chunk
_PROBE = LaunchConfig.make((1, 16, 16), (512, 1, 1))


class TestLaneGeometry:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        vector_executor.LANE_GEOMETRY_MEMO.clear()
        yield
        vector_executor.LANE_GEOMETRY_MEMO.clear()

    @pytest.mark.parametrize("launch", [
        LaunchConfig.make(4, 16),                            # 64 lanes
        _PROBE,                                              # 131,072
        LaunchConfig.make(vector_executor.VECTOR_CHUNK_LANES // 512 + 2,
                          512),                              # two chunks
    ], ids=["64", "131072", "multi-chunk"])
    def test_whole_grid_lane_arrays_are_read_only(self, launch):
        seen = _seen_lanes(_record_lanes, launch)
        arrays = [c for comps in seen for c in comps
                  if isinstance(c, np.ndarray)]
        assert arrays
        assert all(a.flags.writeable is False for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0] = 7

    @pytest.mark.parametrize("chunk_lanes", [None, 64],
                             ids=["memoised", "transient"])
    def test_per_block_lane_arrays_are_read_only(self, chunk_lanes,
                                                 monkeypatch):
        if chunk_lanes is not None:
            monkeypatch.setattr(vector_executor, "VECTOR_CHUNK_LANES",
                                chunk_lanes)
        seen = _seen_lanes(_record_block_lanes, LaunchConfig.make(3, 32))
        assert len(seen) == 3
        assert all(c.flags.writeable is False for comps in seen
                   for c in comps)

    def test_relaunch_is_a_hit_returning_the_same_arrays(self):
        from repro.obs import registry

        memo = vector_executor.LANE_GEOMETRY_MEMO
        hits = registry().counter("memo_hits_total", memo="lane_geometry")
        first = _seen_lanes(_record_lanes, _PROBE)
        assert memo.cache_info().misses == 1
        assert memo.cache_info().bytes > 0
        second = _seen_lanes(_record_lanes, _PROBE)
        assert len(first) == len(second) == 1
        assert all(a is b for a, b in zip(first[0], second[0]))
        info = memo.cache_info()
        assert (info.hits, info.misses, info.entries) == (1, 1, 1)
        assert registry().counter("memo_hits_total",
                                  memo="lane_geometry") == hits + 1

    def test_launch_above_chunk_size_stores_nothing(self):
        launch = LaunchConfig.make(
            vector_executor.VECTOR_CHUNK_LANES // 512 + 2, 512)
        assert not vector_executor.single_chunk(launch)
        assert len(_seen_lanes(_record_lanes, launch)) == 2
        assert vector_executor.LANE_GEOMETRY_MEMO.cache_info().entries == 0

    def test_chunk_size_is_part_of_the_key(self, monkeypatch):
        memo = vector_executor.LANE_GEOMETRY_MEMO
        launch = LaunchConfig.make(4, 16)
        _seen_lanes(_record_lanes, launch)
        monkeypatch.setattr(vector_executor, "VECTOR_CHUNK_LANES", 128)
        _seen_lanes(_record_lanes, launch)
        info = memo.cache_info()
        assert (info.hits, info.misses, info.entries) == (0, 2, 2)

    def test_extent_one_components_are_zero_stride_views(self):
        (tx, ty, tz, bx, by, bz), = _seen_lanes(_record_lanes, _PROBE)
        lanes = _PROBE.total_threads
        for comp in (ty, tz, bx):
            assert comp.strides == (0,)
            assert comp.dtype == np.int64 and comp.shape == (lanes,)
            np.testing.assert_array_equal(comp, np.zeros(lanes, np.int64))
        for comp in (tx, by, bz):
            assert comp.strides == (8,)
        np.testing.assert_array_equal(tx, np.tile(np.arange(512), 256))
        np.testing.assert_array_equal(bz, np.repeat(np.arange(16), 512 * 16))


# ---------------------------------------------------------------------------
# Cross-mode parity on the four science kernels
# ---------------------------------------------------------------------------

def _stencil_run(mode, L=10, block=(4, 2, 2)):
    from repro.kernels.stencil import StencilProblem
    from repro.kernels.stencil.kernel import laplacian_kernel
    from repro.kernels.stencil.runner import stencil_launch_config

    problem = StencilProblem(L, "float64")
    u_host = problem.initial_field()
    args = problem.inverse_spacing_squared
    layout = Layout.row_major(L, L, L)
    u = LayoutTensor(DType.float64, layout, u_host.reshape(-1).copy(),
                     mut=False, bounds_check=False)
    f_store = np.zeros(L ** 3)
    f = LayoutTensor(DType.float64, layout, f_store, bounds_check=False)
    result = KernelExecutor().launch(
        laplacian_kernel, (f, u, L, L, L, *args),
        stencil_launch_config(L, block), mode=mode)
    return f_store, result


class TestStencilParity:
    def test_three_mode_bit_and_counter_parity(self):
        f_seq, r_seq = _stencil_run("sequential")
        f_coop, r_coop = _stencil_run("cooperative")
        f_vec, r_vec = _stencil_run("vectorized")
        assert r_vec.mode == "vectorized"
        np.testing.assert_array_equal(f_seq, f_vec)
        np.testing.assert_array_equal(f_seq, f_coop)
        assert r_seq.counters.as_dict() == r_vec.counters.as_dict() \
            == r_coop.counters.as_dict()


class TestBabelStreamParity:
    def test_streaming_kernels_bitwise(self, rng):
        from repro.kernels.babelstream.kernels import (
            add_kernel, copy_kernel, mul_kernel, triad_kernel)

        n, tb = 500, 64
        launch = LaunchConfig.for_elements(n, tb)
        base = rng.normal(size=n)
        outputs = {}
        for mode in ("sequential", "vectorized"):
            a = base.copy()
            b = np.zeros(n)
            c = np.zeros(n)
            ex = KernelExecutor()
            ex.launch(copy_kernel, (a, c, n), launch, mode=mode)
            ex.launch(mul_kernel, (b, c, 0.4, n), launch, mode=mode)
            ex.launch(add_kernel, (a, b, c, n), launch, mode=mode)
            ex.launch(triad_kernel, (a, b, c, 0.4, n), launch, mode=mode)
            outputs[mode] = (a, b, c)
        for seq_arr, vec_arr in zip(*outputs.values()):
            np.testing.assert_array_equal(seq_arr, vec_arr)

    def test_dot_matches_cooperative_bitwise_with_counters(self, rng):
        from repro.kernels.babelstream.kernels import dot_kernel

        n, tb, blocks = 1000, 64, 4
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        launch = LaunchConfig.make(blocks, tb)
        out = {}
        for mode in ("cooperative", "vectorized"):
            sums = np.zeros(blocks)
            r = KernelExecutor().launch(dot_kernel, (a, b, sums, n, tb),
                                        launch, mode=mode)
            out[mode] = (sums, r)
        sums_coop, r_coop = out["cooperative"]
        sums_vec, r_vec = out["vectorized"]
        assert r_vec.mode == "vectorized"
        np.testing.assert_array_equal(sums_coop, sums_vec)
        assert r_coop.counters.as_dict() == r_vec.counters.as_dict()
        # log2(64) barriers in the tree + the final one, per thread
        assert r_vec.counters.barriers == blocks * tb * 7
        assert r_vec.shared_bytes_per_block == tb * 8
        np.testing.assert_allclose(sums_vec.sum(), a @ b, rtol=1e-12)


class TestMiniBudeParity:
    def test_three_mode_bit_and_counter_parity(self, ctx):
        from repro.kernels.minibude import make_deck
        from repro.kernels.minibude.runner import run_fasten_functional

        deck = make_deck(natlig=6, natpro=24, ntypes=4, nposes=32, seed=5)
        energies = {}
        for mode in ("sequential", "cooperative", "vectorized"):
            e, err = run_fasten_functional(ctx, deck, ppwi=2, wgsize=8,
                                           executor=mode)
            energies[mode] = e
            assert err < 2e-3
        np.testing.assert_array_equal(energies["sequential"],
                                      energies["vectorized"])
        np.testing.assert_array_equal(energies["sequential"],
                                      energies["cooperative"])


class TestHartreeFockParity:
    def _run(self, mode, system, schwarz, schwarz_tol=0.0, block=16):
        from repro.core.device import DeviceContext
        from repro.kernels.hartreefock.kernel import hartree_fock_kernel

        ctx = DeviceContext("h100")
        n = system.natoms

        def make_tensor(data, shape, label):
            flat = np.asarray(data, dtype=np.float64).reshape(-1)
            buf = ctx.enqueue_create_buffer(DType.float64, flat.size,
                                            label=label)
            buf.copy_from_host(flat)
            return buf, buf.tensor(Layout.row_major(*shape),
                                   bounds_check=False)

        _, schwarz_t = make_tensor(schwarz, (len(schwarz),), "schwarz")
        _, xpnt_t = make_tensor(system.xpnt, (system.ngauss,), "xpnt")
        _, coef_t = make_tensor(system.coef, (system.ngauss,), "coef")
        _, geom_t = make_tensor(system.geometry, (n, 3), "geom")
        _, dens_t = make_tensor(system.dens, (n, n), "dens")
        fock_buf, fock_t = make_tensor(np.zeros((n, n)), (n, n), "fock")
        launch = LaunchConfig.for_elements(system.nquads, block)
        ctx.enqueue_function(
            hartree_fock_kernel, system.ngauss, n, system.nquads, schwarz_t,
            schwarz_tol, xpnt_t, coef_t, geom_t, dens_t, fock_t,
            grid_dim=launch.grid_dim, block_dim=launch.block_dim, mode=mode)
        ctx.synchronize()
        event = ctx.timeline[-1].execution
        return fock_buf.copy_to_host().reshape(n, n), event

    def test_counter_parity_and_oracle_match(self):
        from repro.kernels.hartreefock import make_helium_system
        from repro.kernels.hartreefock.reference import fock_quadruple_reference
        from repro.kernels.hartreefock.runner import compute_schwarz

        system = make_helium_system(5, 3, spacing=2.5)
        schwarz = compute_schwarz(system)
        results = {m: self._run(m, system, schwarz)
                   for m in ("sequential", "cooperative", "vectorized")}
        counters = {m: r[1].counters.as_dict() for m, r in results.items()}
        assert counters["sequential"] == counters["vectorized"] \
            == counters["cooperative"]
        assert counters["vectorized"]["atomics"] == 6 * system.nquads

        # The six atomic scatter sites interleave differently across
        # executors (per-thread in scalar modes, per-site np.add.at in
        # lockstep), so the accumulated Fock matrix agrees to floating-point
        # associativity, not bit-for-bit.
        fock_vec = results["vectorized"][0]
        scale = np.max(np.abs(fock_vec))
        assert np.max(np.abs(fock_vec - results["sequential"][0])) / scale < 1e-13

        # Against the batched unique-quadruple reference — the scalar
        # contracted_eri oracle evaluated via contracted_eri_batch — the
        # lockstep kernel shares both the ERI arithmetic and the np.add.at
        # scatter order, so the agreement is at the ulp level.
        expected = fock_quadruple_reference(system)
        assert np.max(np.abs(fock_vec - expected)) / scale < 1e-15

    def test_screened_launch_parity(self):
        from repro.kernels.hartreefock import make_helium_system
        from repro.kernels.hartreefock.runner import compute_schwarz

        system = make_helium_system(6, 3, spacing=6.0)   # wide: screening bites
        schwarz = compute_schwarz(system)
        f_seq, r_seq = self._run("sequential", system, schwarz,
                                 schwarz_tol=1e-9)
        f_vec, r_vec = self._run("vectorized", system, schwarz,
                                 schwarz_tol=1e-9)
        assert r_seq.counters.as_dict() == r_vec.counters.as_dict()
        # Screening must actually drop quadruples for this geometry.
        assert r_vec.counters.atomics < 6 * system.nquads
        scale = max(np.max(np.abs(f_vec)), 1e-30)
        assert np.max(np.abs(f_vec - f_seq)) / scale < 1e-13


# ---------------------------------------------------------------------------
# Lane-vector atomics
# ---------------------------------------------------------------------------

class TestLaneVectorAtomics:
    def test_duplicate_indices_accumulate_in_lane_order(self):
        from repro.core.atomics import Atomic

        out = np.zeros(3)
        tensor = LayoutTensor(DType.float64, Layout.row_major(3), out)
        Atomic.fetch_add(tensor, np.array([0, 1, 1, 2]),
                         np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(out, [1.0, 5.0, 4.0])

    def test_tuple_index_arrays_resolve_through_layout(self):
        from repro.core.atomics import Atomic

        out = np.zeros(4)
        tensor = LayoutTensor(DType.float64, Layout.row_major(2, 2), out)
        Atomic.fetch_add(tensor, (np.array([0, 1]), np.array([1, 0])),
                         np.array([2.0, 3.0]))
        np.testing.assert_array_equal(out, [0.0, 2.0, 3.0, 0.0])

    def test_out_of_bounds_lane_rejected(self):
        from repro.core.atomics import Atomic
        from repro.core.errors import LaunchError

        out = np.zeros(2)
        with pytest.raises(LaunchError):
            Atomic.fetch_add(out, np.array([0, 5]), np.array([1.0, 1.0]))

    def test_compare_exchange_rejects_lane_vectors(self):
        from repro.core.atomics import Atomic
        from repro.core.errors import LaunchError

        out = np.zeros(2)
        with pytest.raises(LaunchError):
            Atomic.compare_exchange(out, np.array([0, 1]), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Lane-aware tensor indexing
# ---------------------------------------------------------------------------

class TestLaneTensorIndexing:
    def test_bounds_checked_gather_and_scatter(self):
        store = np.arange(6.0)
        t = LayoutTensor(DType.float64, Layout.row_major(2, 3), store,
                         bounds_check=True)
        np.testing.assert_array_equal(t[np.array([0, 1]), np.array([2, 0])],
                                      [2.0, 3.0])
        t[np.array([0, 1]), np.array([0, 2])] = np.array([10.0, 11.0])
        assert store[0] == 10.0 and store[5] == 11.0

    def test_bounds_checked_lane_index_rejected_when_out_of_range(self):
        from repro.core.errors import LayoutError

        t = LayoutTensor(DType.float64, Layout.row_major(2, 3),
                         np.zeros(6), bounds_check=True)
        with pytest.raises(LayoutError):
            t[np.array([0, 2]), np.array([0, 0])]

    def test_unchecked_flat_gather(self):
        t = LayoutTensor(DType.float64, Layout.row_major(4),
                         np.arange(4.0), bounds_check=False)
        np.testing.assert_array_equal(t[np.array([3, 1])], [3.0, 1.0])
