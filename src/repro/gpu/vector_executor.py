"""Lockstep (SIMT-vectorized) execution of vector-safe device kernels.

The scalar executors in :mod:`repro.gpu.executor` pay one Python call per
simulated thread, which caps functional simulation at roughly 10^5 threads
per second.  This module evaluates a *vector-safe* kernel body (one the
static verifier proves lockstep-safe, :func:`kernel_vector_safe`, written
with the lane helpers in :mod:`repro.core.intrinsics`) once per **lane
set** instead: ``thread_idx`` / ``block_idx`` resolve to NumPy index arrays
carrying one element per lane, so every statement of the body executes for
all lanes at once as array operations — the data-centric lockstep execution
of per-thread code that Ziogas et al. and MIRGE use to reclaim array-level
throughput without giving up per-thread semantics.

Two lane-set granularities exist:

* **whole grid** — kernels without barriers or shared memory have no
  intra-block communication, so the entire launch is one lane set (chunked
  at block boundaries to bound the size of the index arrays);
* **per block** — kernels with ``barrier()`` / shared memory run one lane
  set per block.  Because lockstep granularity is per *statement* — finer
  than the per-barrier-phase split a diverging executor would need —
  every lane has completed the pre-barrier statements when ``barrier()`` is
  reached, so the barrier degenerates to an event-count bump of one barrier
  per lane (keeping :class:`~repro.gpu.executor.ExecutionCounters` identical
  to the scalar modes, where each simulated thread counts its own call).

The index arrays of a launch that fits one chunk (:func:`single_chunk`) are
built once and memoised in :data:`LANE_GEOMETRY_MEMO`, which is what makes
replaying a captured launch cheap.  Every index array a body sees is
read-only.

Masked divergence (``if`` guards, predicated accumulation) is expressed in
the kernel body through the lane helpers (``any_lane`` + ``compress_lanes``
for top-level guards, ``lane_where`` / ``masked_store`` for predicated
branches); atomics take the ``np.add.at``-backed lane-vector form in
:mod:`repro.core.atomics`.  Kernels the verifier does not prove vector-safe
fall back to the scalar executors automatically — see
:meth:`KernelExecutor.launch`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..core.intrinsics import Dim3, bind_thread_state
from ..core.kernel import Kernel, as_kernel
from ..core.memo import Memo
from ..resilience import faults as _faults

__all__ = ["VectorThreadState", "LaneDim3", "kernel_vector_safe",
           "run_vectorized", "single_chunk", "VECTOR_CHUNK_LANES",
           "LANE_GEOMETRY_MEMO"]

#: whole-grid lane sets are split at block boundaries so one chunk carries at
#: most this many lanes (bounds the size of the per-lane index arrays)
VECTOR_CHUNK_LANES = 1 << 18


def single_chunk(launch) -> bool:
    """True when a whole-grid launch executes as exactly one lane chunk.

    The legality query kernel fusion (:mod:`repro.graphopt.passes`) keys on:
    sequencing fused part bodies is only equivalent to back-to-back launches
    when every lane of a part completes before the next part starts.  One
    chunk guarantees that; chunked execution would interleave the parts per
    chunk (part A chunk 1, part B chunk 1, part A chunk 2, ...), which
    breaks cross-lane producer/consumer patterns between parts.
    """
    return _single_chunk(launch.block_dim, launch.grid_dim)


def _single_chunk(bd: Dim3, gd: Dim3) -> bool:
    return bd.total * gd.total <= VECTOR_CHUNK_LANES


def kernel_vector_safe(kern) -> bool:
    """True when the static verifier proves *kern* safe for lockstep execution.

    The one verdict every dispatch decision reads (the executor's mode
    resolution and the fuse pass alike): :attr:`Kernel.verdict
    <repro.core.kernel.Kernel.verdict>`, kept on the kernel after the
    first resolution.  A plain callable reads the verdict of the one
    kernel it runs as (:func:`~repro.core.kernel.as_kernel`).
    """
    if not isinstance(kern, Kernel):
        kern = as_kernel(kern)
    return kern.verdict.vector_safe


class LaneDim3:
    """A ``dim3`` whose components may be per-lane index arrays.

    Mirrors the attribute surface the intrinsic proxies read
    (``thread_idx.x`` ...), but ``x``/``y``/``z`` are NumPy int arrays (one
    entry per lane) — or plain ints when the component is uniform across the
    lane set (e.g. ``block_idx`` in per-block mode).
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x = x
        self.y = y
        self.z = z

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaneDim3({self.x!r}, {self.y!r}, {self.z!r})"


class VectorThreadState:
    """Lane-set execution state, bound in place of a scalar ``ThreadState``.

    Presents the same attribute surface the intrinsic proxies, shared-memory
    allocation and atomics read (``thread_idx``, ``block_idx``, ``block_dim``,
    ``grid_dim``, ``block_shared``, ``counters``, ``_shared_seq``), but the
    thread/block indices are :class:`LaneDim3` carrying one element per lane.
    ``barrier()`` counts one barrier event per lane and synchronises nothing:
    lockstep execution already guarantees every lane completed the preceding
    statements.
    """

    __slots__ = ("thread_idx", "block_idx", "block_dim", "grid_dim",
                 "block_shared", "block_barrier", "counters", "num_lanes",
                 "_shared_seq")

    def __init__(self, thread_idx: LaneDim3, block_idx, block_dim: Dim3,
                 grid_dim: Dim3, num_lanes: int,
                 block_shared: Optional[Dict] = None, counters=None):
        self.thread_idx = thread_idx
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.num_lanes = int(num_lanes)
        self.block_shared = block_shared if block_shared is not None else {}
        self.block_barrier = None
        self.counters = counters
        self._shared_seq = 0

    # ------------------------------------------------------------------ ids
    @property
    def linear_thread_id(self):
        t, b = self.thread_idx, self.block_dim
        return t.x + t.y * b.x + t.z * b.x * b.y

    @property
    def linear_block_id(self):
        c, g = self.block_idx, self.grid_dim
        return c.x + c.y * g.x + c.z * g.x * g.y

    @property
    def global_linear_id(self):
        return self.linear_block_id * self.block_dim.total + self.linear_thread_id

    # --------------------------------------------------------------- shared
    def shared_alloc(self, key: str, size: int, dtype) -> np.ndarray:
        """Return (allocating on first use) a block-shared array.

        One logical allocation serves every lane of the block, exactly as one
        ``__shared__`` array serves every thread.  Uses the same atomic
        ``dict.setdefault`` form as ``ThreadState.shared_alloc``: the
        vectorized executor is single-threaded today, but the allocation
        paths must not diverge on the race the scalar one was fixed for.
        """
        arr = self.block_shared.get(key)
        if arr is None:
            from ..core.dtypes import dtype_from_any
            np_dtype = dtype_from_any(dtype).to_numpy()
            arr = self.block_shared.setdefault(
                key, np.zeros(int(size), dtype=np_dtype))
        return arr

    def barrier(self) -> None:
        """Lockstep barrier: counts one event per lane, synchronises nothing."""
        if self.counters is not None:
            self.counters.record_barrier(self.num_lanes)


def _lane_indices(extent: Dim3):
    """Per-lane (x, y, z) index arrays enumerating *extent*, x fastest.

    The lane order matches ``_iter_dim3`` in the scalar executors, so
    colliding scatters and unbuffered atomic accumulations visit elements in
    the same order in every execution mode.
    """
    lin = np.arange(extent.total, dtype=np.int64)
    x = lin % extent.x
    y = (lin // extent.x) % extent.y
    z = lin // (extent.x * extent.y)
    return x, y, z


@dataclasses.dataclass
class LaneSet:
    """The index arrays of one lane set, frozen on construction so a body
    that writes to ``thread_idx.x`` fails alike for every launch size.

    A whole-grid chunk has one entry per lane (block components are ints
    for a one-block chunk); a per-block geometry has the thread components
    of one block and one block-component entry per block.
    """

    tx: np.ndarray
    ty: np.ndarray
    tz: np.ndarray
    bx: object
    by: object
    bz: object
    lanes: int

    def __post_init__(self):
        for comp in (self.tx, self.ty, self.tz, self.bx, self.by, self.bz):
            if isinstance(comp, np.ndarray):
                comp.flags.writeable = False

    def chunk(self):
        """``(thread_idx, block_idx, lanes)`` as the kernel body sees them."""
        return (LaneDim3(self.tx, self.ty, self.tz),
                LaneDim3(self.bx, self.by, self.bz), self.lanes)


#: lane sets of single-chunk launches (see :func:`single_chunk`), keyed by
#: launch geometry; larger launches build theirs transiently, so peak
#: memory for big grids stays one chunk
LANE_GEOMETRY_MEMO = Memo("lane_geometry")


def _memoised(kind: str, bd: Dim3, gd: Dim3, build):
    """``build()``, memoised when the launch is a single chunk."""
    if not _single_chunk(bd, gd):
        return build()
    # the chunking depends on VECTOR_CHUNK_LANES, so the key carries it
    key = (kind, bd.x, bd.y, bd.z, gd.x, gd.y, gd.z, VECTOR_CHUNK_LANES)
    return LANE_GEOMETRY_MEMO.get_or_compute(key, build)


def _iter_chunks(bd: Dim3, gd: Dim3):
    """Yield whole-grid :class:`LaneSet` chunks.

    Consecutive blocks are fused into chunks of at most
    :data:`VECTOR_CHUNK_LANES` lanes.
    """
    tpb = bd.total
    tx, ty, tz = _lane_indices(bd)
    bx, by, bz = _lane_indices(gd)
    blocks_per_chunk = max(VECTOR_CHUNK_LANES // tpb, 1)
    for start in range(0, gd.total, blocks_per_chunk):
        stop = min(start + blocks_per_chunk, gd.total)
        nblocks = stop - start
        if nblocks == 1:
            yield LaneSet(tx, ty, tz, int(bx[start]), int(by[start]),
                          int(bz[start]), tpb)
            continue
        # a component of extent 1 is all zeros: a zero-stride view
        lanes = nblocks * tpb
        zero = np.broadcast_to(np.int64(0), (lanes,))
        yield LaneSet(
            *(zero if n == 1 else np.tile(c, nblocks)
              for c, n in zip((tx, ty, tz), bd)),
            *(zero if n == 1 else np.repeat(c[start:stop], tpb)
              for c, n in zip((bx, by, bz), gd)),
            lanes)


def _grid_geometry(bd: Dim3, gd: Dim3):
    """Whole-grid lane geometry: an iterable of ``(thread_idx, block_idx,
    lanes)`` chunk tuples, the one chunk of a single-chunk launch memoised.
    """
    if not _single_chunk(bd, gd):
        return (lane_set.chunk() for lane_set in _iter_chunks(bd, gd))
    return (_memoised("grid", bd, gd,
                      lambda: next(_iter_chunks(bd, gd))).chunk(),)


def _block_geometry(bd: Dim3, gd: Dim3) -> LaneSet:
    """Per-block lane geometry: the thread indices of one block and the
    block indices of the grid, memoised for a single-chunk launch."""
    return _memoised("block", bd, gd, lambda: LaneSet(
        *_lane_indices(bd), *_lane_indices(gd), bd.total))


def run_vectorized(kern, args, launch, counters, *, per_block: bool) -> int:
    """Execute one launch in lockstep; returns the peak shared bytes/block.

    ``per_block=True`` (kernels with barriers / shared memory) evaluates one
    lane set per block; otherwise consecutive blocks are fused into whole-grid
    chunks of at most :data:`VECTOR_CHUNK_LANES` lanes.
    """
    fn = kern.fn if isinstance(kern, Kernel) else kern
    injector = _faults._ACTIVE
    if injector is not None:
        # Graph-replay thunks call run_vectorized directly, bypassing
        # KernelExecutor.launch — this site covers that path too.
        name = kern.name if isinstance(kern, Kernel) else \
            getattr(fn, "__name__", "kernel")
        injector.fail_launch("launch.vectorized", name)
    bd, gd = launch.block_dim, launch.grid_dim
    tpb = bd.total
    max_shared = 0

    if per_block:
        geom = _block_geometry(bd, gd)
        bx, by, bz = geom.bx, geom.by, geom.bz
        state = VectorThreadState(
            thread_idx=LaneDim3(geom.tx, geom.ty, geom.tz),
            block_idx=LaneDim3(0, 0, 0),
            block_dim=bd, grid_dim=gd, num_lanes=tpb, counters=counters,
        )
        with bind_thread_state(state):
            for bi in range(gd.total):
                state.block_idx = LaneDim3(int(bx[bi]), int(by[bi]), int(bz[bi]))
                state.block_shared = {}
                state._shared_seq = 0
                fn(*args)
                shared = _shared_bytes(state.block_shared)
                if shared > max_shared:
                    max_shared = shared
        counters.merge(threads_run=gd.total * tpb, blocks_run=gd.total)
        return max_shared

    # Whole-grid mode: blocks are independent, fused into chunks (memoised
    # for a single-chunk launch, a transient generator for bigger grids).
    state = VectorThreadState(
        thread_idx=LaneDim3(0, 0, 0),
        block_idx=LaneDim3(0, 0, 0),
        block_dim=bd, grid_dim=gd, num_lanes=tpb, counters=counters,
    )
    with bind_thread_state(state):
        for thread_idx, block_idx, num_lanes in _grid_geometry(bd, gd):
            state.thread_idx = thread_idx
            state.block_idx = block_idx
            state.num_lanes = num_lanes
            state.block_shared = {}
            state._shared_seq = 0
            fn(*args)
    counters.merge(threads_run=gd.total * tpb, blocks_run=gd.total)
    return max_shared


def _shared_bytes(block_shared: Dict) -> int:
    total = 0
    for arr in block_shared.values():
        total += getattr(arr, "nbytes", 0)
    return int(total)
