"""GPU thread intrinsics: ``thread_idx``, ``block_idx``, ``barrier`` ...

The paper's kernels (Listings 2-5) read built-in index registers such as
``thread_idx.x`` and synchronise with ``barrier()``.  Inside this simulator a
kernel body is an ordinary Python function; while the executor runs it, the
"current thread" state is stored in a thread-local so that module-level proxy
objects (``thread_idx``, ``block_idx``, ``block_dim``, ``grid_dim``) resolve to
the right values both in the sequential executor and in the cooperative
(threaded) executor used for kernels with barriers.

Example
-------
>>> from repro.core import thread_idx, block_idx, block_dim
>>> def copy_kernel(a, c, n):
...     i = block_dim.x * block_idx.x + thread_idx.x
...     if i < n:
...         c[i] = a[i]
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .dtypes import dtype_from_any
from .errors import LaunchError
from .layout import LayoutTensor

__all__ = [
    "Dim3",
    "ThreadState",
    "thread_idx",
    "block_idx",
    "block_dim",
    "grid_dim",
    "global_idx",
    "barrier",
    "stack_allocation",
    "shared_array",
    "AddressSpace",
    "current_thread_state",
    "bind_thread_state",
    "ceildiv",
    "any_lane",
    "all_lanes",
    "lane_where",
    "compress_lanes",
    "masked_gather",
    "masked_store",
    "SIMT_MODEL",
]

#: Static model of the SIMT intrinsic surface, read by the kernel front end
#: (:mod:`repro.analysis.kernel_ir`, whose IR the verifier, the region
#: analysis and the lowering tier share) and by the executor's
#: cooperative-mode check.  Groups name the *semantic role* each intrinsic
#: plays in a lockstep (vectorized) evaluation — what produces lane-varying
#: values, what reduces them back to uniform ones, what bounds them, and what
#: synchronises.  New intrinsics must join a group here (or a new group the
#: front end learns), otherwise the analysis treats them as opaque calls.
SIMT_MODEL = {
    # module-level proxies whose components differ per lane
    "lane_index_sources": ("thread_idx", "block_idx"),
    # proxies that are identical across every lane of a block/grid
    "uniform_geometry": ("block_dim", "grid_dim"),
    # calls returning lane-varying indices
    "lane_index_calls": ("global_idx",),
    # reductions collapsing a lane-varying mask to one uniform truth value
    "lane_reductions": ("any_lane", "all_lanes"),
    # constructs that bound lane-varying values (select/compact)
    "lane_guards": ("compress_lanes", "lane_where"),
    # predicated memory accessors (safe at any in-mask index)
    "masked_reads": ("masked_gather",),
    "masked_writes": ("masked_store",),
    # block shared-memory allocators
    "shared_allocators": ("shared_array", "stack_allocation"),
    # block-level synchronisation
    "barrier_calls": ("barrier",),
}


def ceildiv(a: int, b: int) -> int:
    """Ceiling integer division, as used to size grids from problem sizes."""
    if b <= 0:
        raise LaunchError(f"ceildiv divisor must be positive, got {b}")
    return -(-int(a) // int(b))


@dataclass(frozen=True)
class Dim3:
    """A 3-component index/extent, matching CUDA/HIP/Mojo ``dim3``."""

    x: int = 1
    y: int = 1
    z: int = 1

    @classmethod
    def make(cls, value) -> "Dim3":
        """Coerce an int, tuple or Dim3 into a Dim3."""
        if isinstance(value, Dim3):
            return value
        if isinstance(value, (int, np.integer)):
            return cls(int(value), 1, 1)
        if isinstance(value, (tuple, list)):
            vals = tuple(int(v) for v in value)
            if not 1 <= len(vals) <= 3:
                raise LaunchError(f"dim3 needs 1-3 components, got {vals}")
            return cls(*(vals + (1,) * (3 - len(vals))))
        raise LaunchError(f"cannot interpret {value!r} as a Dim3")

    @property
    def total(self) -> int:
        return self.x * self.y * self.z

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x}, {self.y}, {self.z})"


class AddressSpace:
    """Marker constants for memory spaces, mirroring Mojo's ``AddressSpace``."""

    GLOBAL = "global"
    SHARED = "shared"
    LOCAL = "local"
    CONSTANT = "constant"


class ThreadState:
    """Per-thread execution state visible through the intrinsic proxies.

    The executor creates one of these per simulated thread (sequential mode)
    or per worker thread (cooperative mode) and binds it with
    :func:`bind_thread_state`.
    """

    __slots__ = (
        "thread_idx",
        "block_idx",
        "block_dim",
        "grid_dim",
        "block_shared",
        "block_barrier",
        "counters",
        "_shared_seq",
    )

    def __init__(
        self,
        thread_idx: Dim3,
        block_idx: Dim3,
        block_dim: Dim3,
        grid_dim: Dim3,
        block_shared: Optional[Dict] = None,
        block_barrier=None,
        counters=None,
    ):
        self.thread_idx = thread_idx
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        # Shared memory segments are per *block*; all threads in the block see
        # the same dict instance.
        self.block_shared = block_shared if block_shared is not None else {}
        self.block_barrier = block_barrier
        self.counters = counters
        self._shared_seq = 0

    # ------------------------------------------------------------------ ids
    @property
    def linear_thread_id(self) -> int:
        t, b = self.thread_idx, self.block_dim
        return t.x + t.y * b.x + t.z * b.x * b.y

    @property
    def linear_block_id(self) -> int:
        c, g = self.block_idx, self.grid_dim
        return c.x + c.y * g.x + c.z * g.x * g.y

    @property
    def global_linear_id(self) -> int:
        return self.linear_block_id * self.block_dim.total + self.linear_thread_id

    # --------------------------------------------------------------- shared
    def shared_alloc(self, key: str, size: int, dtype) -> np.ndarray:
        """Return (allocating on first use) a block-shared array.

        All threads of a block calling with the same *key* receive the same
        array object, which is how CUDA ``__shared__`` / Mojo
        ``stack_allocation[..., AddressSpace.SHARED]`` behave.

        The allocation must be race-free under the cooperative executor:
        every worker thread of a block calls this concurrently at kernel
        entry, and a check-then-insert would let two workers allocate
        distinct arrays — one thread then writes partial results into an
        array nobody else reads.  ``dict.setdefault`` is atomic in CPython,
        so exactly one allocation wins and every caller receives it.
        """
        arr = self.block_shared.get(key)
        if arr is None:
            np_dtype = dtype_from_any(dtype).to_numpy()
            arr = self.block_shared.setdefault(
                key, np.zeros(int(size), dtype=np_dtype))
        return arr

    def barrier(self) -> None:
        """Block-level synchronisation."""
        if self.counters is not None:
            self.counters.record_barrier()
        if self.block_barrier is not None:
            self.block_barrier.wait()
        # In sequential mode (single simulated thread at a time within a
        # block-phase executor) the barrier is a no-op; the executor is
        # responsible for choosing cooperative mode for barrier kernels.


_tls = threading.local()


class _Binder:
    """Context manager binding one :class:`ThreadState` to the OS thread.

    A module-level class: building a throwaway class object per bind (the
    previous implementation) costs more than the entire bind/unbind.
    """

    __slots__ = ("state", "prev")

    def __init__(self, state: Optional[ThreadState]):
        self.state = state

    def __enter__(self):
        self.prev = getattr(_tls, "state", None)
        _tls.state = self.state
        return self.state

    def __exit__(self, *exc):
        _tls.state = self.prev
        return False


def bind_thread_state(state: Optional[ThreadState]):
    """Bind *state* as the active thread state for the calling OS thread.

    Returns a context manager so executors can use ``with bind_thread_state(s):``.
    """
    return _Binder(state)


def current_thread_state() -> ThreadState:
    """Return the active :class:`ThreadState` (raises outside a kernel)."""
    state = getattr(_tls, "state", None)
    if state is None:
        raise LaunchError(
            "GPU intrinsics can only be used inside a kernel launched through "
            "DeviceContext.enqueue_function / the executor"
        )
    return state


class _IndexProxy:
    """Module-level proxy exposing ``.x/.y/.z`` of the active thread state.

    The accessors read ``_tls.state`` directly rather than going through
    :func:`current_thread_state`: index reads are the hottest operation of the
    functional simulator (every simulated thread starts by computing its
    global index), so each saved Python frame is measurable.  The
    ``AttributeError`` fallback covers the unbound case (``_tls.state``
    missing or ``None``) and converts it into the usual :class:`LaunchError`.
    """

    __slots__ = ("_attr",)

    def __init__(self, attr: str):
        self._attr = attr

    def _dim(self) -> Dim3:
        return getattr(current_thread_state(), self._attr)

    @property
    def x(self) -> int:
        try:
            return getattr(_tls.state, self._attr).x
        except AttributeError:
            return self._dim().x

    @property
    def y(self) -> int:
        try:
            return getattr(_tls.state, self._attr).y
        except AttributeError:
            return self._dim().y

    @property
    def z(self) -> int:
        try:
            return getattr(_tls.state, self._attr).z
        except AttributeError:
            return self._dim().z

    @property
    def total(self) -> int:
        return self._dim().total

    def as_tuple(self):
        return self._dim().as_tuple()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        try:
            return f"<{self._attr} {self._dim()}>"
        except LaunchError:
            return f"<{self._attr} (unbound)>"


#: Index of the calling thread within its block.
thread_idx = _IndexProxy("thread_idx")
#: Index of the calling thread's block within the grid.
block_idx = _IndexProxy("block_idx")
#: Extent of a block (threads per block).
block_dim = _IndexProxy("block_dim")
#: Extent of the grid (blocks per grid).
grid_dim = _IndexProxy("grid_dim")


def global_idx() -> Dim3:
    """Global 3-D thread index (``block_idx * block_dim + thread_idx``)."""
    s = current_thread_state()
    return Dim3(
        s.block_idx.x * s.block_dim.x + s.thread_idx.x,
        s.block_idx.y * s.block_dim.y + s.thread_idx.y,
        s.block_idx.z * s.block_dim.z + s.thread_idx.z,
    )


def barrier() -> None:
    """Synchronise all threads of the calling block."""
    current_thread_state().barrier()


def stack_allocation(size: int, dtype, *, address_space: str = AddressSpace.SHARED,
                     key: Optional[str] = None) -> np.ndarray:
    """Allocate a block-shared or thread-local scratch array.

    Mirrors Mojo's ``stack_allocation[size, Scalar[dtype], address_space=...]``.
    With ``AddressSpace.SHARED`` the allocation is shared by the block (all
    threads receive the same array); otherwise it is private to the thread.
    """
    state = current_thread_state()
    if address_space == AddressSpace.SHARED:
        if key is None:
            # Allocation identity follows call order within the kernel, which
            # is identical across threads of a block for structured kernels.
            key = f"__shared_{state._shared_seq}"
        state._shared_seq += 1
        return state.shared_alloc(key, size, dtype)
    return np.zeros(int(size), dtype=dtype_from_any(dtype).to_numpy())


def shared_array(size: int, dtype, key: Optional[str] = None) -> np.ndarray:
    """Convenience wrapper for a block-shared allocation."""
    return stack_allocation(size, dtype, address_space=AddressSpace.SHARED, key=key)


# ---------------------------------------------------------------------------
# SIMT-generic lane helpers
#
# A *vector-safe* kernel body is written once and executed in two regimes:
#
# * scalar — the sequential/cooperative executors run the body once per
#   simulated thread; ``thread_idx.x`` is a Python int, conditions are plain
#   bools, and these helpers degrade to trivial scalar operations;
# * lockstep — the vectorized executor
#   (:mod:`repro.gpu.vector_executor`) runs the body once per block (or once
#   for the whole grid) with ``thread_idx.x`` as a NumPy index array, one
#   element per lane; conditions become boolean masks and these helpers
#   express the masked divergence (predicated branches) of SIMT hardware.
#
# The dispatch rule is uniform: a mask that is a ``np.ndarray`` means
# "lockstep over lanes", anything else means "one scalar thread".
# ---------------------------------------------------------------------------


def any_lane(mask) -> bool:
    """True when any active lane satisfies *mask*.

    Scalar threads pass their plain boolean through, so the canonical
    vector-safe guard ``if not any_lane(m): return`` keeps the original
    per-thread early-exit semantics.
    """
    if isinstance(mask, np.ndarray):
        return bool(mask.any())
    return bool(mask)


def all_lanes(mask) -> bool:
    """True when every active lane satisfies *mask*."""
    if isinstance(mask, np.ndarray):
        return bool(mask.all())
    return bool(mask)


def lane_where(mask, value, other):
    """Per-lane select: ``value`` where *mask* holds, else ``other``.

    The vector-safe replacement for a data-dependent ``if``/``else`` whose
    branches only compute values (no stores): scalar threads get a Python
    conditional expression, lockstep lanes get :func:`numpy.where`.
    """
    if isinstance(mask, np.ndarray):
        return np.where(mask, value, other)
    return value if mask else other


def compress_lanes(mask, *values):
    """Restrict *values* to the lanes where *mask* holds.

    Used directly after the ``if not any_lane(mask): return`` guard to drop
    inactive lanes (e.g. the out-of-range tail threads of a 1-D launch), so
    the remaining body can gather/scatter without per-access masking.  Scalar
    threads reach this only when the mask held, so their values pass through
    unchanged.  Returns a single value for a single input, a tuple otherwise.
    """
    if isinstance(mask, np.ndarray):
        out = tuple(v[mask] if isinstance(v, np.ndarray) else v for v in values)
    else:
        out = values
    return out[0] if len(out) == 1 else out


def masked_gather(target, index, mask, other=0.0):
    """Load ``target[index]`` on lanes where *mask* holds, *other* elsewhere.

    Inactive lanes never dereference their (possibly out-of-range) index:
    the lockstep path substitutes index 0 before the gather and replaces the
    result with *other* afterwards, matching the behaviour of a predicated
    load.  A masked-off thread on the scalar path gets *other* typed as the
    lane path's ``np.where`` types it (a float32 tensor's float32, not a
    Python float).
    """
    if isinstance(mask, np.ndarray):
        safe = np.where(mask, index, 0)
        return np.where(mask, target[safe], other)
    if mask:
        return target[index]
    data = target.ptr if isinstance(target, LayoutTensor) else target
    return np.result_type(data.dtype, other).type(other)


def masked_store(target, index, value, mask) -> None:
    """Store ``value`` into ``target[index]`` on lanes where *mask* holds.

    The lockstep path compresses the index/value arrays to the active lanes
    before scattering, so inactive lanes neither write nor evaluate an
    out-of-range address.  Lanes are scattered in ascending-lane order, which
    matches the sequential executor's thread order when duplicate indices
    collide (last lane wins in both regimes).
    """
    if isinstance(mask, np.ndarray):
        if not mask.any():
            return
        idx = np.broadcast_to(np.asarray(index), mask.shape)[mask]
        vals = np.broadcast_to(np.asarray(value), mask.shape)[mask]
        target[idx] = vals
    elif mask:
        target[index] = value
