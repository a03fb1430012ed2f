"""Compile-time layouts and ``LayoutTensor`` views over device buffers.

Mojo's GPU standard library exposes a ``Layout`` describing the logical
shape/strides of an N-D tensor and a ``LayoutTensor`` which binds a layout to
a device buffer.  Kernels in the paper (Listings 2 and 5) index these tensors
with multi-dimensional subscripts (``u[i, j, k]``).  This module provides the
same abstraction for the simulated device: a :class:`Layout` is a pure
shape/stride description, and a :class:`LayoutTensor` is a zero-copy view over
a NumPy array or :class:`~repro.core.device.DeviceBuffer`.

Every access is bounds-checked unless the access-region analysis
(:func:`repro.analysis.regions.concretize_launch`) proves, for one concrete
launch, that each access to the tensor stays inside its extent: the
executor then runs the kernel on a private unchecked view
(:meth:`LayoutTensor._unchecked`).  There is no user-facing switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .dtypes import DType, dtype_from_any
from .errors import LayoutError

__all__ = ["Layout", "LayoutTensor", "check_index", "index_error"]


def _as_shape(dims: Sequence[int]) -> Tuple[int, ...]:
    shape = tuple(int(d) for d in dims)
    if len(shape) == 0:
        raise LayoutError("a layout needs at least one dimension")
    if any(d <= 0 for d in shape):
        raise LayoutError(f"layout dimensions must be positive, got {shape}")
    return shape


def _row_major_strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return tuple(strides)


def _col_major_strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    strides = [1] * len(shape)
    for i in range(1, len(shape)):
        strides[i] = strides[i - 1] * shape[i - 1]
    return tuple(strides)


@dataclass(frozen=True)
class Layout:
    """An N-dimensional element layout (shape + element strides).

    Strides are expressed in *elements*, not bytes, matching the Mojo API.
    """

    shape: Tuple[int, ...]
    strides: Tuple[int, ...]
    order: str = "row_major"

    # ------------------------------------------------------------------ ctors
    @classmethod
    def row_major(cls, *dims: int) -> "Layout":
        """C-ordered layout: the last dimension is contiguous."""
        shape = _as_shape(_flatten_dims(dims))
        return cls(shape, _row_major_strides(shape), "row_major")

    @classmethod
    def col_major(cls, *dims: int) -> "Layout":
        """Fortran-ordered layout: the first dimension is contiguous."""
        shape = _as_shape(_flatten_dims(dims))
        return cls(shape, _col_major_strides(shape), "col_major")

    # -------------------------------------------------------------- properties
    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total number of elements."""
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def is_contiguous(self) -> bool:
        """True when the layout covers its elements without gaps."""
        expected = (
            _row_major_strides(self.shape)
            if self.order == "row_major"
            else _col_major_strides(self.shape)
        )
        return self.strides == expected

    # ------------------------------------------------------------------ logic
    def offset(self, *index: int) -> int:
        """Flat element offset of a multi-dimensional index.

        Raises :class:`LayoutError` when the index rank does not match or the
        index is out of bounds.
        """
        idx = _flatten_dims(index)
        if len(idx) != self.rank:
            raise LayoutError(
                f"index rank {len(idx)} does not match layout rank {self.rank}"
            )
        off = 0
        for i, (x, d, s) in enumerate(zip(idx, self.shape, self.strides)):
            x = int(x)
            if x < 0 or x >= d:
                raise index_error(x, i, d, lanes=False)
            off += x * s
        return off

    def offset_array(self, *index) -> np.ndarray:
        """Vectorised :meth:`offset`: per-lane flat offsets for index arrays.

        Each component may be an integer array (one entry per lane) or a
        plain int broadcast across lanes; bounds are validated per lane.
        Used by the vectorized executor's gather/scatter tensor accesses.
        """
        idx = _flatten_dims(index)
        if len(idx) != self.rank:
            raise LayoutError(
                f"index rank {len(idx)} does not match layout rank {self.rank}"
            )
        off = 0
        for i, (x, d, s) in enumerate(zip(idx, self.shape, self.strides)):
            x = np.asarray(x)
            check_index(x, i, d)
            off = off + x * s
        return off

    def nbytes(self, dtype) -> int:
        """Total size in bytes for elements of *dtype*."""
        return self.size * dtype_from_any(dtype).sizeof

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(d) for d in self.shape)
        return f"Layout.{self.order}({dims})"


def index_error(x, dim: int, extent: int, lanes: bool) -> LayoutError:
    """The error of an index component *x* outside ``[0, extent)``.

    The lane form (*lanes* true: *x* holds one index per lane) names no
    value; the scalar form names the index, and for an array of scalar
    indices (one per loop iteration, in iteration order) the first bad one.
    """
    if lanes:
        return LayoutError(f"lane index out of bounds for dimension {dim} "
                           f"of extent {extent}")
    if isinstance(x, np.ndarray):
        flat = x.reshape(-1)
        x = flat[np.flatnonzero((flat < 0) | (flat >= extent))[0]]
    return LayoutError(f"index {int(x)} out of bounds for dimension {dim} "
                       f"of extent {extent}")


def check_index(x: np.ndarray, dim: int, extent: int,
                lanes: bool = True) -> None:
    """Raise :func:`index_error` unless every entry of *x* is in
    ``[0, extent)``: the check of :meth:`Layout.offset_array` and of the
    lowering tier's generated code."""
    if x.size and (x.min() < 0 or x.max() >= extent):
        raise index_error(x, dim, extent, lanes)


def _flatten_dims(dims) -> Tuple[int, ...]:
    """Allow ``row_major(2, 3)`` and ``row_major((2, 3))`` interchangeably."""
    if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
        return tuple(dims[0])
    return tuple(dims)


class LayoutTensor:
    """A typed, layout-aware view over device (or host) memory.

    Parameters
    ----------
    dtype:
        Element type (anything accepted by :func:`dtype_from_any`).
    layout:
        The :class:`Layout` describing shape and strides.
    storage:
        A NumPy array or a :class:`repro.core.device.DeviceBuffer`; must hold
        at least ``layout.size`` elements.  The tensor never copies.
    mut:
        Whether writes are allowed; mirrors Mojo's ``mut`` parameter.

    Every access is checked against the layout.  A launch whose accesses
    to the tensor the region analysis proves in bounds runs on an
    unchecked view instead (:meth:`_unchecked`, made by the executor).
    """

    __slots__ = ("dtype", "layout", "_data", "mut", "_checked", "name",
                 "_strides", "_f64", "device_buffer")

    def __init__(self, dtype, layout: Layout, storage, *, mut: bool = True,
                 name: str = ""):
        self.dtype: DType = dtype_from_any(dtype)
        self.layout = layout
        self.mut = bool(mut)
        self._checked = True
        self.name = name
        # Cached for the unchecked fast path; per-element indexing inside
        # simulated kernels is the executor's hottest operation.  float64
        # reads return a Python float (identical IEEE-754 double semantics,
        # much cheaper downstream arithmetic); narrower dtypes keep their
        # NumPy scalar so per-operation rounding is preserved.
        self._strides = layout.strides
        self._f64 = self.dtype.name == "float64"
        # Back-reference to the owning DeviceBuffer (duck-typed: device.py
        # imports this module, not the other way round) so enqueued kernels
        # can detect use-after-free of a pending launch at execution time.
        self.device_buffer = (storage if hasattr(storage, "freed")
                              and hasattr(storage, "array") else None)
        data = _storage_array(storage)
        if data.size < layout.size:
            raise LayoutError(
                f"storage holds {data.size} elements but layout requires "
                f"{layout.size}"
            )
        if DType.from_numpy(data.dtype) != self.dtype:
            raise LayoutError(
                f"storage dtype {data.dtype} does not match tensor dtype "
                f"{self.dtype.name}"
            )
        self._data = data

    # ------------------------------------------------------------- properties
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.layout.shape

    @property
    def rank(self) -> int:
        return self.layout.rank

    @property
    def size(self) -> int:
        return self.layout.size

    @property
    def nbytes(self) -> int:
        return self.layout.nbytes(self.dtype)

    @property
    def ptr(self) -> np.ndarray:
        """The flat backing array (the 'device pointer')."""
        return self._data

    # ------------------------------------------------------------------ access
    # __getitem__/__setitem__ each carry a full copy of the index-resolution
    # logic (bounds-checked via Layout.offset, otherwise rank-specialised
    # stride arithmetic): an element access runs once per simulated GPU
    # thread, so the call frame a shared resolver helper would cost is
    # measurable in the functional-executor benchmarks.  Keep both copies in
    # sync when changing indexing semantics.
    #
    # Index components may also be NumPy integer arrays (one entry per lane
    # of the vectorized executor), in which case the access is a gather /
    # scatter over the flat storage.  The scalar hot path stays free of
    # per-access isinstance checks: array indices surface as a TypeError from
    # the scalar resolution (``int()`` / ``ndarray.item``) and are re-resolved
    # through :meth:`Layout.offset_array` / fancy indexing.
    def __getitem__(self, index):
        if self._checked:
            try:
                off = (self.layout.offset(*index) if type(index) is tuple
                       else self.layout.offset(index))
            except TypeError:
                off = (self.layout.offset_array(*index) if type(index) is tuple
                       else self.layout.offset_array(index))
        elif type(index) is tuple:
            s = self._strides
            if len(index) == 3:
                off = index[0] * s[0] + index[1] * s[1] + index[2] * s[2]
            elif len(index) == 2:
                off = index[0] * s[0] + index[1] * s[1]
            else:
                off = 0
                for x, st in zip(index, s):
                    off += x * st
        else:
            off = index * self._strides[0]
        if self._f64:
            try:
                return self._data.item(off)
            except TypeError:          # per-lane index array: gather
                return self._data[off]
        return self._data[off]

    def __setitem__(self, index, value):
        if not self.mut:
            raise LayoutError(f"tensor {self.name or '<anonymous>'} is immutable")
        if self._checked:
            try:
                off = (self.layout.offset(*index) if type(index) is tuple
                       else self.layout.offset(index))
            except TypeError:
                off = (self.layout.offset_array(*index) if type(index) is tuple
                       else self.layout.offset_array(index))
        elif type(index) is tuple:
            s = self._strides
            if len(index) == 3:
                off = index[0] * s[0] + index[1] * s[1] + index[2] * s[2]
            elif len(index) == 2:
                off = index[0] * s[0] + index[1] * s[1]
            else:
                off = 0
                for x, st in zip(index, s):
                    off += x * st
        else:
            off = index * self._strides[0]
        self._data[off] = value

    def _unchecked(self) -> "LayoutTensor":
        """A view of the same storage whose accesses skip the bounds check.

        Only for a launch the region analysis proves in bounds for this
        tensor (:class:`repro.analysis.regions.ArgRegion`'s ``in_bounds``).
        """
        view = object.__new__(LayoutTensor)
        for slot in LayoutTensor.__slots__:
            setattr(view, slot, getattr(self, slot))
        view._checked = False
        return view

    def load(self, *index):
        """Element load, explicit-call form of ``__getitem__``."""
        return self[index]

    def store(self, value, *index) -> None:
        """Element store, explicit-call form of ``__setitem__``."""
        self[tuple(index)] = value

    # -------------------------------------------------------------- conversion
    def to_numpy(self) -> np.ndarray:
        """Return a *copy* of the tensor contents shaped per the layout."""
        if self.layout.order == "row_major" and self.layout.is_contiguous:
            return self._data[: self.size].reshape(self.shape).copy()
        out = np.empty(self.shape, dtype=self.dtype.to_numpy())
        it = np.ndindex(*self.shape)
        for idx in it:
            out[idx] = self._data[self.layout.offset(*idx)]
        return out

    def view(self) -> np.ndarray:
        """Zero-copy reshaped view (contiguous row-major layouts only)."""
        if not (self.layout.order == "row_major" and self.layout.is_contiguous):
            raise LayoutError("view() requires a contiguous row-major layout")
        return self._data[: self.size].reshape(self.shape)

    def fill(self, value) -> "LayoutTensor":
        """Fill every element with *value* (requires mutability)."""
        if not self.mut:
            raise LayoutError("cannot fill an immutable tensor")
        self._data[: self.size] = value
        return self

    def copy_from(self, array: Iterable) -> "LayoutTensor":
        """Copy host data into the tensor (shape must match)."""
        arr = np.asarray(array, dtype=self.dtype.to_numpy())
        if arr.size != self.size:
            raise LayoutError(
                f"source has {arr.size} elements, tensor expects {self.size}"
            )
        if not self.mut:
            raise LayoutError("cannot copy into an immutable tensor")
        self.view()[...] = arr.reshape(self.shape)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mut = "mut" if self.mut else "immut"
        return (f"LayoutTensor<{self.dtype.name}, {self.layout}, {mut}"
                f"{', ' + self.name if self.name else ''}>")


def _storage_array(storage) -> np.ndarray:
    """Extract the flat NumPy array backing *storage*."""
    # DeviceBuffer exposes .array; avoid importing device.py (circular import).
    arr = getattr(storage, "array", storage)
    arr = np.asarray(arr)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr
