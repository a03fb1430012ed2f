"""Generated grid-stride reductions: every executor mode agrees, and no
read leaves the reported regions.

Hypothesis draws launches of one kernel shape, the grid-stride sum of
``tests/gpu/test_mode_differential.py::ragged_stride_kernel`` with a start
offset: lane ``t`` of block ``b`` starts at ``start + b * spread + 3 * t``
and steps by ``stride`` while any lane of its block is below ``n``, then a
shared-memory tree reduction stores one sum per block.  The draws cover
negative starts, ``n`` below, at and above the extent of ``a``, several
block and grid sizes, and both precisions.  Each launch runs in ``auto``,
``vectorized`` and ``cooperative`` through the sentinel/NaN region check of
``tests/analysis/test_regions_execution.py``: the modes must agree byte for
byte on outputs, counters and shared bytes, or all raise a bounds error
(the lane modes with one message, the per-thread pool with its scalar
form), and a tensor the analysis proves in bounds must not be read past
its extent.

Three shapes are checked statically only, because they never end or read
past ``n``: a zero or negative stride, a body that rebinds ``i`` before its
step, and a guard taken before the loop.  None may leave ``a`` in
``in_bounds``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import concretize_launch
from repro.core.dtypes import DType
from repro.core.errors import LaunchError, LayoutError
from repro.core.intrinsics import (
    any_lane,
    barrier,
    block_dim,
    block_idx,
    masked_gather,
    masked_store,
    shared_array,
    thread_idx,
)
from repro.core.kernel import Kernel, LaunchConfig
from repro.core.layout import Layout, LayoutTensor

_REGIONS = Path(__file__).resolve().parents[1] / "analysis" \
    / "test_regions_execution.py"
_spec = importlib.util.spec_from_file_location("regions_execution", _REGIONS)
regions_execution = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regions_execution)

#: the fixed-seed budget: a tier-1 run stays within a few seconds
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


def _offset_stride_body(a, sums, n, start, spread, stride):
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = start + block_idx.x * spread + tid * 3
    acc = -0.0
    while any_lane(i < n):
        m = i < n
        acc = acc + masked_gather(a, i, m) * 2.0
        i = i + stride
    sh[tid] = acc
    offset = block_dim.x // 2
    while offset > 0:
        barrier()
        m = tid < offset
        masked_store(sh, tid, masked_gather(sh, tid, m)
                     + masked_gather(sh, tid + offset, m), m)
        offset //= 2
    barrier()
    masked_store(sums, block_idx.x, sh[0], tid == 0)


def _rebound_stride_body(a, sums, n, start, spread, stride):
    """``i`` moves before its step: it has no induction variable."""
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = start + block_idx.x * spread + tid * 3
    acc = -0.0
    while any_lane(i < n):
        m = i < n
        i = i + 1
        acc = acc + masked_gather(a, i, m)
        i = i + stride
    sh[tid] = acc
    barrier()
    masked_store(sums, block_idx.x, sh[0], tid == 0)


def _early_mask_body(a, sums, n, start, spread, stride):
    """``m`` bounds ``i`` on entry, not the values the loop steps it to."""
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = start + block_idx.x * spread + tid * 3
    m = i < n
    acc = -0.0
    while any_lane(i < n):
        acc = acc + masked_gather(a, i, m)
        i = i + stride
    sh[tid] = acc
    barrier()
    masked_store(sums, block_idx.x, sh[0], tid == 0)


offset_stride = Kernel(_offset_stride_body, name="offset_stride")
rebound_stride = Kernel(_rebound_stride_body, name="rebound_stride")
early_mask = Kernel(_early_mask_body, name="early_mask")


def _tensor(data, dtype):
    flat = np.asarray(data, dtype=dtype.to_numpy())
    return LayoutTensor(dtype, Layout.row_major(flat.size), flat)


def _args(extent, blocks, n, start, spread, stride, dtype, seed=7):
    rng = np.random.default_rng(seed)
    return (_tensor(rng.normal(size=extent), dtype),
            _tensor(np.zeros(blocks), dtype), n, start, spread, stride)


def _run(mode, args, launch):
    """(outputs, counters, shared bytes) of one checked launch, or the
    bounds error it raised (the cooperative pool wraps it in a
    :class:`LaunchError` naming the block)."""
    checked = regions_execution._Checked(mode)
    try:
        res = checked.launch(offset_stride, args, launch)
    except (LaunchError, LayoutError) as exc:
        cause = exc.__cause__ if isinstance(exc, LaunchError) else exc
        assert isinstance(cause, LayoutError), exc
        return "raised", str(cause)
    return (args[1].ptr.tobytes(), res.counters.as_dict(),
            res.shared_bytes_per_block)


@SETTINGS
@given(extent=st.integers(1, 120),
       n_shift=st.sampled_from([-7, -1, 0, 0, 1, 9]),
       start=st.integers(-6, 30),
       spread=st.integers(0, 40),
       stride=st.integers(1, 48),
       blocks=st.integers(1, 4),
       tb=st.sampled_from([2, 4, 8, 16]),
       dtype=st.sampled_from([DType.float64, DType.float32]))
def test_grid_stride_modes_agree_inside_their_regions(
        extent, n_shift, start, spread, stride, blocks, tb, dtype):
    n = max(extent + n_shift, 0)
    launch = LaunchConfig.make(blocks, tb)
    runs = {mode: _run(mode, _args(extent, blocks, n, start, spread, stride,
                                   dtype), launch)
            for mode in ("auto", "vectorized", "cooperative")}
    assert runs["auto"] == runs["vectorized"]
    if runs["vectorized"][0] == "raised":
        assert runs["cooperative"][0] == "raised"
    else:
        assert runs["cooperative"] == runs["vectorized"]


@SETTINGS
@given(stride=st.integers(-16, 0), start=st.integers(0, 8),
       dtype=st.sampled_from([DType.float64, DType.float32]))
def test_non_positive_stride_leaves_a_checked(stride, start, dtype):
    args = _args(64, 4, 64, start, 8, stride, dtype)
    lr = concretize_launch(offset_stride, args, LaunchConfig.make(4, 8))
    assert 0 not in lr.in_bounds and 1 in lr.in_bounds


@SETTINGS
@given(stride=st.integers(1, 48), start=st.integers(0, 8),
       dtype=st.sampled_from([DType.float64, DType.float32]))
def test_unbounded_loop_shapes_leave_a_checked(stride, start, dtype):
    args = _args(64, 4, 64, start, 8, stride, dtype)
    launch = LaunchConfig.make(4, 8)
    assert 0 in concretize_launch(offset_stride, args, launch).in_bounds
    for kern in (rebound_stride, early_mask):
        assert 0 not in concretize_launch(kern, args, launch).in_bounds
