"""Tests for thread intrinsics (Dim3, proxies, shared memory, ceildiv)."""

import numpy as np
import pytest

from repro.core.dtypes import DType
from repro.core.errors import LaunchError
from repro.core.intrinsics import (
    AddressSpace,
    Dim3,
    ThreadState,
    barrier,
    bind_thread_state,
    block_dim,
    block_idx,
    ceildiv,
    current_thread_state,
    global_idx,
    masked_gather,
    shared_array,
    stack_allocation,
    thread_idx,
)


class TestCeildiv:
    @pytest.mark.parametrize("a,b,expected", [
        (10, 5, 2), (11, 5, 3), (1, 5, 1), (0, 5, 0), (1024, 256, 4),
        (1025, 256, 5),
    ])
    def test_values(self, a, b, expected):
        assert ceildiv(a, b) == expected

    def test_zero_divisor(self):
        with pytest.raises(LaunchError):
            ceildiv(10, 0)


class TestDim3:
    def test_from_int(self):
        assert Dim3.make(7) == Dim3(7, 1, 1)

    def test_from_tuple(self):
        assert Dim3.make((2, 3)) == Dim3(2, 3, 1)
        assert Dim3.make((2, 3, 4)) == Dim3(2, 3, 4)

    def test_from_dim3(self):
        d = Dim3(1, 2, 3)
        assert Dim3.make(d) is d

    def test_total(self):
        assert Dim3(4, 3, 2).total == 24

    def test_iter_and_tuple(self):
        assert tuple(Dim3(1, 2, 3)) == (1, 2, 3)
        assert Dim3(1, 2, 3).as_tuple() == (1, 2, 3)

    def test_invalid(self):
        with pytest.raises(LaunchError):
            Dim3.make((1, 2, 3, 4))
        with pytest.raises(LaunchError):
            Dim3.make("bad")


def _state(tid=(0, 0, 0), bid=(0, 0, 0), bdim=(4, 1, 1), gdim=(2, 1, 1), **kw):
    return ThreadState(Dim3(*tid), Dim3(*bid), Dim3(*bdim), Dim3(*gdim), **kw)


class TestThreadState:
    def test_linear_ids(self):
        s = _state(tid=(1, 1, 0), bdim=(4, 2, 1), bid=(1, 0, 0), gdim=(3, 1, 1))
        assert s.linear_thread_id == 1 + 1 * 4
        assert s.linear_block_id == 1
        assert s.global_linear_id == 1 * 8 + 5

    def test_shared_alloc_same_key_same_array(self):
        shared = {}
        s1 = _state(tid=(0, 0, 0), block_shared=shared)
        s2 = _state(tid=(1, 0, 0), block_shared=shared)
        a1 = s1.shared_alloc("buf", 8, DType.float64)
        a2 = s2.shared_alloc("buf", 8, DType.float64)
        assert a1 is a2

    def test_shared_alloc_dtype_and_size(self):
        s = _state()
        arr = s.shared_alloc("x", 16, "float32")
        assert arr.dtype == np.float32 and arr.size == 16


class TestProxies:
    def test_outside_kernel_raises(self):
        with pytest.raises(LaunchError):
            _ = thread_idx.x

    def test_inside_binding(self):
        with bind_thread_state(_state(tid=(2, 0, 0), bid=(1, 0, 0))):
            assert thread_idx.x == 2
            assert block_idx.x == 1
            assert block_dim.x == 4
            assert current_thread_state().thread_idx.x == 2

    def test_global_idx(self):
        with bind_thread_state(_state(tid=(3, 0, 0), bid=(1, 0, 0), bdim=(4, 1, 1))):
            assert global_idx().x == 7

    def test_binding_restores_previous(self):
        outer = _state(tid=(1, 0, 0))
        inner = _state(tid=(2, 0, 0))
        with bind_thread_state(outer):
            with bind_thread_state(inner):
                assert thread_idx.x == 2
            assert thread_idx.x == 1

    def test_barrier_noop_without_barrier_object(self):
        with bind_thread_state(_state()):
            barrier()  # must not raise

    def test_repr_unbound(self):
        assert "unbound" in repr(thread_idx) or "thread_idx" in repr(thread_idx)


class TestStackAllocation:
    def test_shared_allocation_is_block_wide(self):
        shared = {}
        with bind_thread_state(_state(tid=(0, 0, 0), block_shared=shared)):
            a = stack_allocation(8, DType.float64, key="tile")
        with bind_thread_state(_state(tid=(1, 0, 0), block_shared=shared)):
            b = stack_allocation(8, DType.float64, key="tile")
        assert a is b

    def test_local_allocation_is_private(self):
        shared = {}
        with bind_thread_state(_state(block_shared=shared)):
            a = stack_allocation(8, DType.float64, address_space=AddressSpace.LOCAL)
            b = stack_allocation(8, DType.float64, address_space=AddressSpace.LOCAL)
        assert a is not b
        assert shared == {}

    def test_shared_array_wrapper(self):
        shared = {}
        with bind_thread_state(_state(block_shared=shared)):
            arr = shared_array(4, "float64", key="sums")
        assert arr.size == 4 and "sums" in shared

    def test_outside_kernel_raises(self):
        with pytest.raises(LaunchError):
            stack_allocation(8, DType.float64)


@pytest.mark.parametrize("dtype, other", [
    (DType.float32, 0.1),
    (DType.float32, 0),
    (DType.float64, 0.1),
    (DType.int32, 0),
    (DType.int64, -1),
], ids=["float32-float", "float32-int", "float64-float", "int32-int",
        "int64-int"])
def test_masked_off_scalar_load_is_typed_as_the_lane_path(dtype, other):
    # a masked-off thread on the scalar path gets *other* converted as the
    # lane path's np.where converts it, so both paths accumulate alike
    data = np.arange(4).astype(dtype.to_numpy())
    lanes = masked_gather(data, np.arange(4), np.zeros(4, dtype=bool), other)
    scalar = masked_gather(data, 9, False, other)
    assert type(scalar) is lanes.dtype.type
    assert scalar == lanes[0]
    assert type(masked_gather(data, 2, True, other)) is data.dtype.type
