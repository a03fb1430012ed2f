"""Tests for Layout and LayoutTensor."""

import numpy as np
import pytest

from repro.core.dtypes import DType
from repro.core.errors import LayoutError
from repro.core.layout import Layout, LayoutTensor


class TestLayout:
    def test_row_major_strides(self):
        layout = Layout.row_major(4, 3, 2)
        assert layout.shape == (4, 3, 2)
        assert layout.strides == (6, 2, 1)

    def test_col_major_strides(self):
        layout = Layout.col_major(4, 3, 2)
        assert layout.strides == (1, 4, 12)

    def test_tuple_argument_form(self):
        assert Layout.row_major((8, 8)).shape == (8, 8)

    def test_size(self):
        assert Layout.row_major(5, 6, 7).size == 210

    def test_rank(self):
        assert Layout.row_major(10).rank == 1
        assert Layout.row_major(2, 2, 2, 2).rank == 4

    def test_offset_row_major(self):
        layout = Layout.row_major(4, 5)
        assert layout.offset(0, 0) == 0
        assert layout.offset(1, 0) == 5
        assert layout.offset(2, 3) == 13

    def test_offset_col_major(self):
        layout = Layout.col_major(4, 5)
        assert layout.offset(1, 0) == 1
        assert layout.offset(0, 1) == 4

    def test_offset_out_of_bounds(self):
        layout = Layout.row_major(4, 5)
        with pytest.raises(LayoutError):
            layout.offset(4, 0)
        with pytest.raises(LayoutError):
            layout.offset(0, -1)

    def test_offset_wrong_rank(self):
        with pytest.raises(LayoutError):
            Layout.row_major(4, 5).offset(1)

    def test_zero_dimension_rejected(self):
        with pytest.raises(LayoutError):
            Layout.row_major(0, 5)

    def test_empty_rejected(self):
        with pytest.raises(LayoutError):
            Layout.row_major()

    def test_is_contiguous(self):
        assert Layout.row_major(3, 3).is_contiguous
        assert Layout.col_major(3, 3).is_contiguous

    def test_nbytes(self):
        assert Layout.row_major(10).nbytes("float64") == 80
        assert Layout.row_major(10, 10).nbytes(DType.float32) == 400

    def test_offsets_cover_all_elements_uniquely(self):
        layout = Layout.row_major(3, 4, 5)
        offsets = {layout.offset(i, j, k)
                   for i in range(3) for j in range(4) for k in range(5)}
        assert offsets == set(range(60))


class TestLayoutTensor:
    def _tensor(self, shape=(4, 5), dtype=DType.float64, **kw):
        layout = Layout.row_major(*shape)
        storage = np.zeros(layout.size, dtype=dtype.to_numpy())
        return LayoutTensor(dtype, layout, storage, **kw), storage

    def test_get_set_roundtrip(self):
        t, storage = self._tensor()
        t[2, 3] = 7.5
        assert t[2, 3] == 7.5
        assert storage[2 * 5 + 3] == 7.5

    def test_1d_scalar_index(self):
        layout = Layout.row_major(8)
        storage = np.arange(8, dtype=np.float64)
        t = LayoutTensor(DType.float64, layout, storage)
        assert t[3] == 3.0

    def test_immutable_rejects_writes(self):
        t, _ = self._tensor(mut=False)
        with pytest.raises(LayoutError):
            t[0, 0] = 1.0

    def test_bounds_check(self):
        t, _ = self._tensor()
        with pytest.raises(LayoutError):
            _ = t[4, 0]

    def test_storage_too_small(self):
        layout = Layout.row_major(10)
        with pytest.raises(LayoutError):
            LayoutTensor(DType.float64, layout, np.zeros(5))

    def test_dtype_mismatch(self):
        layout = Layout.row_major(4)
        with pytest.raises(LayoutError):
            LayoutTensor(DType.float64, layout, np.zeros(4, dtype=np.float32))

    def test_to_numpy_shape_and_copy(self):
        t, storage = self._tensor(shape=(2, 3))
        t[1, 2] = 9.0
        arr = t.to_numpy()
        assert arr.shape == (2, 3)
        assert arr[1, 2] == 9.0
        arr[0, 0] = 123.0
        assert t[0, 0] == 0.0  # to_numpy returns a copy

    def test_view_is_shared(self):
        t, storage = self._tensor(shape=(2, 3))
        view = t.view()
        view[1, 1] = 4.0
        assert t[1, 1] == 4.0

    def test_fill(self):
        t, _ = self._tensor(shape=(3, 3))
        t.fill(2.5)
        assert np.all(t.to_numpy() == 2.5)

    def test_copy_from(self):
        t, _ = self._tensor(shape=(2, 2))
        t.copy_from([[1, 2], [3, 4]])
        assert t[1, 0] == 3.0

    def test_copy_from_wrong_size(self):
        t, _ = self._tensor(shape=(2, 2))
        with pytest.raises(LayoutError):
            t.copy_from([1, 2, 3])

    def test_properties(self):
        t, _ = self._tensor(shape=(4, 5))
        assert t.shape == (4, 5)
        assert t.size == 20
        assert t.rank == 2
        assert t.nbytes == 160

    def test_load_store_methods(self):
        t, _ = self._tensor(shape=(3, 3))
        t.store(5.0, 2, 1)
        assert t.load(2, 1) == 5.0
