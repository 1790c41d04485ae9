"""Tests for matrix storage and region views."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime import Matrix, MatrixView


class TestMatrix:
    def test_zeros(self):
        m = Matrix.zeros((3, 4))
        assert m.shape == (3, 4)
        assert m.ndim == 2
        assert np.all(m.data == 0)

    def test_from_array_shares_buffer(self):
        arr = np.arange(6, dtype=np.float64)
        m = Matrix.from_array(arr)
        m.data[0] = 42
        assert arr[0] == 42

    def test_scalar(self):
        m = Matrix.scalar(7.0)
        assert m.ndim == 0
        assert m.whole().value == 7.0

    def test_whole_covers_all(self):
        m = Matrix.zeros((2, 5))
        assert m.whole().shape == (2, 5)


class TestCellAccess:
    def test_read_write(self):
        m = Matrix.zeros((4,))
        view = m.whole()
        view.cell(2).set(9.0)
        assert view.cell(2).value == 9.0
        assert m.data[2] == 9.0

    def test_cell_is_view_not_copy(self):
        m = Matrix.zeros((3, 3))
        c = m.cell(1, 2)
        m.data[1, 2] = 5.0
        assert c.value == 5.0

    def test_getset_item(self):
        m = Matrix.zeros((3, 3))
        view = m.whole()
        view[1, 1] = 3.0
        assert view[1, 1] == 3.0
        one_d = Matrix.zeros((5,)).whole()
        one_d[4] = 2.0
        assert one_d[4] == 2.0

    def test_out_of_bounds(self):
        view = Matrix.zeros((3,)).whole()
        with pytest.raises(IndexError):
            view.cell(3)

    def test_wrong_arity(self):
        view = Matrix.zeros((3, 3)).whole()
        with pytest.raises(ValueError):
            view.cell(1)

    def test_value_on_nonscalar_rejected(self):
        view = Matrix.zeros((3,)).whole()
        with pytest.raises(ValueError):
            _ = view.value


class TestRegion:
    def test_region_shape(self):
        view = Matrix.zeros((8, 8)).whole()
        sub = view.region(0, 0, 4, 8)
        assert sub.shape == (4, 8)

    def test_region_relative_coordinates(self):
        m = Matrix.zeros((8,))
        sub = m.region(3, 8)
        sub.cell(0).set(1.0)
        assert m.data[3] == 1.0

    def test_nested_regions_compose(self):
        m = Matrix.zeros((10,))
        inner = m.region(2, 9).region(1, 5)
        inner.cell(0).set(7.0)
        assert m.data[3] == 7.0

    def test_region_out_of_bounds(self):
        view = Matrix.zeros((4, 4)).whole()
        with pytest.raises(IndexError):
            view.region(0, 0, 5, 4)

    def test_region_wrong_arity(self):
        view = Matrix.zeros((4, 4)).whole()
        with pytest.raises(ValueError):
            view.region(0, 4)

    def test_empty_region(self):
        view = Matrix.zeros((4,)).whole()
        assert view.region(2, 2).size == 0


class TestRowColumn:
    def test_row_slices_across_x(self):
        m = Matrix.zeros((3, 2))
        m.data[:, 1] = [10, 11, 12]
        row = m.row(1)
        assert row.shape == (3,)
        assert row.to_numpy().tolist() == [10, 11, 12]

    def test_column_slices_across_y(self):
        m = Matrix.zeros((3, 2))
        m.data[2, :] = [20, 21]
        col = m.column(2)
        assert col.to_numpy().tolist() == [20, 21]

    def test_row_writes_through(self):
        m = Matrix.zeros((3, 2))
        m.row(0).assign([1, 2, 3])
        assert m.data[:, 0].tolist() == [1, 2, 3]

    def test_row_of_region_is_relative(self):
        m = Matrix.zeros((4, 4))
        sub = m.region(1, 1, 4, 4)
        sub.row(0).assign([5, 5, 5])
        assert m.data[1:4, 1].tolist() == [5, 5, 5]

    def test_row_on_1d_rejected(self):
        with pytest.raises(ValueError):
            Matrix.zeros((3,)).whole().row(0)

    def test_slice_axis(self):
        m = Matrix.zeros((2, 3, 4))
        sliced = m.whole().slice_axis(0, 1)
        assert sliced.shape == (3, 4)
        sliced.cell(0, 0).set(6.0)
        assert m.data[1, 0, 0] == 6.0


class TestBulk:
    def test_assign_and_to_numpy(self):
        view = Matrix.zeros((2, 2)).whole()
        view.assign([[1, 2], [3, 4]])
        assert view.to_numpy().tolist() == [[1, 2], [3, 4]]


class TestRegionProperties:
    """Property tests for region slicing: 0-d/1-d edges, degenerate and
    negative regions, and aliasing of overlapping sub-regions."""

    @given(st.integers(1, 10), st.data())
    def test_region_shape_matches_bounds(self, extent, data):
        view = Matrix.zeros((extent, extent)).whole()
        lo_x = data.draw(st.integers(0, extent))
        hi_x = data.draw(st.integers(lo_x, extent))
        lo_y = data.draw(st.integers(0, extent))
        hi_y = data.draw(st.integers(lo_y, extent))
        sub = view.region(lo_x, lo_y, hi_x, hi_y)
        assert sub.shape == (hi_x - lo_x, hi_y - lo_y)
        assert sub.size == (hi_x - lo_x) * (hi_y - lo_y)

    @given(st.integers(1, 10), st.integers(0, 9))
    def test_degenerate_region_is_empty_and_harmless(self, extent, at):
        at = min(at, extent)
        view = Matrix.zeros((extent,)).whole()
        empty = view.region(at, at)
        assert empty.size == 0 and empty.shape == (0,)
        empty.assign(np.zeros(0))  # bulk ops on empty views are no-ops
        assert empty.to_numpy().size == 0
        with pytest.raises(IndexError):
            empty.cell(0)  # no element exists inside a degenerate region

    @given(st.integers(1, 8))
    def test_negative_bounds_rejected(self, extent):
        view = Matrix.zeros((extent,)).whole()
        with pytest.raises(IndexError):
            view.region(-1, extent)
        with pytest.raises(IndexError):
            view.cell(-1)

    @given(st.integers(2, 8), st.data())
    def test_inverted_region_rejected(self, extent, data):
        lo = data.draw(st.integers(1, extent))
        hi = data.draw(st.integers(0, lo - 1))
        view = Matrix.zeros((extent,)).whole()
        with pytest.raises(IndexError):
            view.region(lo, hi)

    @given(st.integers(1, 8), st.data())
    def test_zero_d_cell_roundtrip(self, extent, data):
        index = data.draw(st.integers(0, extent - 1))
        value = data.draw(st.floats(-1e6, 1e6))
        m = Matrix.zeros((extent,))
        cell = m.whole().cell(index)
        assert cell.ndim == 0 and cell.shape == () and cell.size == 1
        cell.set(value)
        assert cell.value == value
        assert m.data[index] == value
        # region() on a 0-d view takes zero bounds and is the identity
        assert cell.region().value == value

    @given(st.integers(2, 10), st.data())
    def test_overlapping_subregions_alias(self, extent, data):
        """Writes through one sub-region are visible through every other
        overlapping sub-region — views share storage, never copy."""
        a_lo = data.draw(st.integers(0, extent - 2))
        a_hi = data.draw(st.integers(a_lo + 2, extent))
        b_lo = data.draw(st.integers(0, extent - 2))
        b_hi = data.draw(st.integers(b_lo + 2, extent))
        m = Matrix.zeros((extent,))
        a, b = m.region(a_lo, a_hi), m.region(b_lo, b_hi)
        overlap_lo, overlap_hi = max(a_lo, b_lo), min(a_hi, b_hi)
        a.assign(np.arange(a_lo, a_hi, dtype=np.float64))
        for k in range(max(0, overlap_hi - overlap_lo)):
            absolute = overlap_lo + k
            assert b[absolute - b_lo] == float(absolute)

    @given(st.integers(2, 8), st.data())
    def test_row_column_alias_matrix_storage(self, extent, data):
        x = data.draw(st.integers(0, extent - 1))
        y = data.draw(st.integers(0, extent - 1))
        m = Matrix.zeros((extent, extent))
        m.row(y).cell(x).set(3.5)
        assert m.column(x)[y] == 3.5
        assert m.data[x, y] == 3.5

    @given(st.integers(1, 10), st.data())
    def test_one_d_full_region_equals_whole(self, extent, data):
        m = Matrix.from_array(
            [data.draw(st.floats(-10, 10)) for _ in range(extent)]
        )
        assert m.region(0, extent).to_numpy().tolist() == m.data.tolist()


@given(
    st.integers(1, 12),
    st.data(),
)
def test_region_composition_matches_numpy(width, data):
    """Nesting regions is equivalent to composed numpy slicing."""
    m = Matrix.from_array(np.arange(width, dtype=np.float64))
    lo1 = data.draw(st.integers(0, width))
    hi1 = data.draw(st.integers(lo1, width))
    sub = m.region(lo1, hi1)
    inner_len = hi1 - lo1
    lo2 = data.draw(st.integers(0, inner_len))
    hi2 = data.draw(st.integers(lo2, inner_len))
    nested = sub.region(lo2, hi2)
    assert nested.to_numpy().tolist() == m.data[lo1 + lo2 : lo1 + hi2].tolist()
