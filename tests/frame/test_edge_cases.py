"""Edge-case coverage for the frame substrate beyond the main suites."""

import datetime as dt

import numpy as np
import pytest

from repro.frame import DateIndex, Frame, date_range, shift
from repro.indicators import sma_resume


class TestDateIndexEdges:
    def test_contains_datetime_object(self):
        idx = date_range("2020-01-01", periods=3)
        assert dt.datetime(2020, 1, 2, 15, 30) in idx

    def test_single_day_index(self):
        idx = DateIndex(["2020-02-29"])
        assert idx.is_contiguous
        assert idx.position("2020-02-29") == 0
        assert idx[0] == dt.date(2020, 2, 29)

    def test_empty_index_set_ops(self):
        empty = date_range("2020-01-01", periods=0)
        full = date_range("2020-01-01", periods=3)
        assert full.difference(empty) == full
        assert empty.difference(full) == empty

    def test_getitem_fancy_list(self):
        idx = date_range("2020-01-01", periods=5)
        sub = idx[[0, 2, 4]]
        assert isinstance(sub, DateIndex)
        assert len(sub) == 3

    def test_slice_positions_empty_range(self):
        idx = date_range("2020-01-01", periods=5)
        s = idx.slice_positions("2020-01-04", "2020-01-02")
        assert s.stop <= s.start  # empty slice


class TestFrameEdges:
    def test_empty_frame_summary(self):
        f = Frame.empty(date_range("2020-01-01", periods=0))
        assert f.summary() == {}
        assert f.nan_fraction() == {}

    def test_zero_row_column_ops(self):
        f = Frame(date_range("2020-01-01", periods=0), {"a": []})
        assert f.head()["a"].size == 0
        assert f.to_matrix().shape == (0, 1)
        assert np.isnan(f.summary()["a"]["mean"])

    def test_single_row_frame_rolling(self):
        out = sma_resume(np.array([5.0]), 1)[0]
        assert out.tolist() == [5.0]

    def test_shift_empty(self):
        assert shift(np.array([]), 3).size == 0

    def test_with_column_length_mismatch(self):
        f = Frame(date_range("2020-01-01", periods=2), {"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            f.with_column("b", [1.0])

    def test_select_empty_list(self):
        f = Frame(date_range("2020-01-01", periods=2), {"a": [1.0, 2.0]})
        sub = f.select([])
        assert sub.n_cols == 0
        assert sub.n_rows == 2

    def test_iloc_empty_mask(self):
        f = Frame(date_range("2020-01-01", periods=3), {"a": [1.0, 2, 3]})
        sub = f.iloc(np.zeros(3, dtype=bool))
        assert sub.n_rows == 0

    def test_repr_mentions_shape(self):
        f = Frame(date_range("2020-01-01", periods=3), {"a": [1.0, 2, 3]})
        assert "n_rows=3" in repr(f)
        assert "n_cols=1" in repr(f)
