"""Unit tests for repro.frame.index."""

import datetime as dt

import numpy as np
import pytest

from repro.frame import DateIndex, as_ordinal, date_range


class TestAsOrdinal:
    def test_iso_string(self):
        assert as_ordinal("2017-01-01") == dt.date(2017, 1, 1).toordinal()

    def test_date_object(self):
        d = dt.date(2019, 6, 30)
        assert as_ordinal(d) == d.toordinal()

    def test_datetime_object(self):
        d = dt.datetime(2019, 6, 30, 14, 30)
        assert as_ordinal(d) == dt.date(2019, 6, 30).toordinal()

    def test_int_passthrough(self):
        assert as_ordinal(736330) == 736330

    def test_numpy_int(self):
        assert as_ordinal(np.int64(10)) == 10

    def test_bad_type(self):
        with pytest.raises(TypeError):
            as_ordinal(3.14)

    def test_bad_string(self):
        with pytest.raises(ValueError):
            as_ordinal("not-a-date")


class TestDateRange:
    def test_periods(self):
        idx = date_range("2017-01-01", periods=3)
        assert idx.isoformat() == ["2017-01-01", "2017-01-02", "2017-01-03"]

    def test_end_inclusive(self):
        idx = date_range("2017-01-01", end="2017-01-03")
        assert len(idx) == 3
        assert idx[-1] == dt.date(2017, 1, 3)

    def test_single_day(self):
        idx = date_range("2020-02-29", end="2020-02-29")
        assert len(idx) == 1

    def test_zero_periods(self):
        assert len(date_range("2017-01-01", periods=0)) == 0

    def test_both_args_error(self):
        with pytest.raises(ValueError):
            date_range("2017-01-01", end="2017-01-05", periods=5)

    def test_neither_arg_error(self):
        with pytest.raises(ValueError):
            date_range("2017-01-01")

    def test_end_before_start_error(self):
        with pytest.raises(ValueError):
            date_range("2017-01-05", end="2017-01-01")

    def test_spans_leap_day(self):
        idx = date_range("2020-02-28", end="2020-03-01")
        assert idx.isoformat() == [
            "2020-02-28", "2020-02-29", "2020-03-01"
        ]


class TestDateIndex:
    def test_from_strings(self):
        idx = DateIndex(["2017-01-01", "2017-01-05"])
        assert len(idx) == 2
        assert not idx.is_contiguous

    def test_contiguity(self):
        assert date_range("2017-01-01", periods=10).is_contiguous

    def test_must_be_increasing(self):
        with pytest.raises(ValueError):
            DateIndex(["2017-01-02", "2017-01-01"])

    def test_no_duplicates(self):
        with pytest.raises(ValueError):
            DateIndex(["2017-01-01", "2017-01-01"])

    def test_contains(self):
        idx = date_range("2017-01-01", periods=5)
        assert "2017-01-03" in idx
        assert "2017-02-01" not in idx
        assert "garbage" not in idx

    def test_position(self):
        idx = date_range("2017-01-01", periods=5)
        assert idx.position("2017-01-01") == 0
        assert idx.position("2017-01-05") == 4

    def test_position_missing_raises(self):
        idx = date_range("2017-01-01", periods=5)
        with pytest.raises(KeyError):
            idx.position("2018-01-01")

    def test_getitem_int(self):
        idx = date_range("2017-01-01", periods=5)
        assert idx[2] == dt.date(2017, 1, 3)
        assert idx[-1] == dt.date(2017, 1, 5)

    def test_getitem_slice(self):
        idx = date_range("2017-01-01", periods=5)
        sub = idx[1:3]
        assert isinstance(sub, DateIndex)
        assert sub.isoformat() == ["2017-01-02", "2017-01-03"]

    def test_equality(self):
        a = date_range("2017-01-01", periods=5)
        b = date_range("2017-01-01", periods=5)
        c = date_range("2017-01-02", periods=5)
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_iteration_yields_dates(self):
        idx = date_range("2017-01-01", periods=3)
        days = list(idx)
        assert all(isinstance(d, dt.date) for d in days)

    def test_immutable_ordinals(self):
        idx = date_range("2017-01-01", periods=3)
        with pytest.raises(ValueError):
            idx.ordinals[0] = 0

    def test_repr(self):
        assert "2017-01-01" in repr(date_range("2017-01-01", periods=3))
        assert repr(date_range("2017-01-01", periods=0)) == "DateIndex([])"


class TestSliceAndAlign:
    def test_slice_positions_full(self):
        idx = date_range("2017-01-01", periods=10)
        assert idx.slice_positions() == slice(0, 10)

    def test_slice_positions_range(self):
        idx = date_range("2017-01-01", periods=10)
        s = idx.slice_positions("2017-01-03", "2017-01-05")
        assert s == slice(2, 5)

    def test_slice_positions_outside(self):
        idx = date_range("2017-01-05", periods=3)
        s = idx.slice_positions("2016-01-01", "2018-01-01")
        assert s == slice(0, 3)

    def test_indexer_matches(self):
        a = date_range("2017-01-01", periods=5)
        b = DateIndex(["2017-01-02", "2017-01-04", "2018-01-01"])
        pos = a.indexer(b)
        assert pos.tolist() == [1, 3, -1]

    def test_indexer_empty_self(self):
        a = date_range("2017-01-01", periods=0)
        b = date_range("2017-01-01", periods=3)
        assert a.indexer(b).tolist() == [-1, -1, -1]


class TestSetOps:
    def test_shift(self):
        idx = date_range("2017-01-01", periods=3)
        shifted = idx.shift(7)
        assert shifted[0] == dt.date(2017, 1, 8)
        assert len(shifted) == 3

    def test_from_ordinals_roundtrip(self):
        idx = date_range("2017-01-01", periods=4)
        again = DateIndex.from_ordinals(idx.ordinals.tolist())
        assert again == idx

    def test_from_ordinals_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DateIndex.from_ordinals([5, 4, 3])
