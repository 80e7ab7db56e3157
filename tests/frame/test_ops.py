"""Unit tests for repro.frame.ops."""

import numpy as np
import pytest

from repro.frame import (
    Frame,
    concat_columns,
    date_range,
    inner_join,
    log_returns,
    outer_join,
    pct_change,
    rolling_apply,
    rolling_max,
    rolling_mean,
    rolling_min,
    rolling_std,
    rolling_sum,
    shift,
)

NAN = np.nan


@pytest.fixture
def f1():
    return Frame(date_range("2017-01-01", periods=4), {"a": [1.0, 2, 3, 4]})


@pytest.fixture
def f2():
    return Frame(date_range("2017-01-03", periods=4), {"b": [10.0, 20, 30, 40]})


class TestJoins:
    def test_outer_join_union_index(self, f1, f2):
        j = outer_join(f1, f2)
        assert j.n_rows == 6
        assert j.columns == ["a", "b"]
        assert np.isnan(j["b"][0])
        assert np.isnan(j["a"][-1])
        assert j["a"][2] == 3.0 and j["b"][2] == 10.0

    def test_inner_join_intersection(self, f1, f2):
        j = inner_join(f1, f2)
        assert j.n_rows == 2
        assert j["a"].tolist() == [3.0, 4.0]
        assert j["b"].tolist() == [10.0, 20.0]

    def test_join_duplicate_column_rejected(self, f1):
        dup = Frame(date_range("2017-01-01", periods=4), {"a": np.zeros(4)})
        with pytest.raises(ValueError):
            outer_join(f1, dup)

    def test_join_single_frame_identity(self, f1):
        assert outer_join(f1) == f1
        assert inner_join(f1) == f1

    def test_join_no_frames(self):
        with pytest.raises(ValueError):
            outer_join()
        with pytest.raises(ValueError):
            inner_join()

    def test_concat_columns(self, f1):
        other = Frame(f1.index, {"c": np.ones(4)})
        j = concat_columns(f1, other)
        assert j.columns == ["a", "c"]

    def test_concat_columns_shares_read_only_columns(self, f1):
        other = Frame.from_matrix(f1.index, np.ones((4, 2)), ["c", "d"])
        j = concat_columns(f1, other)
        for source in (f1, other):
            for name in source.columns:
                assert np.shares_memory(j[name], source[name])
                assert not j[name].flags.writeable
        assert j == Frame(f1.index, {**f1.to_dict(), **other.to_dict()})

    def test_concat_columns_duplicate_rejected(self, f1):
        with pytest.raises(ValueError, match="duplicate"):
            concat_columns(f1, Frame(f1.index, {"a": np.zeros(4)}))

    def test_concat_columns_index_mismatch(self, f1, f2):
        with pytest.raises(ValueError):
            concat_columns(f1, f2)

    def test_inner_join_disjoint_empty(self, f1):
        far = Frame(date_range("2020-01-01", periods=2), {"z": [1.0, 2.0]})
        assert inner_join(f1, far).n_rows == 0

    def test_outer_join_three_frames(self, f1, f2):
        f3 = Frame(date_range("2017-01-05", periods=1), {"c": [7.0]})
        j = outer_join(f1, f2, f3)
        assert j.columns == ["a", "b", "c"]
        assert j.n_rows == 6


class TestShift:
    def test_positive_shift(self):
        out = shift(np.array([1.0, 2, 3]), 1)
        assert np.isnan(out[0])
        assert out[1:].tolist() == [1.0, 2.0]

    def test_negative_shift(self):
        out = shift(np.array([1.0, 2, 3]), -1)
        assert out[:2].tolist() == [2.0, 3.0]
        assert np.isnan(out[-1])

    def test_zero_shift_copies(self):
        src = np.array([1.0, 2.0])
        out = shift(src, 0)
        assert out.tolist() == src.tolist()
        out[0] = 9
        assert src[0] == 1.0

    def test_oversized_shift_all_nan(self):
        assert np.isnan(shift(np.array([1.0, 2.0]), 5)).all()
        assert np.isnan(shift(np.array([1.0, 2.0]), -5)).all()


class TestReturns:
    def test_pct_change(self):
        out = pct_change(np.array([100.0, 110.0, 99.0]))
        assert np.isnan(out[0])
        assert out[1] == pytest.approx(0.10)
        assert out[2] == pytest.approx(-0.10)

    def test_pct_change_periods(self):
        out = pct_change(np.array([100.0, 0.0, 150.0]), periods=2)
        assert out[2] == pytest.approx(0.5)

    def test_pct_change_zero_base_nan(self):
        out = pct_change(np.array([0.0, 5.0]))
        assert np.isnan(out[1])

    def test_log_returns(self):
        prices = np.array([100.0, 100.0 * np.e])
        out = log_returns(prices)
        assert out[1] == pytest.approx(1.0)

    def test_log_returns_nonpositive_nan(self):
        out = log_returns(np.array([100.0, -5.0, 100.0]))
        assert np.isnan(out[1]) and np.isnan(out[2])


class TestRolling:
    def test_rolling_mean_basic(self):
        out = rolling_mean(np.array([1.0, 2, 3, 4]), 2)
        assert np.isnan(out[0])
        assert out[1:].tolist() == [1.5, 2.5, 3.5]

    def test_rolling_window_one_identity(self):
        src = np.array([3.0, 1.0, 4.0])
        assert rolling_mean(src, 1).tolist() == src.tolist()

    def test_rolling_sum(self):
        out = rolling_sum(np.array([1.0, 1, 1, 1]), 3)
        assert out[2] == 3.0 and out[3] == 3.0

    def test_rolling_min_max(self):
        src = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert rolling_min(src, 3)[2] == 1.0
        assert rolling_max(src, 3)[4] == 5.0

    def test_rolling_std(self):
        out = rolling_std(np.array([1.0, 1.0, 1.0]), 2)
        assert out[1] == 0.0

    def test_rolling_nan_propagates(self):
        out = rolling_mean(np.array([1.0, NAN, 3.0, 4.0]), 2)
        assert np.isnan(out[1]) and np.isnan(out[2])
        assert out[3] == 3.5

    def test_window_longer_than_series(self):
        assert np.isnan(rolling_mean(np.array([1.0, 2.0]), 5)).all()

    def test_bad_window(self):
        with pytest.raises(ValueError):
            rolling_apply(np.array([1.0]), 0, np.mean)

    def test_rolling_apply_custom(self):
        out = rolling_apply(np.array([1.0, 2, 3]), 2, np.median)
        assert out[2] == 2.5


class TestRollingClosedForms:
    """The cumsum closed forms must match rolling_apply exactly enough.

    rolling_apply is the behavioural reference: identical NaN masks
    always, and numerically indistinguishable values (the indicator
    regression suite pins bit-level behaviour downstream).
    """

    @staticmethod
    def _cases():
        rng = np.random.default_rng(2)
        plain = rng.normal(size=300)
        with_nans = plain.copy()
        with_nans[rng.integers(0, 300, 30)] = np.nan
        offset = rng.normal(size=300) + 1e9
        return {"plain": plain, "with_nans": with_nans,
                "large_offset": offset}

    @pytest.mark.parametrize("window", [2, 5, 30])
    def test_mean_matches_reference(self, window):
        for values in self._cases().values():
            ref = rolling_apply(values, window, np.mean)
            fast = rolling_mean(values, window)
            assert np.array_equal(np.isnan(ref), np.isnan(fast))
            np.testing.assert_allclose(fast, ref, rtol=1e-9, equal_nan=True)

    @pytest.mark.parametrize("window", [2, 5, 30])
    def test_sum_matches_reference(self, window):
        for values in self._cases().values():
            ref = rolling_apply(values, window, np.sum)
            fast = rolling_sum(values, window)
            assert np.array_equal(np.isnan(ref), np.isnan(fast))
            np.testing.assert_allclose(fast, ref, rtol=1e-9, equal_nan=True)

    @pytest.mark.parametrize("window", [2, 5, 30])
    def test_std_matches_reference(self, window):
        for values in self._cases().values():
            ref = rolling_apply(values, window, np.std)
            fast = rolling_std(values, window)
            assert np.array_equal(np.isnan(ref), np.isnan(fast))
            np.testing.assert_allclose(
                fast, ref, rtol=1e-7, atol=1e-12, equal_nan=True)

    def test_exact_small_pins(self):
        np.testing.assert_array_equal(
            rolling_mean(np.array([1.0, 2, 3, 4]), 2),
            np.array([NAN, 1.5, 2.5, 3.5]))
        np.testing.assert_array_equal(
            rolling_sum(np.array([1.0, 2, 3, 4]), 3),
            np.array([NAN, NAN, 6.0, 9.0]))

    def test_constant_series_std_is_exactly_zero(self):
        out = rolling_std(np.full(50, 7.25), 10)
        assert (out[9:] == 0.0).all()

    def test_window_one_is_exact_identity(self):
        values = np.random.default_rng(3).normal(size=40) * 1e17
        for func in (rolling_mean, rolling_sum):
            assert np.array_equal(func(values, 1), values)
        assert (rolling_std(values, 1)[~np.isnan(values)] == 0.0).all()

    def test_inf_inputs_fall_back_to_reference(self):
        values = np.array([1.0, np.inf, 3.0, 4.0, 5.0])
        with np.errstate(invalid="ignore"):
            for fast, reducer in ((rolling_mean, np.mean),
                                  (rolling_sum, np.sum),
                                  (rolling_std, np.std)):
                np.testing.assert_array_equal(
                    fast(values, 2), rolling_apply(values, 2, reducer))

    def test_short_input_all_nan(self):
        assert np.isnan(rolling_mean(np.array([1.0, 2.0]), 5)).all()
