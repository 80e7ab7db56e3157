"""Unit tests for repro.frame.ops (and the SMA, its running-sum mean)."""

import numpy as np
import pytest

from repro.frame import (
    Frame,
    concat_columns,
    date_range,
    rolling_apply,
    rolling_max,
    rolling_min,
    shift,
)
from repro.frame.ops import rolling_std_resume, window_sums
from repro.indicators import sma_resume

NAN = np.nan


@pytest.fixture
def f1():
    return Frame(date_range("2017-01-01", periods=4), {"a": [1.0, 2, 3, 4]})


class TestJoins:
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

    def test_concat_columns_index_mismatch(self, f1):
        later = Frame(date_range("2017-01-03", periods=4),
                      {"b": [10.0, 20, 30, 40]})
        with pytest.raises(ValueError):
            concat_columns(f1, later)



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



def _sums(values, window):
    """Trailing-window sums, NaN where a window is short or holds a NaN."""
    (totals, bad), _ = window_sums(values, window)
    totals[bad] = np.nan
    return totals


class TestRolling:
    def test_rolling_mean_basic(self):
        out = sma_resume(np.array([1.0, 2, 3, 4]), 2)[0]
        assert np.isnan(out[0])
        assert out[1:].tolist() == [1.5, 2.5, 3.5]

    def test_rolling_window_one_identity(self):
        src = np.array([3.0, 1.0, 4.0])
        assert sma_resume(src, 1)[0].tolist() == src.tolist()

    def test_rolling_sum(self):
        (totals, bad), _ = window_sums(np.array([1.0, 1, 1, 1]), 3)
        assert totals[2] == 3.0 and totals[3] == 3.0
        assert bad.tolist() == [True, True, False, False]

    def test_rolling_min_max(self):
        src = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert rolling_min(src, 3)[2] == 1.0
        assert rolling_max(src, 3)[4] == 5.0

    def test_rolling_std(self):
        out = rolling_std_resume(np.array([1.0, 1.0, 1.0]), 2)[0]
        assert out[1] == 0.0

    def test_rolling_nan_propagates(self):
        out = sma_resume(np.array([1.0, NAN, 3.0, 4.0]), 2)[0]
        assert np.isnan(out[1]) and np.isnan(out[2])
        assert out[3] == 3.5

    def test_window_longer_than_series(self):
        assert np.isnan(sma_resume(np.array([1.0, 2.0]), 5)[0]).all()

    def test_bad_window(self):
        with pytest.raises(ValueError):
            rolling_apply(np.array([1.0]), 0, np.mean)

    def test_rolling_apply_custom(self):
        out = rolling_apply(np.array([1.0, 2, 3]), 2, np.median)
        assert out[2] == 2.5


class TestRollingClosedForms:
    """The running-sum closed forms must match rolling_apply exactly
    enough.

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
            fast = sma_resume(values, window)[0]
            assert np.array_equal(np.isnan(ref), np.isnan(fast))
            np.testing.assert_allclose(fast, ref, rtol=1e-9, equal_nan=True)

    @pytest.mark.parametrize("window", [2, 5, 30])
    def test_sum_matches_reference(self, window):
        for values in self._cases().values():
            ref = rolling_apply(values, window, np.sum)
            fast = _sums(values, window)
            assert np.array_equal(np.isnan(ref), np.isnan(fast))
            np.testing.assert_allclose(fast, ref, rtol=1e-9, equal_nan=True)

    @pytest.mark.parametrize("window", [2, 5, 30])
    def test_std_matches_reference(self, window):
        for values in self._cases().values():
            ref = rolling_apply(values, window, np.std)
            fast = rolling_std_resume(values, window)[0]
            assert np.array_equal(np.isnan(ref), np.isnan(fast))
            np.testing.assert_allclose(
                fast, ref, rtol=1e-7, atol=1e-12, equal_nan=True)

    def test_exact_small_pins(self):
        np.testing.assert_array_equal(
            sma_resume(np.array([1.0, 2, 3, 4]), 2)[0],
            np.array([NAN, 1.5, 2.5, 3.5]))
        np.testing.assert_array_equal(
            _sums(np.array([1.0, 2, 3, 4]), 3),
            np.array([NAN, NAN, 6.0, 9.0]))

    def test_constant_series_std_is_exactly_zero(self):
        out = rolling_std_resume(np.full(50, 7.25), 10)[0]
        assert (out[9:] == 0.0).all()

    def test_window_one_is_exact_identity(self):
        values = np.random.default_rng(3).normal(size=40) * 1e17
        assert np.array_equal(sma_resume(values, 1)[0], values)
        std = rolling_std_resume(values, 1)[0]
        assert (std[~np.isnan(values)] == 0.0).all()

    def test_infinite_inputs_rejected(self):
        # ``inf - inf`` in a running-sum difference would poison every
        # later window.
        values = np.array([1.0, np.inf, 3.0, 4.0, 5.0])
        for form in (window_sums, rolling_std_resume):
            with pytest.raises(ValueError, match="infinities"):
                form(values, 2)

    def test_short_input_all_nan(self):
        assert np.isnan(sma_resume(np.array([1.0, 2.0]), 5)[0]).all()
