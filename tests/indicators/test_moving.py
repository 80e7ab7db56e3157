"""Unit tests for repro.indicators.moving."""

import numpy as np
import pytest

from repro.indicators import ema_resume, sma_resume

NAN = np.nan


class TestSMA:
    def test_basic(self):
        out = sma_resume(np.array([1.0, 2, 3, 4]), 2)[0]
        assert np.isnan(out[0])
        assert out[1:].tolist() == [1.5, 2.5, 3.5]

    def test_window_one_identity(self):
        src = np.array([3.0, 1.0, 4.0])
        assert sma_resume(src, 1)[0].tolist() == src.tolist()


class TestEMA:
    def test_seeds_at_first_value(self):
        out = ema_resume(np.array([10.0, 10.0, 10.0]), 5)[0]
        assert out.tolist() == [10.0, 10.0, 10.0]

    def test_alpha_weighting(self):
        # span=1 -> alpha=1 -> EMA equals the series
        src = np.array([1.0, 5.0, 2.0])
        assert ema_resume(src, 1)[0].tolist() == src.tolist()

    def test_known_recursion(self):
        src = np.array([2.0, 4.0])
        out = ema_resume(src, 3)[0]  # alpha = 0.5
        assert out[1] == pytest.approx(0.5 * 4.0 + 0.5 * 2.0)

    def test_leading_nan_preserved(self):
        out = ema_resume(np.array([NAN, NAN, 1.0, 2.0]), 3)[0]
        assert np.isnan(out[:2]).all()
        assert out[2] == 1.0

    def test_interior_nan_coasts(self):
        out = ema_resume(np.array([1.0, NAN, 1.0]), 3)[0]
        assert out[1] == 1.0  # holds previous state through the gap

    def test_converges_to_constant(self):
        src = np.concatenate(([0.0], np.full(300, 5.0)))
        out = ema_resume(src, 10)[0]
        assert out[-1] == pytest.approx(5.0, abs=1e-8)

    def test_smoothing_lags_raw(self):
        """Longer spans react more slowly to a step change."""
        src = np.concatenate((np.zeros(10), np.ones(10)))
        fast = ema_resume(src, 2)[0]
        slow = ema_resume(src, 20)[0]
        assert fast[12] > slow[12]

    def test_bad_span(self):
        with pytest.raises(ValueError):
            ema_resume(np.array([1.0]), 0)
