"""Unit tests for repro.frame.transform."""

import numpy as np
import pytest

from repro.frame import diff, zscore

NAN = np.nan


class TestDiff:
    def test_basic(self):
        out = diff(np.array([1.0, 4.0, 9.0]))
        assert np.isnan(out[0])
        assert out[1:].tolist() == [3.0, 5.0]

    def test_periods(self):
        out = diff(np.array([1.0, 2.0, 4.0, 8.0]), periods=2)
        assert np.isnan(out[:2]).all()
        assert out[2:].tolist() == [3.0, 6.0]

    def test_short_series(self):
        assert np.isnan(diff(np.array([1.0]), 1)).all()

    def test_bad_periods(self):
        with pytest.raises(ValueError):
            diff(np.array([1.0]), 0)


class TestZscore:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        z = zscore(rng.normal(10, 5, 500))
        assert abs(z.mean()) < 1e-12
        assert z.std() == pytest.approx(1.0)

    def test_nan_aware(self):
        z = zscore(np.array([1.0, NAN, 3.0]))
        assert np.isnan(z[1])
        assert z[0] == pytest.approx(-1.0)
        assert z[2] == pytest.approx(1.0)

    def test_constant_series_zeros(self):
        z = zscore(np.full(5, 7.0))
        assert z.tolist() == [0.0] * 5

    def test_all_nan_passthrough(self):
        assert np.isnan(zscore(np.array([NAN, NAN]))).all()
