"""Unit tests for repro.ml.metrics."""

import numpy as np
import pytest

from repro.ml import (
    mean_squared_error,
    mse_improvement_pct,
    r2_score,
)


class TestMSE:
    def test_perfect(self):
        assert mean_squared_error([1, 2, 3], [1, 2, 3]) == 0.0

    def test_known_value(self):
        assert mean_squared_error([0, 0], [1, 3]) == pytest.approx(5.0)

    def test_symmetric(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        assert mean_squared_error(a, b) == mean_squared_error(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_squared_error([1, 2], [1])

    def test_empty(self):
        with pytest.raises(ValueError):
            mean_squared_error([], [])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            mean_squared_error([np.nan], [1.0])

    def test_accepts_2d_ravel(self):
        assert mean_squared_error(np.zeros((2, 1)), np.zeros(2)) == 0.0


class TestOtherMetrics:
    def test_r2_perfect(self):
        assert r2_score([1, 2, 3], [1, 2, 3]) == 1.0

    def test_r2_mean_model(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_r2_worse_than_mean_negative(self):
        assert r2_score([1, 2, 3], [3, 2, 1]) < 0

    def test_r2_constant_target(self):
        assert r2_score([5, 5], [5, 5]) == 1.0
        assert r2_score([5, 5], [4, 6]) == 0.0


class TestImprovement:
    def test_ten_x_is_900pct(self):
        assert mse_improvement_pct(10.0, 1.0) == pytest.approx(900.0)

    def test_equal_is_zero(self):
        assert mse_improvement_pct(2.0, 2.0) == 0.0

    def test_regression_is_negative(self):
        assert mse_improvement_pct(1.0, 2.0) == pytest.approx(-50.0)

    def test_zero_improved_rejected(self):
        with pytest.raises(ValueError):
            mse_improvement_pct(1.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mse_improvement_pct(-1.0, 1.0)
