"""Unit tests for repro.stats."""

import numpy as np
import pytest

from repro.stats import (
    acf,
    diebold_mariano,
    improvement_ci,
    ljung_box,
)


class TestDieboldMariano:
    def test_clearly_better_forecast_detected(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=500)
        good = y + 0.1 * rng.normal(size=500)
        bad = y + 1.0 * rng.normal(size=500)
        res = diebold_mariano(y, good, bad)
        assert res.favors_first
        assert res.statistic < -3
        assert res.p_value < 0.01

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=300)
        a = y + 0.3 * rng.normal(size=300)
        b = y + 0.6 * rng.normal(size=300)
        r_ab = diebold_mariano(y, a, b)
        r_ba = diebold_mariano(y, b, a)
        assert r_ab.statistic == pytest.approx(-r_ba.statistic)
        assert r_ab.p_value == pytest.approx(r_ba.p_value)

    def test_equal_forecasts_null_not_rejected(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=300)
        noise = rng.normal(size=300)
        a = y + 0.5 * noise
        res = diebold_mariano(y, a, a.copy())
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_similar_quality_not_rejected(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=400)
        a = y + 0.5 * rng.normal(size=400)
        b = y + 0.5 * rng.normal(size=400)
        res = diebold_mariano(y, a, b)
        assert res.p_value > 0.01

    def test_one_sided_alternatives(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=400)
        good = y + 0.1 * rng.normal(size=400)
        bad = y + 1.0 * rng.normal(size=400)
        less = diebold_mariano(y, good, bad, alternative="less")
        greater = diebold_mariano(y, good, bad, alternative="greater")
        assert less.p_value < 0.01
        assert greater.p_value > 0.99
        assert less.p_value + greater.p_value == pytest.approx(1.0)

    def test_absolute_loss(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=400)
        good = y + 0.1 * rng.normal(size=400)
        bad = y + 1.0 * rng.normal(size=400)
        res = diebold_mariano(y, good, bad, loss="absolute")
        assert res.favors_first

    def test_horizon_widens_variance(self):
        """Using a longer HAC window must not shrink the p-value for an
        MA-correlated differential."""
        rng = np.random.default_rng(6)
        y = rng.normal(size=500)
        shock = rng.normal(size=500)
        # errors with overlapping-window correlation
        e = np.convolve(shock, np.ones(5) / 5, mode="same")
        a = y + e
        b = y + 1.3 * e + 0.2 * rng.normal(size=500)
        h1 = diebold_mariano(y, a, b, horizon=1)
        h5 = diebold_mariano(y, a, b, horizon=5)
        assert abs(h5.statistic) <= abs(h1.statistic) + 1e-9

    def test_validation(self):
        y = np.zeros(10)
        with pytest.raises(ValueError):
            diebold_mariano(y, y[:5], y)
        with pytest.raises(ValueError):
            diebold_mariano(y, y, y, horizon=0)
        with pytest.raises(ValueError):
            diebold_mariano(y, y, y, horizon=6)
        with pytest.raises(ValueError):
            diebold_mariano(y, y, y, loss="huber")
        with pytest.raises(ValueError):
            diebold_mariano(y, y, y, alternative="sideways")


class TestImprovementCI:
    def test_known_improvement_recovered(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=600)
        improved = y + 0.1 * rng.normal(size=600)
        baseline = y + 0.5 * rng.normal(size=600)
        point, lo, hi = improvement_ci(y, baseline, improved,
                                       n_resamples=300, random_state=0)
        # variance ratio 25 -> ~2400 % improvement
        assert lo <= point <= hi
        assert point > 1000.0
        assert lo > 300.0  # clearly positive

    def test_no_improvement_ci_straddles_zero(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=600)
        a = y + 0.5 * rng.normal(size=600)
        b = y + 0.5 * rng.normal(size=600)
        point, lo, hi = improvement_ci(y, a, b, n_resamples=300,
                                       random_state=0)
        assert lo < 0 < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            improvement_ci(np.ones(5), np.ones(4), np.ones(5))
        y = np.arange(100.0)
        base, impr = y + 1.0, y + 0.5
        with pytest.raises(ValueError, match="n_resamples"):
            improvement_ci(y, base, impr, n_resamples=0)
        for confidence in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="confidence"):
                improvement_ci(y, base, impr, confidence=confidence)


class TestDiagnostics:
    def test_acf_lag0_is_one(self):
        values = np.random.default_rng(12).normal(size=100)
        assert acf(values, 5)[0] == 1.0

    def test_acf_bounded(self):
        values = np.cumsum(np.random.default_rng(13).normal(size=300))
        rho = acf(values, 30)
        assert (np.abs(rho) <= 1.0 + 1e-12).all()

    def test_acf_of_persistent_series_high(self):
        walk = np.cumsum(np.random.default_rng(14).normal(size=500))
        assert acf(walk, 1)[1] > 0.9

    def test_acf_constant_series(self):
        rho = acf(np.full(50, 3.0), 5)
        assert rho[0] == 1.0
        assert np.allclose(rho[1:], 0.0)

    def test_acf_validation(self):
        with pytest.raises(ValueError):
            acf(np.array([1.0]), 1)
        with pytest.raises(ValueError):
            acf(np.ones(10), 10)

    def test_ljung_box_white_noise_passes(self):
        noise = np.random.default_rng(15).normal(size=500)
        _, p = ljung_box(noise, 10)
        assert p > 0.01

    def test_ljung_box_rejects_random_walk(self):
        walk = np.cumsum(np.random.default_rng(16).normal(size=500))
        _, p = ljung_box(walk, 10)
        assert p < 1e-6

    def test_ljung_box_validation(self):
        with pytest.raises(ValueError):
            ljung_box(np.ones(5), 10)
        with pytest.raises(ValueError):
            ljung_box(np.ones(50), 0)
