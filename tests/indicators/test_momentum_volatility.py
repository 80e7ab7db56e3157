"""Unit tests for repro.indicators.momentum and .volatility."""

import numpy as np
import pytest

from repro.indicators import (
    atr,
    bollinger_bands,
    macd,
    roc,
    rolling_volatility,
    rsi,
    sma,
    stochastic_d,
    stochastic_k,
)
from repro.indicators.momentum import macd_resume, stochastic_d_resume
from repro.indicators.moving import sma_resume
from repro.indicators.volatility import (
    atr_resume,
    bollinger_bands_resume,
    rolling_volatility_resume,
)


class TestRSI:
    def test_all_gains_is_100(self):
        out = rsi(np.arange(1.0, 30.0), 14)
        assert out[-1] == pytest.approx(100.0)

    def test_all_losses_is_0(self):
        out = rsi(np.arange(30.0, 1.0, -1.0), 14)
        assert out[-1] == pytest.approx(0.0)

    def test_flat_is_neutral(self):
        out = rsi(np.full(30, 5.0), 14)
        assert out[-1] == pytest.approx(50.0)

    def test_warmup_nan(self):
        out = rsi(np.arange(1.0, 30.0), 14)
        assert np.isnan(out[:14]).all()
        assert not np.isnan(out[14:]).any()

    def test_range_bounded(self):
        rng = np.random.default_rng(0)
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 300)))
        out = rsi(prices, 14)
        valid = out[~np.isnan(out)]
        assert (valid >= 0).all() and (valid <= 100).all()

    def test_short_series_all_nan(self):
        assert np.isnan(rsi(np.arange(5.0), 14)).all()

    def test_bad_window(self):
        with pytest.raises(ValueError):
            rsi(np.arange(10.0), 0)


class TestMACD:
    def test_shapes(self):
        prices = np.arange(1.0, 101.0)
        line, signal, hist = macd(prices)
        assert line.shape == signal.shape == hist.shape == prices.shape

    def test_histogram_identity(self):
        rng = np.random.default_rng(1)
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 200)))
        line, signal, hist = macd(prices)
        assert np.allclose(hist, line - signal, equal_nan=True)

    def test_uptrend_positive_macd(self):
        prices = np.exp(np.linspace(0, 2, 200))
        line, _, _ = macd(prices)
        assert line[-1] > 0

    def test_constant_series_zero(self):
        line, signal, hist = macd(np.full(100, 50.0))
        assert np.allclose(line, 0.0)
        assert np.allclose(hist, 0.0)

    def test_fast_must_be_faster(self):
        with pytest.raises(ValueError):
            macd(np.arange(50.0), fast=26, slow=12)


class TestROC:
    def test_known_value(self):
        out = roc(np.array([100.0, 0, 0, 0, 0, 110.0]), 5)
        assert out[5] == pytest.approx(10.0)

    def test_warmup(self):
        out = roc(np.arange(1.0, 20.0), 10)
        assert np.isnan(out[:10]).all()

    def test_zero_base_nan(self):
        out = roc(np.array([0.0, 1.0]), 1)
        assert np.isnan(out[1])

    def test_bad_window(self):
        with pytest.raises(ValueError):
            roc(np.arange(5.0), 0)


class TestStochastic:
    def test_close_at_high_is_100(self):
        n = 20
        close = np.linspace(1, 20, n)
        high = close
        low = close - 1
        out = stochastic_k(close, high, low, 5)
        assert out[-1] == pytest.approx(100.0, abs=1e-9)

    def test_close_at_low_is_0(self):
        n = 20
        close = np.linspace(20, 1, n)
        high = close + 1
        low = close
        out = stochastic_k(close, high, low, 5)
        assert out[-1] == pytest.approx(0.0, abs=1e-9)

    def test_flat_range_neutral(self):
        close = np.full(20, 10.0)
        out = stochastic_k(close, close, close, 5)
        assert out[-1] == pytest.approx(50.0)

    def test_d_is_smoothed_k(self):
        rng = np.random.default_rng(2)
        close = 100 + np.cumsum(rng.normal(0, 1, 100))
        high = close + np.abs(rng.normal(0, 0.5, 100))
        low = close - np.abs(rng.normal(0, 0.5, 100))
        k = stochastic_k(close, high, low, 14)
        d = stochastic_d(close, high, low, 14, smooth=3)
        # %D at t = mean of %K over the last 3 points
        assert d[20] == pytest.approx(np.mean(k[18:21]))


class TestBollinger:
    def test_band_symmetry(self):
        rng = np.random.default_rng(3)
        prices = 100 + rng.normal(0, 2, 100)
        mid, up, low = bollinger_bands(prices, 20, 2.0)
        valid = ~np.isnan(mid)
        assert np.allclose((up + low)[valid] / 2, mid[valid])
        assert (up[valid] >= low[valid]).all()

    def test_constant_series_zero_width(self):
        mid, up, low = bollinger_bands(np.full(50, 10.0), 20)
        valid = ~np.isnan(mid)
        assert np.allclose(up[valid], low[valid])

    def test_nstd_scales_width(self):
        rng = np.random.default_rng(4)
        prices = 100 + rng.normal(0, 2, 100)
        _, up2, low2 = bollinger_bands(prices, 20, 2.0)
        _, up1, low1 = bollinger_bands(prices, 20, 1.0)
        valid = ~np.isnan(up2)
        assert np.allclose(
            (up2 - low2)[valid], 2 * (up1 - low1)[valid]
        )

    def test_bad_nstd(self):
        with pytest.raises(ValueError):
            bollinger_bands(np.arange(30.0), 20, 0.0)


class TestATR:
    def test_simple_range(self):
        n = 30
        close = np.full(n, 10.0)
        high = close + 1.0
        low = close - 1.0
        out = atr(high, low, close, 14)
        assert out[-1] == pytest.approx(2.0)

    def test_gap_day_uses_prev_close(self):
        close = np.array([10.0, 20.0, 20.0])
        high = np.array([10.5, 20.5, 20.5])
        low = np.array([9.5, 19.5, 19.5])
        out = atr(high, low, close, 2)
        # day 1 true range = max(1, |20.5-10|, |19.5-10|) = 10.5
        assert out[1] == pytest.approx((1.0 + 10.5) / 2)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        close = 100 + np.cumsum(rng.normal(0, 1, 100))
        high = close + np.abs(rng.normal(0, 1, 100))
        low = close - np.abs(rng.normal(0, 1, 100))
        out = atr(high, low, close)
        assert (out[~np.isnan(out)] >= 0).all()


class TestRollingVolatility:
    def test_constant_prices_zero_vol(self):
        out = rolling_volatility(np.full(100, 50.0), 30)
        valid = out[~np.isnan(out)]
        assert np.allclose(valid, 0.0)

    def test_annualisation_uses_365(self):
        rng = np.random.default_rng(6)
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 400)))
        ann = rolling_volatility(prices, 30, annualise=True)
        raw = rolling_volatility(prices, 30, annualise=False)
        valid = ~np.isnan(ann)
        assert np.allclose(ann[valid], raw[valid] * np.sqrt(365))

    def test_higher_noise_higher_vol(self):
        rng = np.random.default_rng(7)
        calm = 100 * np.exp(np.cumsum(rng.normal(0, 0.005, 200)))
        wild = 100 * np.exp(np.cumsum(rng.normal(0, 0.05, 200)))
        v_calm = rolling_volatility(calm, 30)
        v_wild = rolling_volatility(wild, 30)
        assert np.nanmean(v_wild) > np.nanmean(v_calm)



def _ohlc(n=160):
    rng = np.random.default_rng(8)
    close = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
    close[40] = np.nan
    high = close * (1 + np.abs(rng.normal(0, 0.01, n)))
    low = close * (1 - np.abs(rng.normal(0, 0.01, n)))
    return close, high, low


# (resumable form over rows lo:hi, the public function over all rows)
_FORMS = {
    "sma": (lambda c, h, l, carry: sma_resume(c, 20, carry),
            lambda c, h, l: sma(c, 20)),
    "macd": (lambda c, h, l, carry: macd_resume(c, carry=carry),
             lambda c, h, l: macd(c)),
    "bollinger": (
        lambda c, h, l, carry: bollinger_bands_resume(c, 20, 2.0, carry),
        lambda c, h, l: bollinger_bands(c, 20)),
    "atr": (lambda c, h, l, carry: atr_resume(h, l, c, 14, carry),
            lambda c, h, l: atr(h, l, c, 14)),
    "volatility": (
        lambda c, h, l, carry: rolling_volatility_resume(c, 30, True, carry),
        lambda c, h, l: rolling_volatility(c, 30)),
    "stochastic_d": (
        lambda c, h, l, carry: stochastic_d_resume(c, h, l, 14, 3, carry),
        lambda c, h, l: stochastic_d(c, h, l, 14)),
}


class TestResumableForms:
    """Each indicator is its ``*_resume`` form over the whole series, and
    a series fed in pieces gives the bytes of one call."""

    @pytest.mark.parametrize("cut", [1, 13, 25, 90, 159])
    @pytest.mark.parametrize("name", sorted(_FORMS))
    def test_pieces_equal_one_call(self, name, cut):
        resume, whole = _FORMS[name]
        series = _ohlc()
        head, carry = resume(*(s[:cut] for s in series), None)
        tail, _ = resume(*(s[cut:] for s in series), carry)
        expected = whole(*series)
        if isinstance(expected, np.ndarray):
            head, tail, expected = (head,), (tail,), (expected,)
        for first, rest, want in zip(head, tail, expected):
            assert (np.concatenate((first, rest)).tobytes()
                    == want.tobytes())

    def test_infinite_input_rejected(self):
        with pytest.raises(ValueError, match="infinities"):
            sma(np.array([1.0, np.inf, 2.0, 3.0]), 2)

    def test_window_one_is_exact(self):
        prices = np.array([0.1, 0.7, np.nan, 0.3])
        assert sma(prices, 1).tobytes() == prices.tobytes()
        _, upper, lower = bollinger_bands(prices, 1)
        assert upper.tobytes() == lower.tobytes() == prices.tobytes()
