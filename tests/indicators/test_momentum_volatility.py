"""Unit tests for repro.indicators.momentum and .volatility, and for
the resumable running-sum forms they rest on."""

import numpy as np
import pytest

from repro.frame.ops import rolling_std_resume
from repro.indicators import (
    atr_resume,
    bollinger_bands_resume,
    ema_resume,
    macd_resume,
    roc_resume,
    rolling_volatility_resume,
    rsi_resume,
    sma_resume,
    stochastic_d_resume,
    stochastic_k_resume,
)


class TestRSI:
    def test_all_gains_is_100(self):
        out = rsi_resume(np.arange(1.0, 30.0), 14)[0]
        assert out[-1] == pytest.approx(100.0)

    def test_all_losses_is_0(self):
        out = rsi_resume(np.arange(30.0, 1.0, -1.0), 14)[0]
        assert out[-1] == pytest.approx(0.0)

    def test_flat_is_neutral(self):
        out = rsi_resume(np.full(30, 5.0), 14)[0]
        assert out[-1] == pytest.approx(50.0)

    def test_warmup_nan(self):
        out = rsi_resume(np.arange(1.0, 30.0), 14)[0]
        assert np.isnan(out[:14]).all()
        assert not np.isnan(out[14:]).any()

    def test_range_bounded(self):
        rng = np.random.default_rng(0)
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 300)))
        out = rsi_resume(prices, 14)[0]
        valid = out[~np.isnan(out)]
        assert (valid >= 0).all() and (valid <= 100).all()

    def test_short_series_all_nan(self):
        assert np.isnan(rsi_resume(np.arange(5.0), 14)[0]).all()

    def test_bad_window(self):
        with pytest.raises(ValueError):
            rsi_resume(np.arange(10.0), 0)


class TestMACD:
    def test_shapes(self):
        prices = np.arange(1.0, 101.0)
        line, signal, hist = macd_resume(prices)[0]
        assert line.shape == signal.shape == hist.shape == prices.shape

    def test_histogram_identity(self):
        rng = np.random.default_rng(1)
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 200)))
        line, signal, hist = macd_resume(prices)[0]
        assert np.allclose(hist, line - signal, equal_nan=True)

    def test_uptrend_positive_macd(self):
        prices = np.exp(np.linspace(0, 2, 200))
        line, _, _ = macd_resume(prices)[0]
        assert line[-1] > 0

    def test_constant_series_zero(self):
        line, signal, hist = macd_resume(np.full(100, 50.0))[0]
        assert np.allclose(line, 0.0)
        assert np.allclose(hist, 0.0)

    def test_fast_must_be_faster(self):
        with pytest.raises(ValueError):
            macd_resume(np.arange(50.0), fast=26, slow=12)


class TestROC:
    def test_known_value(self):
        out = roc_resume(np.array([100.0, 0, 0, 0, 0, 110.0]), 5)[0]
        assert out[5] == pytest.approx(10.0)

    def test_warmup(self):
        out = roc_resume(np.arange(1.0, 20.0), 10)[0]
        assert np.isnan(out[:10]).all()

    def test_zero_base_nan(self):
        out = roc_resume(np.array([0.0, 1.0]), 1)[0]
        assert np.isnan(out[1])

    def test_bad_window(self):
        with pytest.raises(ValueError):
            roc_resume(np.arange(5.0), 0)


class TestStochastic:
    def test_close_at_high_is_100(self):
        n = 20
        close = np.linspace(1, 20, n)
        high = close
        low = close - 1
        out = stochastic_k_resume(close, high, low, 5)[0]
        assert out[-1] == pytest.approx(100.0, abs=1e-9)

    def test_close_at_low_is_0(self):
        n = 20
        close = np.linspace(20, 1, n)
        high = close + 1
        low = close
        out = stochastic_k_resume(close, high, low, 5)[0]
        assert out[-1] == pytest.approx(0.0, abs=1e-9)

    def test_flat_range_neutral(self):
        close = np.full(20, 10.0)
        out = stochastic_k_resume(close, close, close, 5)[0]
        assert out[-1] == pytest.approx(50.0)

    def test_d_is_smoothed_k(self):
        rng = np.random.default_rng(2)
        close = 100 + np.cumsum(rng.normal(0, 1, 100))
        high = close + np.abs(rng.normal(0, 0.5, 100))
        low = close - np.abs(rng.normal(0, 0.5, 100))
        k = stochastic_k_resume(close, high, low, 14)[0]
        d = stochastic_d_resume(close, high, low, 14, smooth=3)[0]
        # %D at t = mean of %K over the last 3 points
        assert d[20] == pytest.approx(np.mean(k[18:21]))


class TestBollinger:
    def test_band_symmetry(self):
        rng = np.random.default_rng(3)
        prices = 100 + rng.normal(0, 2, 100)
        mid, up, low = bollinger_bands_resume(prices, 20, 2.0)[0]
        valid = ~np.isnan(mid)
        assert np.allclose((up + low)[valid] / 2, mid[valid])
        assert (up[valid] >= low[valid]).all()

    def test_constant_series_zero_width(self):
        mid, up, low = bollinger_bands_resume(np.full(50, 10.0), 20)[0]
        valid = ~np.isnan(mid)
        assert np.allclose(up[valid], low[valid])

    def test_nstd_scales_width(self):
        rng = np.random.default_rng(4)
        prices = 100 + rng.normal(0, 2, 100)
        _, up2, low2 = bollinger_bands_resume(prices, 20, 2.0)[0]
        _, up1, low1 = bollinger_bands_resume(prices, 20, 1.0)[0]
        valid = ~np.isnan(up2)
        assert np.allclose(
            (up2 - low2)[valid], 2 * (up1 - low1)[valid]
        )

    def test_bad_nstd(self):
        with pytest.raises(ValueError):
            bollinger_bands_resume(np.arange(30.0), 20, 0.0)


class TestATR:
    def test_simple_range(self):
        n = 30
        close = np.full(n, 10.0)
        high = close + 1.0
        low = close - 1.0
        out = atr_resume(high, low, close, 14)[0]
        assert out[-1] == pytest.approx(2.0)

    def test_gap_day_uses_prev_close(self):
        close = np.array([10.0, 20.0, 20.0])
        high = np.array([10.5, 20.5, 20.5])
        low = np.array([9.5, 19.5, 19.5])
        out = atr_resume(high, low, close, 2)[0]
        # day 1 true range = max(1, |20.5-10|, |19.5-10|) = 10.5
        assert out[1] == pytest.approx((1.0 + 10.5) / 2)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        close = 100 + np.cumsum(rng.normal(0, 1, 100))
        high = close + np.abs(rng.normal(0, 1, 100))
        low = close - np.abs(rng.normal(0, 1, 100))
        out = atr_resume(high, low, close)[0]
        assert (out[~np.isnan(out)] >= 0).all()


class TestRollingVolatility:
    def test_constant_prices_zero_vol(self):
        out = rolling_volatility_resume(np.full(100, 50.0), 30)[0]
        valid = out[~np.isnan(out)]
        assert np.allclose(valid, 0.0)

    def test_annualisation_uses_365(self):
        rng = np.random.default_rng(6)
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 400)))
        ann = rolling_volatility_resume(prices, 30, annualise=True)[0]
        raw = rolling_volatility_resume(prices, 30, annualise=False)[0]
        valid = ~np.isnan(ann)
        assert np.allclose(ann[valid], raw[valid] * np.sqrt(365))

    def test_higher_noise_higher_vol(self):
        rng = np.random.default_rng(7)
        calm = 100 * np.exp(np.cumsum(rng.normal(0, 0.005, 200)))
        wild = 100 * np.exp(np.cumsum(rng.normal(0, 0.05, 200)))
        v_calm = rolling_volatility_resume(calm, 30)[0]
        v_wild = rolling_volatility_resume(wild, 30)[0]
        assert np.nanmean(v_wild) > np.nanmean(v_calm)



def _ohlc(n=160):
    rng = np.random.default_rng(8)
    close = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
    close[40] = np.nan
    high = close * (1 + np.abs(rng.normal(0, 0.01, n)))
    low = close * (1 - np.abs(rng.normal(0, 0.01, n)))
    return close, high, low


# Each resumable form over the rows of (close, high, low) it is given,
# continued from ``carry``.
_FORMS = {
    "sma": lambda c, h, l, carry: sma_resume(c, 20, carry),
    "ema": lambda c, h, l, carry: ema_resume(c, 14, carry),
    "rsi": lambda c, h, l, carry: rsi_resume(c, 14, carry),
    "macd": lambda c, h, l, carry: macd_resume(c, carry=carry),
    "roc": lambda c, h, l, carry: roc_resume(c, 10, carry),
    "bollinger": lambda c, h, l, carry: bollinger_bands_resume(
        c, 20, 2.0, carry),
    "atr": lambda c, h, l, carry: atr_resume(h, l, c, 14, carry),
    "volatility": lambda c, h, l, carry: rolling_volatility_resume(
        c, 30, True, carry),
    "stochastic_k": lambda c, h, l, carry: stochastic_k_resume(
        c, h, l, 14, carry),
    "stochastic_d": lambda c, h, l, carry: stochastic_d_resume(
        c, h, l, 14, 3, carry),
    "std": lambda c, h, l, carry: rolling_std_resume(c, 20, carry),
}


def _in_pieces(resume, series, cuts):
    """The form over ``series`` split at ``cuts``, each piece continued
    from the carry of the one before; one array per output."""
    bounds = (0, *cuts, series[0].size)
    pieces, carry = [], None
    for lo, hi in zip(bounds, bounds[1:]):
        out, carry = resume(*(s[lo:hi] for s in series), carry)
        pieces.append(out if isinstance(out, tuple) else (out,))
    return [np.concatenate(parts) for parts in zip(*pieces)]


def _assert_same_bytes(got, want):
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


class TestResumableForms:
    """A series fed to a ``*_resume`` form in pieces gives the bytes of
    one call over the whole of it."""

    @pytest.mark.parametrize("cut", [1, 10, 13, 25, 90, 159])
    @pytest.mark.parametrize("name", sorted(_FORMS))
    def test_pieces_equal_one_call(self, name, cut):
        resume, series = _FORMS[name], _ohlc()
        _assert_same_bytes(_in_pieces(resume, series, (cut,)),
                           resume(*series, None)[0])

    @pytest.mark.parametrize("cuts", [(5, 12), (10, 60), (30, 31)])
    @pytest.mark.parametrize("name", sorted(_FORMS))
    def test_three_pieces_equal_one_call(self, name, cuts):
        resume, series = _FORMS[name], _ohlc()
        _assert_same_bytes(_in_pieces(resume, series, cuts),
                           resume(*series, None)[0])

    def test_infinite_input_rejected(self):
        with pytest.raises(ValueError, match="infinities"):
            sma_resume(np.array([1.0, np.inf, 2.0, 3.0]), 2)

    def test_window_one_is_exact(self):
        prices = np.array([0.1, 0.7, np.nan, 0.3])
        assert sma_resume(prices, 1)[0].tobytes() == prices.tobytes()
        _, upper, lower = bollinger_bands_resume(prices, 1)[0]
        assert upper.tobytes() == lower.tobytes() == prices.tobytes()
