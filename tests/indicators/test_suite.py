"""Unit tests for the paper's technical-indicator block."""

import numpy as np
import pytest

from repro.frame import Frame, date_range
from repro.indicators import MA_SPANS, technical_indicators


@pytest.fixture(scope="module")
def btc_frame():
    rng = np.random.default_rng(0)
    n = 400
    close = 1000 * np.exp(np.cumsum(rng.normal(0.001, 0.03, n)))
    open_ = np.concatenate(([close[0]], close[:-1]))
    spread = np.abs(rng.normal(0, 0.01, n))
    return Frame(
        date_range("2017-01-01", periods=n),
        {
            "open": open_,
            "high": np.maximum(open_, close) * (1 + spread),
            "low": np.minimum(open_, close) * (1 - spread),
            "close": close,
            "volume": 1e9 * np.exp(rng.normal(0, 0.2, n)),
            "market_cap": close * 17e6,
        },
    )


class TestSuite:
    def test_paper_feature_names_present(self, btc_frame):
        frame = technical_indicators(btc_frame)[0]
        for name in (
            "EMA100_market-cap", "EMA200_close-price", "EMA14_close-price",
            "EMA10_market-cap", "SMA_20_close-price", "SMA_10_market-cap",
            "EMA200_volume", "EMA100_volume", "EMA5_market-cap",
            "SMA_5_close-price", "EMA30_market-cap",
        ):
            assert name in frame, name

    def test_all_ma_spans_covered(self, btc_frame):
        frame = technical_indicators(btc_frame)[0]
        for span in MA_SPANS:
            for var in ("close-price", "market-cap", "volume"):
                assert f"EMA{span}_{var}" in frame

    def test_momentum_and_volatility_included(self, btc_frame):
        frame = technical_indicators(btc_frame)[0]
        for name in ("RSI14_close-price", "MACD_close-price",
                     "BBup20_close-price", "BBlow20_close-price",
                     "ROC10_close-price", "StochK14_close-price",
                     "ATR14_close-price", "Volatility30_close-price"):
            assert name in frame, name

    def test_block_is_large(self, btc_frame):
        frame = technical_indicators(btc_frame)[0]
        assert frame.n_cols >= 50

    def test_index_preserved(self, btc_frame):
        frame = technical_indicators(btc_frame)[0]
        assert frame.index == btc_frame.index

    def test_ema_columns_match_direct_computation(self, btc_frame):
        from repro.indicators import ema_resume

        frame = technical_indicators(btc_frame)[0]
        direct = ema_resume(btc_frame["close"], 14)[0]
        assert np.allclose(
            frame["EMA14_close-price"], direct, equal_nan=True
        )

    def test_sma_columns_match_direct_computation(self, btc_frame):
        from repro.indicators import sma_resume

        frame = technical_indicators(btc_frame)[0]
        direct = sma_resume(btc_frame["market_cap"], 20)[0]
        assert np.allclose(
            frame["SMA_20_market-cap"], direct, equal_nan=True
        )

    def test_columns_are_the_public_indicators(self, btc_frame):
        # One definition per indicator: the block's columns are the
        # public resumable forms' outputs, byte for byte.
        from repro.indicators import (
            atr_resume,
            bollinger_bands_resume,
            macd_resume,
            rolling_volatility_resume,
            sma_resume,
            stochastic_d_resume,
        )

        frame = technical_indicators(btc_frame)[0]
        close, high, low = (btc_frame[name]
                            for name in ("close", "high", "low"))
        expected = {
            "SMA_50_volume": sma_resume(btc_frame["volume"], 50)[0],
            "StochD14_close-price":
                stochastic_d_resume(close, high, low, 14)[0],
            "ATR14_close-price": atr_resume(high, low, close, 14)[0],
            "Volatility90_close-price":
                rolling_volatility_resume(close, 90)[0],
        }
        for name, series in zip(("MACD", "MACDsignal", "MACDhist"),
                                macd_resume(close)[0]):
            expected[f"{name}_close-price"] = series
        for name, series in zip(("BBmid20", "BBup20", "BBlow20"),
                                bollinger_bands_resume(close, 20)[0]):
            expected[f"{name}_close-price"] = series
        for name, series in expected.items():
            assert frame[name].tobytes() == series.tobytes(), name

    @pytest.mark.parametrize("column", ["close", "high", "volume"])
    def test_infinite_input_rejected(self, btc_frame, column):
        # An infinity would poison every later running-sum window.
        values = btc_frame.to_dict()
        values[column] = values[column].copy()
        values[column][200] = np.inf
        broken = Frame(btc_frame.index, values)
        with pytest.raises(ValueError, match="infinite"):
            technical_indicators(broken)

    def test_nan_input_accepted(self, btc_frame):
        values = btc_frame.to_dict()
        values["close"] = values["close"].copy()
        values["close"][200] = np.nan
        frame = technical_indicators(Frame(btc_frame.index, values))[0]
        assert np.isnan(frame["SMA_5_close-price"][200:205]).all()
        assert np.isfinite(frame["SMA_5_close-price"][205:]).all()

    def test_missing_column_rejected(self, btc_frame):
        broken = btc_frame.drop(["volume"])
        with pytest.raises(ValueError):
            technical_indicators(broken)

    def test_warmup_nans_bounded(self, btc_frame):
        """Only rolling indicators have warm-ups; all shorter than 200."""
        frame = technical_indicators(btc_frame)[0]
        from repro.frame import leading_nan_count

        for name in frame.columns:
            assert leading_nan_count(frame[name]) <= 200, name
