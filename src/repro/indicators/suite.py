"""The paper's technical-indicator block.

§3.1: "Technical indicators were constructed using only BTC historical
market information". This module derives the full technical category from
BTC OHLCV + market-cap series, with feature names matching the paper's
convention visible in Tables 3-4:

* ``EMA{span}_{variable}`` — e.g. ``EMA100_market-cap``
* ``SMA_{window}_{variable}`` — e.g. ``SMA_20_close-price``
* plus RSI, MACD, Bollinger, ROC, stochastic and volatility indicators.

Variables covered: ``close-price``, ``market-cap``, ``volume``.
"""

from __future__ import annotations

import numpy as np

from ..frame.frame import Frame
from .momentum import (
    macd_resume,
    roc_resume,
    rsi_resume,
    stochastic_d_resume,
    stochastic_k_resume,
)
from .moving import ema_resume, sma_resume
from .volatility import (
    atr_resume,
    bollinger_bands_resume,
    rolling_volatility_resume,
)

__all__ = [
    "MA_SPANS",
    "TECHNICAL_VARIABLES",
    "technical_indicators",
]

#: Moving-average spans used throughout the paper (Tables 3-4 reference
#: EMA5..EMA200 and SMA_5..SMA_20).
MA_SPANS = (5, 10, 14, 20, 30, 100, 200)
SMA_WINDOWS = (5, 10, 20, 50, 100, 200)

#: The BTC market variables from which the block is derived.
TECHNICAL_VARIABLES = ("close-price", "market-cap", "volume")


def technical_indicators(btc: Frame, carry: dict | None = None):
    """Derive the technical-indicator category from a BTC market frame,
    continued from ``carry``.

    ``btc`` has columns ``open``, ``high``, ``low``, ``close``,
    ``volume`` and ``market_cap`` on a daily index, and holds the rows
    after the ones ``carry`` was produced from (all of them when
    ``carry`` is None). Returns ``(frame, carry)``: one column per
    indicator on ``btc.index``, and the state at its last row — each
    indicator's ``*_resume`` carry. A BTC frame fed in pieces gives the
    bytes of one call over the whole of it. Long-span indicators carry
    NaN warm-up periods, which the dataset cleaning phase handles
    downstream.

    Raises ``ValueError`` when a required column is missing or holds an
    infinity: the rolling means and deviations are running-sum
    differences, which ``inf - inf`` would poison for every later row.
    NaNs are fine.
    """
    required = {"open", "high", "low", "close", "volume", "market_cap"}
    missing = required - set(btc.columns)
    if missing:
        raise ValueError(f"BTC frame is missing columns: {sorted(missing)}")
    infinite = sorted(name for name in required if np.isinf(btc[name]).any())
    if infinite:
        raise ValueError(f"BTC frame holds infinite values in: {infinite}")
    state = carry or {}
    new: dict = {}

    def resume(key, step):
        out, new[key] = step(state.get(key))
        return out

    sources = {
        "close-price": btc["close"],
        "market-cap": btc["market_cap"],
        "volume": btc["volume"],
    }
    columns: dict[str, np.ndarray] = {}
    for var_name, series in sources.items():
        for span in MA_SPANS:
            columns[f"EMA{span}_{var_name}"] = resume(
                f"ema{span}_{var_name}",
                lambda c, span=span: ema_resume(series, span, c),
            )
        for window in SMA_WINDOWS:
            columns[f"SMA_{window}_{var_name}"] = resume(
                f"sma{window}_{var_name}",
                lambda c, window=window: sma_resume(series, window, c),
            )

    close, high, low = btc["close"], btc["high"], btc["low"]
    columns["RSI14_close-price"] = resume(
        "rsi14", lambda c: rsi_resume(close, 14, c))
    columns["RSI30_close-price"] = resume(
        "rsi30", lambda c: rsi_resume(close, 30, c))
    macd_line, signal_line, histogram = resume(
        "macd", lambda c: macd_resume(close, 12, 26, 9, c))
    columns["MACD_close-price"] = macd_line
    columns["MACDsignal_close-price"] = signal_line
    columns["MACDhist_close-price"] = histogram
    middle, upper, lower = resume(
        "bb20", lambda c: bollinger_bands_resume(close, 20, 2.0, c))
    columns["BBmid20_close-price"] = middle
    columns["BBup20_close-price"] = upper
    columns["BBlow20_close-price"] = lower
    with np.errstate(divide="ignore", invalid="ignore"):
        width = (upper - lower) / middle
    width[~np.isfinite(width)] = np.nan
    columns["BBwidth20_close-price"] = width
    columns["ROC10_close-price"] = resume(
        "roc10", lambda c: roc_resume(close, 10, c))
    columns["ROC30_close-price"] = resume(
        "roc30", lambda c: roc_resume(close, 30, c))
    columns["StochK14_close-price"] = resume(
        "stoch_k14", lambda c: stochastic_k_resume(close, high, low, 14, c))
    columns["StochD14_close-price"] = resume(
        "stoch_d14",
        lambda c: stochastic_d_resume(close, high, low, 14, 3, c))
    columns["ATR14_close-price"] = resume(
        "atr14", lambda c: atr_resume(high, low, close, 14, c))
    for window in (30, 90):
        columns[f"Volatility{window}_close-price"] = resume(
            f"vol{window}", lambda c, window=window:
            rolling_volatility_resume(close, window, True, c))

    return Frame(btc.index, columns), new
