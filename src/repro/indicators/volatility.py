"""Volatility indicators: Bollinger bands, ATR, rolling volatility.

Each indicator is defined once, by a ``*_resume`` form that continues a
series from the state its earlier values left (no state: the series'
start).
"""

from __future__ import annotations

import numpy as np

from ..frame.ops import rolling_std_resume
from .moving import sma_resume

__all__ = [
    "atr_resume",
    "bollinger_bands_resume",
    "rolling_volatility_resume",
    "true_range",
]


def bollinger_bands_resume(values: np.ndarray, window: int = 20,
                           n_std: float = 2.0, carry=None):
    """(middle, upper, lower) Bollinger bands around an SMA, continued
    from ``carry`` (the SMA's and the deviation's running sums);
    returns ``(bands, carry)``."""
    if n_std <= 0:
        raise ValueError("n_std must be positive")
    mean_carry, std_carry = carry or (None, None)
    middle, mean_carry = sma_resume(values, window, mean_carry)
    std, std_carry = rolling_std_resume(values, window, std_carry)
    spread = n_std * std
    return (middle, middle + spread, middle - spread), (mean_carry, std_carry)


def atr_resume(high: np.ndarray, low: np.ndarray, close: np.ndarray,
               window: int = 14, carry=None):
    """Average True Range over ``window`` days, continued from ``carry``
    (the last close and the true range's running sums); returns
    ``(averages, carry)``.

    True range = max(high - low, |high - prev_close|, |low - prev_close|);
    the series' first observation uses high - low alone.
    """
    close = np.asarray(close, dtype=np.float64)
    prev, sums = carry or (None, None)
    prev_close = np.concatenate(([np.nan if prev is None else prev],
                                 close[:-1]))
    out, sums = sma_resume(true_range(high, low, prev_close), window, sums)
    return out, (float(close[-1]) if close.size else prev, sums)


def true_range(high: np.ndarray, low: np.ndarray,
               prev_close: np.ndarray) -> np.ndarray:
    """max(high - low, |high - prev_close|, |low - prev_close|).

    A NaN previous close (the series' first day) leaves high - low.
    """
    high = np.asarray(high, dtype=np.float64)
    low = np.asarray(low, dtype=np.float64)
    hl = high - low
    hc = np.abs(high - prev_close)
    lc = np.abs(low - prev_close)
    return np.fmax(hl, np.fmax(hc, lc))  # fmax ignores NaN operands


def rolling_volatility_resume(prices: np.ndarray, window: int = 30,
                              annualise: bool = True, carry=None):
    """Trailing standard deviation of daily log returns, continued from
    ``carry`` (the last price and the deviation's running sums);
    returns ``(vol, carry)``.

    Crypto markets trade every day, so annualisation uses sqrt(365)
    rather than the equity convention of sqrt(252). A non-positive price
    has no log, so the returns next to it are NaN.
    """
    prices = np.asarray(prices, dtype=np.float64)
    prev, std_carry = carry or (None, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.concatenate(([np.nan if prev is None else prev],
                                      prices)))
    logs[~np.isfinite(logs)] = np.nan
    vol, std_carry = rolling_std_resume(logs[1:] - logs[:-1], window,
                                        std_carry)
    if annualise:
        vol = vol * np.sqrt(365.0)
    return vol, (float(prices[-1]) if prices.size else prev, std_carry)
