"""Momentum indicators: RSI, MACD, ROC, stochastic oscillator."""

from __future__ import annotations

import numpy as np

from ..frame.ops import rolling_max, rolling_min
from .moving import ema, sma

__all__ = ["rsi", "macd", "roc", "stochastic_k", "stochastic_d"]


def rsi(values: np.ndarray, window: int = 14) -> np.ndarray:
    """Relative Strength Index (Wilder's smoothing), in [0, 100].

    RSI = 100 - 100 / (1 + avg_gain / avg_loss); a flat window reads 50,
    an all-gain window reads 100, an all-loss window reads 0, and a
    series of at most ``window`` values is all NaN.

    The seed averages are numpy means; Wilder's recursion then runs over
    Python floats from ``tolist()`` in the same IEEE operation order, so
    the bytes equal those of a loop over numpy scalars (DESIGN.md §7,
    "Scalar recurrences").
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.size, np.nan)
    if values.size <= window:
        return out
    delta = np.diff(values)
    gains = np.clip(delta, 0.0, None)
    losses = np.clip(-delta, 0.0, None)
    # Wilder: first average is plain mean, then recursive smoothing.
    avg_gain = float(gains[:window].mean())
    avg_loss = float(losses[:window].mean())
    levels = [_rsi_from_averages(avg_gain, avg_loss)]
    carry = window - 1
    for gain, loss in zip(gains[window:].tolist(),
                          losses[window:].tolist()):
        avg_gain = (avg_gain * carry + gain) / window
        avg_loss = (avg_loss * carry + loss) / window
        levels.append(_rsi_from_averages(avg_gain, avg_loss))
    out[window:] = levels
    return out


def _rsi_from_averages(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0  # flat market: neutral
    if avg_loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def macd(
    values: np.ndarray,
    fast: int = 12,
    slow: int = 26,
    signal: int = 9,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MACD line, signal line, histogram.

    ``macd = EMA(fast) - EMA(slow)``; ``signal = EMA(macd, signal)``;
    ``histogram = macd - signal``.
    """
    if not fast < slow:
        raise ValueError("fast span must be shorter than slow span")
    values = np.asarray(values, dtype=np.float64)
    macd_line = ema(values, fast) - ema(values, slow)
    signal_line = ema(macd_line, signal)
    return macd_line, signal_line, macd_line - signal_line


def roc(values: np.ndarray, window: int = 10) -> np.ndarray:
    """Rate of change: percent move over ``window`` steps."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.size, np.nan)
    if values.size <= window:
        return out
    past = values[:-window]
    with np.errstate(divide="ignore", invalid="ignore"):
        change = (values[window:] - past) / np.abs(past) * 100.0
    change[~np.isfinite(change)] = np.nan
    out[window:] = change
    return out


def stochastic_k(
    close: np.ndarray,
    high: np.ndarray,
    low: np.ndarray,
    window: int = 14,
) -> np.ndarray:
    """%K: position of the close within the trailing high-low range, 0-100."""
    close = np.asarray(close, dtype=np.float64)
    hi = rolling_max(np.asarray(high, dtype=np.float64), window)
    lo = rolling_min(np.asarray(low, dtype=np.float64), window)
    span = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (close - lo) / span * 100.0
    k = np.where(span == 0, 50.0, k)
    k[np.isnan(span)] = np.nan
    return k


def stochastic_d(
    close: np.ndarray,
    high: np.ndarray,
    low: np.ndarray,
    window: int = 14,
    smooth: int = 3,
) -> np.ndarray:
    """%D: SMA of %K over ``smooth`` periods."""
    return sma(stochastic_k(close, high, low, window), smooth)
