"""Momentum indicators: RSI, MACD, ROC, stochastic oscillator."""

from __future__ import annotations

import numpy as np

from ..frame.ops import rolling_max, rolling_min
from .moving import ema_resume, sma_resume

__all__ = [
    "macd",
    "macd_resume",
    "roc",
    "roc_resume",
    "rsi",
    "rsi_resume",
    "stochastic_d",
    "stochastic_d_resume",
    "stochastic_k",
    "stochastic_k_resume",
]


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
    return rsi_resume(values, window)[0]


def rsi_resume(values: np.ndarray, window: int = 14, carry=None):
    """:func:`rsi` continued from ``carry``; returns ``(rsi, carry)``.

    ``carry`` holds the last value, the gains and losses of the seed
    window while it is still filling, and Wilder's two averages once it
    is full, so a series fed in pieces gives the bytes of one call over
    the whole of it.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    prev, head_gains, head_losses, averages = carry or (
        None, np.empty(0), np.empty(0), None
    )
    out = np.full(values.size, np.nan)
    if values.size == 0:
        return out, carry
    if prev is not None:
        values = np.concatenate(([prev], values))
    delta = np.diff(values)
    # delta ``j`` ends at output position ``j + offset``.
    offset = out.size - delta.size
    gains = np.clip(delta, 0.0, None)
    losses = np.clip(-delta, 0.0, None)
    levels = []
    first = 0
    if averages is None:
        # Wilder: first average is plain mean, then recursive smoothing.
        first = window - head_gains.size
        head_gains = np.concatenate((head_gains, gains[:first]))
        head_losses = np.concatenate((head_losses, losses[:first]))
        if head_gains.size < window:
            return out, (float(values[-1]), head_gains, head_losses, None)
        averages = (float(head_gains.mean()), float(head_losses.mean()))
        levels.append(_rsi_from_averages(*averages))
        first -= 1
    avg_gain, avg_loss = averages
    carry_weight = window - 1
    skip = len(levels)
    for gain, loss in zip(gains[first + skip:].tolist(),
                          losses[first + skip:].tolist()):
        avg_gain = (avg_gain * carry_weight + gain) / window
        avg_loss = (avg_loss * carry_weight + loss) / window
        levels.append(_rsi_from_averages(avg_gain, avg_loss))
    out[first + offset:] = levels
    return out, (float(values[-1]), np.empty(0), np.empty(0),
                 (avg_gain, avg_loss))


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
    return macd_resume(values, fast, slow, signal)[0]


def macd_resume(values: np.ndarray, fast: int = 12, slow: int = 26,
                signal: int = 9, carry=None):
    """:func:`macd` continued from ``carry``, the states of its three
    EMAs; returns ``((macd, signal, histogram), carry)``."""
    if not fast < slow:
        raise ValueError("fast span must be shorter than slow span")
    fast_state, slow_state, signal_state = carry or (None, None, None)
    fast_ema, fast_state = ema_resume(values, fast, fast_state)
    slow_ema, slow_state = ema_resume(values, slow, slow_state)
    macd_line = fast_ema - slow_ema
    signal_line, signal_state = ema_resume(macd_line, signal, signal_state)
    return ((macd_line, signal_line, macd_line - signal_line),
            (fast_state, slow_state, signal_state))


def roc(values: np.ndarray, window: int = 10) -> np.ndarray:
    """Rate of change: percent move over ``window`` steps."""
    return roc_resume(values, window)[0]


def roc_resume(values: np.ndarray, window: int = 10,
               tail: np.ndarray | None = None):
    """:func:`roc` continued from ``tail``, the series' last ``window``
    earlier values; returns ``(roc, tail)``."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    tail = np.empty(0) if tail is None else tail
    history = np.concatenate((tail, values))
    out = np.full(values.size, np.nan)
    # Until ``window`` values are known the tail holds all of them.
    first = window - tail.size
    if first < values.size:
        past = history[:history.size - window]
        with np.errstate(divide="ignore", invalid="ignore"):
            change = (values[first:] - past) / np.abs(past) * 100.0
        change[~np.isfinite(change)] = np.nan
        out[first:] = change
    return out, history[-window:]


def stochastic_k(
    close: np.ndarray,
    high: np.ndarray,
    low: np.ndarray,
    window: int = 14,
) -> np.ndarray:
    """%K: position of the close within the trailing high-low range, 0-100."""
    return stochastic_k_resume(close, high, low, window)[0]


def stochastic_k_resume(close: np.ndarray, high: np.ndarray,
                        low: np.ndarray, window: int = 14, tails=None):
    """:func:`stochastic_k` continued from ``tails``, the last
    ``window - 1`` earlier highs and lows; returns ``(k, tails)``.

    A window's extremum is one of its values whatever the scan order, so
    the block scans over the tail and the new rows give the same bytes.
    """
    close = np.asarray(close, dtype=np.float64)
    high_tail, low_tail = tails or (np.empty(0), np.empty(0))
    highs = np.concatenate((high_tail, np.asarray(high, dtype=np.float64)))
    lows = np.concatenate((low_tail, np.asarray(low, dtype=np.float64)))
    hi = rolling_max(highs, window)[high_tail.size:]
    lo = rolling_min(lows, window)[low_tail.size:]
    span = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (close - lo) / span * 100.0
    k = np.where(span == 0, 50.0, k)
    k[np.isnan(span)] = np.nan
    keep = max(window - 1, 0)
    return k, (highs[highs.size - keep:], lows[lows.size - keep:])


def stochastic_d(
    close: np.ndarray,
    high: np.ndarray,
    low: np.ndarray,
    window: int = 14,
    smooth: int = 3,
) -> np.ndarray:
    """%D: SMA of %K over ``smooth`` periods."""
    return stochastic_d_resume(close, high, low, window, smooth)[0]


def stochastic_d_resume(close: np.ndarray, high: np.ndarray,
                        low: np.ndarray, window: int = 14, smooth: int = 3,
                        carry=None):
    """:func:`stochastic_d` continued from ``carry`` (the tails of %K
    and the running sums of its SMA); returns ``(d, carry)``."""
    k_carry, sums = carry or (None, None)
    k, k_carry = stochastic_k_resume(close, high, low, window, k_carry)
    d, sums = sma_resume(k, smooth, sums)
    return d, (k_carry, sums)
