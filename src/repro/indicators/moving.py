"""Moving averages: SMA, EMA, WMA.

Moving averages are the backbone of the paper's technical-indicator
category — Tables 3-4 show ``EMA100_market-cap``, ``EMA200_close-price``
and friends among the top short-term driving factors.
"""

from __future__ import annotations

import numpy as np

from ..frame.ops import rolling_mean

__all__ = ["sma", "ema", "wma"]


def sma(values: np.ndarray, window: int) -> np.ndarray:
    """Simple moving average over a trailing ``window``; NaN warm-up."""
    return rolling_mean(values, window)


def ema(values: np.ndarray, span: int) -> np.ndarray:
    """Exponential moving average with smoothing ``alpha = 2/(span+1)``.

    Seeded with the first valid observation (standard convention); outputs
    before the first observation are NaN. Interior NaNs hold the previous
    EMA value (the series "coasts" through the gap). A NaN state (e.g.
    ``+inf`` followed by ``-inf``) reseeds at the next valid observation.

    The recurrence runs over Python floats from ``values.tolist()`` with
    the IEEE operation order ``alpha * x + (1 - alpha) * state``, so the
    bytes equal those of a loop over numpy scalars at a fraction of the
    interpreter cost (DESIGN.md §7, "Scalar recurrences").
    """
    if span < 1:
        raise ValueError("span must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    alpha = 2.0 / (span + 1.0)
    keep = 1.0 - alpha
    nan = float("nan")
    out = []
    state = nan
    for x in values.tolist():
        if state != state:
            state = x if x == x else nan
        elif x == x:
            state = alpha * x + keep * state
        out.append(state)
    return np.array(out, dtype=np.float64)


def wma(values: np.ndarray, window: int) -> np.ndarray:
    """Linearly-weighted moving average (most recent weighs ``window``)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.size, np.nan)
    if values.size < window:
        return out
    weights = np.arange(1, window + 1, dtype=np.float64)
    weights /= weights.sum()
    windows = np.lib.stride_tricks.sliding_window_view(values, window)
    out[window - 1:] = windows @ weights
    return out
