"""Moving averages: SMA and EMA.

Moving averages are the backbone of the paper's technical-indicator
category — Tables 3-4 show ``EMA100_market-cap``, ``EMA200_close-price``
and friends among the top short-term driving factors.
"""

from __future__ import annotations

import numpy as np

from ..frame.ops import window_sums

__all__ = ["ema_resume", "sma_resume"]


def sma_resume(values: np.ndarray, window: int, carry=None):
    """Simple moving average over a trailing ``window``, continued from
    ``carry``; returns ``(means, carry)``.

    The first ``window - 1`` outputs of a series are NaN, and a window
    holding a NaN reads NaN. Inputs must not hold infinities (see
    :func:`~repro.frame.ops.window_sums`). ``carry`` holds the running
    sums after the series' earlier values (None: none yet), so a series
    fed in pieces gives the bytes of one call over the whole of it.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    if window == 1:
        # A one-value mean is the value itself; cumulative-sum
        # differences would only approximate it.
        return values.copy(), carry
    (totals, bad), carry = window_sums(values, window, carry)
    out = totals / window
    out[bad] = np.nan
    return out, carry


def ema_resume(values: np.ndarray, span: int,
               state: float | None = None) -> tuple[np.ndarray, float]:
    """Exponential moving average with smoothing ``alpha = 2/(span+1)``,
    continued from ``state``, the EMA after the series' earlier values
    (``None`` or NaN: not yet seeded). Returns ``(averages, state)``.

    Seeded with the first valid observation (standard convention); outputs
    before the first observation are NaN. Interior NaNs hold the previous
    EMA value (the series "coasts" through the gap). A NaN state (e.g.
    ``+inf`` followed by ``-inf``) reseeds at the next valid observation.
    A series fed in pieces gives the bytes of one call over the whole of
    it.

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
    state = nan if state is None else state
    for x in values.tolist():
        if state != state:
            state = x if x == x else nan
        elif x == x:
            state = alpha * x + keep * state
        out.append(state)
    return np.array(out, dtype=np.float64), state
