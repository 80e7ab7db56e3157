"""Helpers for simulating a range of days from a carried state.

Every generator runs over a range of days from the state the previous
range left (its *carry*), so a dataset extended by ``k`` days simulates
only those days (:func:`repro.synth.extend_raw_dataset`). The helpers
here continue the elementwise-over-history operations the generators
share with the operation order of one pass over the whole series.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cumsum_from", "lag_from", "last_value"]

_EMPTY = np.empty(0)


def cumsum_from(values: np.ndarray, total: float | None) -> np.ndarray:
    """``np.cumsum(values)`` continued from the running ``total`` of the
    values before them (None: there were none).

    Accumulates left to right like one cumsum over the whole series.
    """
    if total is None:
        return np.cumsum(values)
    return np.cumsum(np.concatenate(([total], values)))[1:]


def lag_from(values: np.ndarray, days: int, first: float | None = None,
             tail: np.ndarray = _EMPTY) -> np.ndarray:
    """Shift a series ``days`` into the future, holding its first value.

    ``tail`` holds the last values before ``values`` — at least
    ``days`` of them, or all while fewer exist — and ``first`` the
    series' first value (None when ``values`` starts the series).
    """
    n = values.size
    history = np.concatenate((tail, values))
    out = np.empty(n)
    warm = min(max(days - tail.size, 0), n)
    out[:warm] = values[0] if first is None else first
    out[warm:] = history[tail.size + warm - days:tail.size + n - days]
    return out


def last_value(values: np.ndarray, previous):
    """A path's value on its last day (``previous`` for an empty one)."""
    return float(values[-1]) if values.size else previous
