"""Column transforms: differencing and normalisation.

Utilities used by the examples and extension analyses — differencing,
and z-scoring for scale-sensitive models.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "diff",
    "zscore",
]


def diff(values: np.ndarray, periods: int = 1) -> np.ndarray:
    """Discrete difference over ``periods`` steps; NaN warm-up."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.size, np.nan)
    if values.size > periods:
        out[periods:] = values[periods:] - values[:-periods]
    return out


def zscore(values: np.ndarray) -> np.ndarray:
    """Standardise a series to zero mean / unit std (NaN-aware).

    Constant (or all-NaN) series come back as zeros at observed points.
    The constancy check is *relative* to the data magnitude: a large
    constant array can acquire a tiny nonzero std purely from the float
    rounding of its mean, and dividing by it would manufacture spurious
    ±1 scores.
    """
    values = np.asarray(values, dtype=np.float64)
    valid = ~np.isnan(values)
    if not valid.any():
        return values.copy()
    mean = values[valid].mean()
    std = values[valid].std()
    out = values - mean
    if std > 1e-12 * max(1.0, float(np.abs(values[valid]).max())):
        out = out / std
    else:
        out[valid] = 0.0
    return out
