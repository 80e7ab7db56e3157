"""Frame-level feature constructors.

All functions return a *new* frame holding only the engineered columns
(same index as the input), so callers can ``concat_columns`` them onto
the original frame selectively.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..frame.frame import Frame
from ..frame.ops import shift

__all__ = [
    "interaction_features",
    "lag_features",
]

_INTERACTION_OPS = ("ratio", "product", "spread")


def _resolve_columns(frame: Frame, columns) -> list[str]:
    names = list(columns) if columns is not None else frame.columns
    missing = [n for n in names if n not in frame]
    if missing:
        raise KeyError(f"columns not found: {missing}")
    if not names:
        raise ValueError("no columns selected")
    return names


def lag_features(frame: Frame, columns: Sequence[str] | None = None,
                 lags: Sequence[int] = (1, 7, 30)) -> Frame:
    """Lagged copies: ``{col}_lag{k}`` holds the value from ``k`` days ago.

    Lags must be positive — negative lags would leak the future into the
    feature matrix.
    """
    names = _resolve_columns(frame, columns)
    lags = [int(k) for k in lags]
    if not lags:
        raise ValueError("need at least one lag")
    if any(k < 1 for k in lags):
        raise ValueError("lags must be >= 1 (no look-ahead)")
    out = {}
    for name in names:
        col = frame[name]
        for k in lags:
            out[f"{name}_lag{k}"] = shift(col, k)
    return Frame(frame.index, out)


def interaction_features(frame: Frame,
                         pairs: Sequence[tuple[str, str]],
                         ops: Sequence[str] = ("ratio",)) -> Frame:
    """Pairwise interactions across columns (typically across categories).

    Supported ops: ``ratio`` (`a/b`, NaN where `b` ~ 0), ``product``, and
    ``spread`` (z-scored difference — comparable even across scales).
    Names follow ``{a}_{op}_{b}``.
    """
    if not pairs:
        raise ValueError("need at least one column pair")
    unknown = [op for op in ops if op not in _INTERACTION_OPS]
    if unknown:
        raise ValueError(
            f"unknown ops {unknown}; choose from {_INTERACTION_OPS}"
        )
    if not ops:
        raise ValueError("need at least one op")
    out = {}
    for a, b in pairs:
        if a not in frame or b not in frame:
            raise KeyError(f"pair ({a!r}, {b!r}) not in frame")
        col_a, col_b = frame[a], frame[b]
        for op in ops:
            name = f"{a}_{op}_{b}"
            if op == "ratio":
                with np.errstate(divide="ignore", invalid="ignore"):
                    values = col_a / col_b
                values = np.where(np.isfinite(values), values, np.nan)
            elif op == "product":
                values = col_a * col_b
            else:  # spread
                values = _zscore_nan(col_a) - _zscore_nan(col_b)
            out[name] = values
    return Frame(frame.index, out)


def _zscore_nan(values: np.ndarray) -> np.ndarray:
    valid = ~np.isnan(values)
    if not valid.any():
        return values.copy()
    mean = values[valid].mean()
    std = values[valid].std()
    # The constancy check is relative to the data's magnitude: a large
    # constant column can get a tiny nonzero std purely from the float
    # rounding of its mean, and dividing by it would manufacture
    # spurious +-1 scores.
    if std > 1e-12 * max(1.0, float(np.abs(values[valid]).max())):
        return (values - mean) / std
    return np.where(valid, 0.0, np.nan)
