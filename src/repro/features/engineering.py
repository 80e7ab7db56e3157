"""Frame-level feature constructors.

All functions return a *new* frame holding only the engineered columns
(same index as the input), so callers can ``concat_columns`` them onto
the original frame selectively.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..frame.frame import Frame
from ..frame.ops import (
    rolling_max,
    rolling_mean,
    rolling_min,
    rolling_std,
    rolling_sum,
    shift,
)

__all__ = [
    "interaction_features",
    "lag_features",
    "rolling_features",
]

_ROLLING_STATS = {
    "mean": rolling_mean,
    "std": rolling_std,
    "min": rolling_min,
    "max": rolling_max,
    "sum": rolling_sum,
}

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


def rolling_features(frame: Frame, columns: Sequence[str] | None = None,
                     windows: Sequence[int] = (7, 30),
                     stats: Sequence[str] = ("mean", "std")) -> Frame:
    """Trailing-window statistics: ``{col}_roll{w}_{stat}``."""
    names = _resolve_columns(frame, columns)
    windows = [int(w) for w in windows]
    if not windows or any(w < 1 for w in windows):
        raise ValueError("windows must be positive")
    unknown = [s for s in stats if s not in _ROLLING_STATS]
    if unknown:
        raise ValueError(
            f"unknown stats {unknown}; choose from "
            f"{sorted(_ROLLING_STATS)}"
        )
    if not stats:
        raise ValueError("need at least one stat")
    out = {}
    for name in names:
        col = frame[name]
        for w in windows:
            for stat in stats:
                out[f"{name}_roll{w}_{stat}"] = _ROLLING_STATS[stat](col, w)
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
    # relative constancy check: see repro.frame.transform.zscore
    if std > 1e-12 * max(1.0, float(np.abs(values[valid]).max())):
        return (values - mean) / std
    return np.where(valid, 0.0, np.nan)
