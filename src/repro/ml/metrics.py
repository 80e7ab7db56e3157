"""Regression metrics.

Mean squared error is the paper's sole optimisation and evaluation measure
(grid-search objective, PFI scoring, and the "performance improvement"
definition in §4.3 — the percentage decrease of MSE). R² is reported by
the per-category analysis (:mod:`repro.core.category_analysis`) and the
quickstart example.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mean_squared_error",
    "r2_score",
    "mse_improvement_pct",
]


def _validate(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.size != y_pred.size:
        raise ValueError(
            f"length mismatch: y_true has {y_true.size}, "
            f"y_pred has {y_pred.size}"
        )
    if y_true.size == 0:
        raise ValueError("metrics are undefined for empty inputs")
    if np.isnan(y_true).any() or np.isnan(y_pred).any():
        raise ValueError("metrics require NaN-free inputs")
    return y_true, y_pred


def mean_squared_error(y_true, y_pred) -> float:
    """Mean of squared residuals."""
    y_true, y_pred = _validate(y_true, y_pred)
    return float(np.mean((y_true - y_pred) ** 2))


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination, 1 - SSE/SST.

    A constant ``y_true`` (SST of zero) scores 1.0 when the predictions
    are exact and 0.0 otherwise, instead of dividing by zero.
    """
    y_true, y_pred = _validate(y_true, y_pred)
    sse = float(np.sum((y_true - y_pred) ** 2))
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if sse == 0.0 else 0.0
    return 1.0 - sse / sst


def mse_improvement_pct(mse_baseline: float, mse_improved: float) -> float:
    """Percentage decrease of MSE — the paper's "performance improvement".

    Defined as ``(mse_baseline - mse_improved) / mse_improved * 100`` so a
    baseline 10x worse than the improved model reads as 900 % improvement,
    matching the magnitudes reported in Tables 5-6 (values well above
    100 % are possible and expected).
    """
    if mse_baseline < 0 or mse_improved < 0:
        raise ValueError("MSE values must be non-negative")
    if mse_improved == 0.0:
        raise ValueError("improved MSE of zero makes improvement undefined")
    return float((mse_baseline - mse_improved) / mse_improved * 100.0)
