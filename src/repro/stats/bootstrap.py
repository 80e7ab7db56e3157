"""Block-bootstrap confidence intervals for dependent series."""

from __future__ import annotations

import numpy as np

from ..ml.metrics import mean_squared_error, mse_improvement_pct

__all__ = ["improvement_ci"]


def _moving_block_indices(n: int, block: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Row indices of one moving-block-bootstrap resample of length n."""
    n_blocks = int(np.ceil(n / block))
    starts = rng.integers(0, n - block + 1, size=n_blocks)
    idx = (starts[:, None] + np.arange(block)[None, :]).ravel()
    return idx[:n]


def improvement_ci(
    y_true,
    pred_baseline,
    pred_improved,
    block: int = 20,
    n_resamples: int = 1000,
    confidence: float = 0.95,
    random_state=None,
) -> tuple[float, float, float]:
    """Bootstrap CI for the paper's MSE-decrease percentage.

    Resamples time blocks jointly from the two forecasts' errors and
    recomputes ``(MSE_base - MSE_improved) / MSE_improved * 100`` on each
    resample. Returns ``(point, lower, upper)``. Daily forecast errors
    are autocorrelated, so i.i.d. resampling would understate the
    uncertainty; the moving-block scheme resamples contiguous chunks of
    length ``block`` instead.
    """
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    pred_baseline = np.asarray(pred_baseline, dtype=np.float64).ravel()
    pred_improved = np.asarray(pred_improved, dtype=np.float64).ravel()
    if not (y_true.size == pred_baseline.size == pred_improved.size):
        raise ValueError("all inputs must have equal length")
    n = y_true.size
    if n == 0:
        raise ValueError("inputs must be non-empty")
    if not 1 <= block <= n:
        raise ValueError("block must be in [1, len(y_true)]")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(random_state)

    point = mse_improvement_pct(
        mean_squared_error(y_true, pred_baseline),
        mean_squared_error(y_true, pred_improved),
    )
    sq_base = (y_true - pred_baseline) ** 2
    sq_impr = (y_true - pred_improved) ** 2
    draws = np.empty(n_resamples)
    for i in range(n_resamples):
        idx = _moving_block_indices(n, block, rng)
        mse_b = float(sq_base[idx].mean())
        mse_i = float(sq_impr[idx].mean())
        draws[i] = ((mse_b - mse_i) / mse_i * 100.0) if mse_i > 0 else 0.0
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.percentile(draws, [100 * alpha, 100 * (1 - alpha)])
    return float(point), float(lower), float(upper)
