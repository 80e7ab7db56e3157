"""Walk-forward backtest engine.

Simulates a daily-rebalanced two-asset portfolio (risky index + cash)
driven by a forecast series: at each rebalance date the strategy sets a
target weight from the current price and the model's forecast;
transaction costs are charged on the traded fraction of equity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import (
    annualized_return,
    annualized_volatility,
    calmar_ratio,
    hit_rate,
    max_drawdown,
    sharpe_ratio,
    sortino_ratio,
    total_return,
)
from .strategy import Strategy

__all__ = [
    "BacktestConfig",
    "BacktestResult",
    "model_forecasts",
    "walk_forward",
]


def model_forecasts(model, features) -> np.ndarray:
    """Forecast series for :func:`walk_forward` from a fitted model.

    ``features`` holds one row per backtest day (information up to that
    day only — the caller owns the no-look-ahead alignment). Fitted tree
    ensembles predict through the flat-array kernel of
    :mod:`repro.ml.compiled`.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be 2-D (one row per day)")
    return np.asarray(model.predict(features), dtype=np.float64).ravel()


@dataclass(frozen=True)
class BacktestConfig:
    """Execution parameters of a backtest run."""

    rebalance_every: int = 7
    """Days between strategy decisions (positions held in between)."""

    cost_bps: float = 10.0
    """One-way transaction cost in basis points of traded notional."""

    initial_equity: float = 1.0

    def __post_init__(self):
        if self.rebalance_every < 1:
            raise ValueError("rebalance_every must be >= 1")
        if self.cost_bps < 0:
            raise ValueError("cost_bps must be >= 0")
        if self.initial_equity <= 0:
            raise ValueError("initial_equity must be positive")


@dataclass
class BacktestResult:
    """Equity curve plus bookkeeping of one walk-forward run."""

    equity: np.ndarray
    weights: np.ndarray
    n_trades: int
    total_costs: float
    config: BacktestConfig = field(repr=False)

    def summary(self) -> dict[str, float]:
        """All performance metrics as one dictionary."""
        return {
            "total_return": total_return(self.equity),
            "annualized_return": annualized_return(self.equity),
            "annualized_volatility": annualized_volatility(self.equity),
            "sharpe": sharpe_ratio(self.equity),
            "sortino": sortino_ratio(self.equity),
            "max_drawdown": max_drawdown(self.equity),
            "calmar": calmar_ratio(self.equity),
            "hit_rate": hit_rate(self.equity),
            "n_trades": float(self.n_trades),
            "total_costs": self.total_costs,
        }


def walk_forward(
    prices,
    forecasts=None,
    strategy: Strategy | None = None,
    config: BacktestConfig | None = None,
    *,
    model=None,
    features=None,
) -> BacktestResult:
    """Run one walk-forward backtest.

    Parameters
    ----------
    prices:
        Daily prices of the risky index over the evaluation span.
    forecasts:
        ``forecasts[t]`` is the model's prediction (made on day ``t``
        with information up to ``t``) of the price some horizon ahead.
        Same length as ``prices``; the engine never looks ahead.
    strategy:
        Maps (price, forecast) to a target weight at rebalance dates.
    config:
        Execution parameters; defaults to :class:`BacktestConfig()`.
    model, features:
        Alternative to ``forecasts``: a fitted model plus its per-day
        feature rows; the engine computes the forecast series itself via
        :func:`model_forecasts` (one batched predict, compiled-kernel
        aware). Mutually exclusive with ``forecasts``.

    Returns
    -------
    BacktestResult
        Equity sampled once per day (length ``len(prices)``), the daily
        weight path, trade count and cumulative costs.
    """
    config = config if config is not None else BacktestConfig()
    if strategy is None:
        raise ValueError("a strategy is required")
    if (model is None) != (features is None):
        raise ValueError("model and features must be passed together")
    if model is not None:
        if forecasts is not None:
            raise ValueError(
                "pass either forecasts or (model, features), not both"
            )
        forecasts = model_forecasts(model, features)
    if forecasts is None:
        raise ValueError("either forecasts or (model, features) required")
    prices = np.asarray(prices, dtype=np.float64).ravel()
    forecasts = np.asarray(forecasts, dtype=np.float64).ravel()
    if prices.size != forecasts.size:
        raise ValueError("prices and forecasts must have equal length")
    if prices.size < 2:
        raise ValueError("need at least two days to backtest")
    if (prices <= 0).any():
        raise ValueError("prices must be positive")
    if np.isnan(prices).any() or np.isnan(forecasts).any():
        raise ValueError("inputs must be NaN-free")

    n = prices.size
    equity = np.empty(n)
    weights = np.empty(n)
    equity_val = config.initial_equity
    weight = 0.0
    n_trades = 0
    total_costs = 0.0
    cost_rate = config.cost_bps / 1e4

    for t in range(n):
        if t % config.rebalance_every == 0:
            target = float(strategy.target_weight(prices[t], forecasts[t]))
            if not 0.0 <= target <= 1.0:
                raise ValueError(
                    f"strategy returned weight {target} outside [0, 1]"
                )
            traded = abs(target - weight)
            if traded > 1e-12:
                cost = equity_val * traded * cost_rate
                equity_val -= cost
                total_costs += cost
                n_trades += 1
            weight = target
        equity[t] = equity_val
        weights[t] = weight
        if t + 1 < n:
            daily_ret = prices[t + 1] / prices[t] - 1.0
            equity_val *= 1.0 + weight * daily_ret

    return BacktestResult(
        equity=equity,
        weights=weights,
        n_trades=n_trades,
        total_costs=total_costs,
        config=config,
    )
