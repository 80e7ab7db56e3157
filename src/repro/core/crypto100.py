"""The Crypto100 index (§3.1.1).

The index tracks the top-100 cryptocurrencies by market capitalisation::

    Crypto100 = sum(top-100 caps) / (log10(sum(top-100 caps))) ** power

with ``power = 7`` chosen by the authors so the index is price-comparable
to Bitcoin (Figure 2). This module computes the index from a simulated
universe, exposes the scaling-factor sweep behind Figure 2, and provides
the tuning helper that picks the power minimising the average log-ratio
distance to the BTC price.
"""

from __future__ import annotations

import numpy as np

from ..frame.frame import Frame
from ..synth.market import (
    DEFAULT_POWER,
    MarketUniverse,
    crypto100_from_caps,
)

__all__ = [
    "DEFAULT_POWER",
    "crypto100_from_caps",
    "crypto100_index",
    "scaling_factor_sweep",
    "tracking_distance",
    "tune_scaling_power",
]


def crypto100_index(universe: MarketUniverse,
                    power: float = DEFAULT_POWER,
                    top_n: int = 100) -> Frame:
    """Daily Crypto100 values (plus the raw cap sums) for a universe.

    Returns a frame with columns ``crypto100``, ``top100_cap`` and
    ``total_cap`` — everything Figures 1-2 need.
    """
    top_cap = universe.top_n_cap(top_n)
    return Frame(
        universe.index,
        {
            "crypto100": crypto100_from_caps(top_cap, power),
            "top100_cap": top_cap,
            "total_cap": universe.total_cap(),
        },
    )


def tracking_distance(index_values: np.ndarray,
                      btc_price: np.ndarray) -> float:
    """Mean |log10(index / BTC price)| — orders of magnitude apart.

    The paper tunes the scaling power so the index is "directly comparable"
    to BTC; this distance is 0 when the series coincide and 1 when they
    sit an order of magnitude apart.
    """
    index_values = np.asarray(index_values, dtype=np.float64)
    btc_price = np.asarray(btc_price, dtype=np.float64)
    if index_values.size != btc_price.size:
        raise ValueError("series must have equal length")
    if index_values.size == 0:
        raise ValueError("series must be non-empty")
    if (index_values <= 0).any() or (btc_price <= 0).any():
        raise ValueError("series must be positive")
    return float(np.mean(np.abs(np.log10(index_values / btc_price))))


def scaling_factor_sweep(universe: MarketUniverse,
                         powers=(5, 6, 7, 8),
                         top_n: int = 100) -> dict[int, np.ndarray]:
    """Crypto100 series for several scaling powers (Figure 2's series)."""
    top_cap = universe.top_n_cap(top_n)
    return {
        int(p): crypto100_from_caps(top_cap, p) for p in powers
    }


def tune_scaling_power(universe: MarketUniverse,
                       powers=(4, 5, 6, 7, 8, 9),
                       top_n: int = 100) -> tuple[int, dict[int, float]]:
    """Pick the power whose index tracks the BTC price closest.

    Returns ``(best_power, {power: distance})`` — the reproduction of the
    paper's "extensive experimentation" that settled on 7.
    """
    btc_price = universe.btc["close"]
    sweep = scaling_factor_sweep(universe, powers, top_n)
    distances = {
        p: tracking_distance(series, btc_price)
        for p, series in sweep.items()
    }
    best = min(distances, key=distances.get)
    return best, distances
