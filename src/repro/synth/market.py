"""Asset universe: market caps for N assets and BTC OHLCV.

The Crypto100 index (the paper's forecasting target) needs a daily list
of the top-100 market caps out of a wider universe, with realistic churn
in the membership. Each asset's log market cap follows the aggregate
market with its own beta plus an idiosyncratic random walk; the random
walks produce rank churn just like the maturing real market.

BTC is asset 0 with beta ~1 and a dominant initial cap; its OHLCV frame
feeds the technical-indicator suite and the on-chain generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frame.frame import Frame
from ..frame.index import DateIndex
from .config import SimulationConfig
from .latent import LatentMarket
from .rng import Streams

__all__ = [
    "DEFAULT_POWER",
    "MarketUniverse",
    "crypto100_from_caps",
    "generate_universe",
    "simulate_universe",
]

#: The Crypto100 scaling-factor exponent (§3.1.1).
DEFAULT_POWER = 7

_GENESIS_SUPPLY = 16.0e6  # BTC circulating at simulation start (≈2016)
_DAILY_ISSUANCE = 900.0   # ≈144 blocks/day * 6.25, halving ignored intraday


def _btc_supply(day: int, n_days: int, issued: float | None):
    """Deterministic circulating-supply path with decaying issuance,
    over days ``day .. day + n_days - 1``.

    Approximates the halving schedule with a smooth exponential decay of
    daily issuance (halving every ~4 years), which preserves the property
    the stock-to-flow metrics need: supply grows, issuance shrinks.
    ``issued`` is the issuance accumulated through day ``day - 1`` (None
    when ``day`` is 0); returns ``(supply, issued)`` for the next call.
    """
    if n_days == 0:
        return np.empty(0, dtype=np.float64), issued
    t = np.arange(day, day + n_days, dtype=np.float64)
    issuance = _DAILY_ISSUANCE * 0.5 ** (t / 1460.0)
    running = np.cumsum(issuance) if issued is None else \
        np.cumsum(np.concatenate(([issued], issuance)))[1:]
    before = np.concatenate(
        ([0.0 if issued is None else issued], running[:-1])
    )
    return _GENESIS_SUPPLY + before, float(running[-1])


def crypto100_from_caps(top100_cap: np.ndarray,
                        power: float = DEFAULT_POWER) -> np.ndarray:
    """Apply the Crypto100 formula to a summed top-100 cap series::

        Crypto100 = sum(top-100 caps) / (log10(sum(top-100 caps))) ** power
    """
    top100_cap = np.asarray(top100_cap, dtype=np.float64)
    if (top100_cap <= 0).any():
        raise ValueError("market capitalisation must be positive")
    scaling = np.log10(top100_cap) ** power
    return top100_cap / scaling


@dataclass(frozen=True)
class MarketUniverse:
    """Daily market caps for the asset universe plus BTC market data."""

    index: DateIndex
    names: list[str]
    caps: np.ndarray        # (n_days, n_assets) market caps in USD
    btc: Frame              # open/high/low/close/volume/market_cap
    btc_supply: np.ndarray  # circulating BTC per day

    @property
    def n_assets(self) -> int:
        """Number of assets in the universe."""
        return int(self.caps.shape[1])

    def total_cap(self) -> np.ndarray:
        """Total market capitalisation across the whole universe."""
        return self.caps.sum(axis=1)

    def top_n_cap(self, n: int = 100) -> np.ndarray:
        """Summed cap of the daily top-``n`` assets (Fig. 1 numerator)."""
        if not 0 < n <= self.n_assets:
            raise ValueError(f"n must be in 1..{self.n_assets}")
        # partition is O(a) per day and avoids a full sort
        part = np.partition(self.caps, self.caps.shape[1] - n, axis=1)
        return part[:, -n:].sum(axis=1)

    def top_n_mask(self, n: int = 100) -> np.ndarray:
        """Boolean (n_days, n_assets) membership of the daily top-``n``."""
        ranks = np.argsort(np.argsort(-self.caps, axis=1), axis=1)
        return ranks < n


def generate_universe(config: SimulationConfig,
                      latent: LatentMarket) -> MarketUniverse:
    """Sample the asset universe consistent with the latent market."""
    return simulate_universe(config, latent)[0]


def simulate_universe(config: SimulationConfig, latent: LatentMarket,
                      carry: dict | None = None):
    """Sample the universe over ``latent``'s days from ``carry``.

    ``latent`` covers the days after those ``carry`` was produced from
    (all of them when ``carry`` is None). Returns ``(universe, carry)``;
    the carry holds the assets' static parameters, the last row of the
    idiosyncratic random walks, the last close and log close, the
    issuance so far and the streams' bit-generator states.
    """
    state = carry or {}
    streams = Streams(config.seed, state.get("streams"))
    rng = streams.generator("universe")
    n_days = latent.n_days
    n_assets = config.n_assets
    day = state.get("day", 0)

    # --- per-asset static parameters -----------------------------------
    names = ["BTC"] + [f"ALT{i:03d}" for i in range(1, n_assets)]
    if carry is None:
        betas = np.concatenate(
            ([1.0], rng.uniform(0.80, 1.20, size=n_assets - 1))
        )
        idio_vol = np.concatenate(
            ([0.004], rng.uniform(0.008, 0.03, size=n_assets - 1))
        )
        # Zipf-like initial caps: BTC dominant, long tail of small alts.
        ranks = np.arange(1, n_assets)
        alt_caps0 = 4.0e9 / ranks**1.1 * np.exp(
            rng.normal(0, 0.35, size=n_assets - 1)
        )
        log_caps0 = np.log(np.concatenate(([1.5e10], alt_caps0)))
    else:
        betas, idio_vol, log_caps0 = state["assets"]

    # --- cap paths ------------------------------------------------------
    idio = rng.normal(size=(n_days, n_assets)) * idio_vol
    if carry is None:
        idio[0] = 0.0
        walk = np.cumsum(idio, axis=0)
    else:
        walk = np.cumsum(
            np.concatenate((state["walk"][None, :], idio)), axis=0
        )[1:]
    log_caps = (
        log_caps0[None, :]
        + latent.market_log_level[:, None] * betas[None, :]
        + walk
    )
    caps = np.exp(log_caps)

    supply, issued = _btc_supply(day, n_days, state.get("issued"))
    btc, last_close = _btc_frame(latent, caps[:, 0], supply, streams,
                                 state.get("close"))
    universe = MarketUniverse(
        index=latent.index,
        names=names,
        caps=caps,
        btc=btc,
        btc_supply=supply,
    )
    return universe, {
        "day": day + n_days,
        "streams": streams.states(),
        "assets": (betas, idio_vol, log_caps0),
        "walk": walk[-1].copy() if n_days else state.get("walk"),
        "issued": issued,
        "close": last_close,
    }


def _btc_frame(latent: LatentMarket, btc_cap: np.ndarray,
               supply: np.ndarray, streams: Streams,
               prev: tuple[float, float] | None):
    """Derive BTC OHLCV + market cap from its cap path.

    ``prev`` is the previous day's close and log close (None on the
    first day); returns the frame and this path's last pair. One
    substream per noise draw, so each stream draws once per day (see
    :mod:`repro.synth.rng`).
    """
    n = btc_cap.size
    close = btc_cap / supply
    log_close = np.log(close)

    open_ = np.empty(n)
    if n:
        open_[0] = close[0] if prev is None else prev[0]
    open_[1:] = close[:-1]
    intraday = np.abs(
        streams.substream("btc_ohlcv", "intraday").normal(scale=0.012, size=n)
    )
    high = np.maximum(open_, close) * (1.0 + intraday)
    low = np.minimum(open_, close) * (1.0 - intraday)

    # Volume scales with cap, spikes with |returns| and crash regimes.
    abs_ret = np.abs(np.diff(
        log_close, prepend=log_close[:1] if prev is None else prev[1]
    ))
    turnover = 0.02 + 1.5 * abs_ret + 0.015 * (latent.regimes == 3)
    volume = btc_cap * turnover * np.exp(
        streams.substream("btc_ohlcv", "volume").normal(0, 0.15, size=n)
    )

    frame = Frame(
        latent.index,
        {
            "open": open_,
            "high": high,
            "low": low,
            "close": close,
            "volume": volume,
            "market_cap": btc_cap,
        },
    )
    return frame, (float(close[-1]), float(log_close[-1])) if n else prev
