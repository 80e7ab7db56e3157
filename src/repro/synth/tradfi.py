"""Traditional market indices (stocks, bonds, FX, metals, dollar strength).

Each index is a diffusion driven by the latent macro factor with an
instrument-specific beta, so the family collectively encodes the
long-horizon macro signal — but one step closer to the market than the
official macro statistics (which publish with a lag; see
:mod:`repro.synth.macro`). This matches the paper's observation that
traditional indices become the second-highest contributor at long
prediction windows while official macro indicators matter less.

Column names use the paper's ``{TICKER}_Close`` convention (QQQ, UUP,
EURUSD, BSV, MBB, GLD, SPY, IEF).
"""

from __future__ import annotations

import numpy as np

from ..frame.frame import Frame
from .carry import cumsum_from
from .config import SimulationConfig
from .latent import LatentMarket
from .rng import Streams

__all__ = ["generate_tradfi", "simulate_tradfi", "TRADFI_SPECS"]

#: (ticker, initial level, macro beta, idiosyncratic vol multiplier,
#:  crypto beta). Positive macro beta = rises when macro conditions ease
#: (risk-on), negative = safe-haven / dollar-strength behaviour. The
#: crypto beta is the risk-appetite co-movement between equities and the
#: crypto market that grew through 2020-2022 — it lets traditional
#: indices carry *some* crypto-level information, which is why the paper
#: finds them a mid-pack single-category predictor (Table 6).
TRADFI_SPECS = (
    ("QQQ", 120.0, 0.045, 1.6, 0.060),   # Nasdaq-100: strongly risk-on
    ("SPY", 210.0, 0.035, 1.2, 0.045),   # S&P 500
    ("UUP", 25.0, -0.030, 0.5, -0.020),  # dollar index: counter-cyclical
    ("EURUSD", 1.10, -0.022, 0.5, 0.012),  # euro mirrors the dollar
    ("BSV", 80.0, -0.012, 0.25, 0.0),    # short-term bonds: safe haven
    ("MBB", 105.0, -0.015, 0.3, 0.0),    # mortgage-backed bonds
    ("IEF", 105.0, -0.020, 0.45, -0.008),  # 7-10y treasuries
    ("GLD", 115.0, 0.012, 0.8, 0.010),   # gold: mixed macro exposure
)


def generate_tradfi(config: SimulationConfig,
                    latent: LatentMarket) -> Frame:
    """Daily close (and derived) series for the traditional indices."""
    return simulate_tradfi(config, latent)[0]


def simulate_tradfi(config: SimulationConfig, latent: LatentMarket,
                    carry: dict | None = None):
    """:func:`generate_tradfi` over ``latent``'s days from ``carry``.

    ``latent`` covers the days after those ``carry`` was produced from
    (all of them when ``carry`` is None). Returns ``(frame, carry)``;
    the carry holds the last macro value, each index's cumulative log
    return and the streams' bit-generator states.
    """
    state = carry or {}
    streams = Streams(config.seed, state.get("streams"))
    n = latent.n_days
    macro = latent.macro
    last_macro = state.get("macro")
    macro_change = np.diff(
        macro, prepend=macro[:1] if last_macro is None else last_macro
    )

    columns: dict[str, np.ndarray] = {}
    totals = dict(state.get("log_levels", {}))
    for ticker, level0, beta, vol_mult, crypto_beta in TRADFI_SPECS:
        rng = streams.generator(f"tradfi_{ticker}")
        eps = rng.normal(scale=config.tradfi_noise * vol_mult, size=n)
        drift = 0.00012 * vol_mult  # small secular up-drift for equities
        log_ret = (
            drift + beta * macro_change * 2.0
            + crypto_beta * latent.market_log_return + eps
        )
        log_level = cumsum_from(log_ret, totals.get(ticker))
        if n:
            totals[ticker] = float(log_level[-1])
        columns[f"{ticker}_Close"] = level0 * np.exp(log_level)

    # A couple of derived cross-market series commonly used in practice.
    columns["QQQ_SPY_ratio"] = columns["QQQ_Close"] / columns["SPY_Close"]
    columns["stocks_bonds_ratio"] = (
        columns["SPY_Close"] / columns["IEF_Close"]
    )
    rng = streams.generator("tradfi_vix")
    # Volatility index: loads on negative macro conditions plus crypto vol.
    vix = 16.0 + 6.0 * np.tanh(-0.8 * macro) + 2.0 * np.abs(
        latent.market_log_return
    ) / 0.03 + rng.normal(scale=1.2, size=n)
    columns["VIX_Close"] = np.clip(vix, 9.0, 90.0)
    return Frame(latent.index, columns), {
        "streams": streams.states(),
        "macro": float(macro[-1]) if n else last_macro,
        "log_levels": totals,
    }
