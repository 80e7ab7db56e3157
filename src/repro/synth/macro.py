"""Macroeconomic indicators.

Official statistics are *lagged, low-frequency* views of the macro factor:
interest rates step at policy meetings, inflation prints monthly with a
publication delay, the policy-uncertainty index is noisy daily. Because
tradfi indices embed the same factor with no delay, tree models usually
prefer them — which reproduces the paper's finding that the macro
category only surfaces at long windows (2017 set) or not at all (2019
set, where richer competing categories exist).

The category is deliberately small (8 series): the paper lists it as
underrepresented in the original dataset (§5).
"""

from __future__ import annotations

import numpy as np

from ..frame.frame import Frame
from .config import SimulationConfig
from .latent import LatentMarket
from .rng import SeedBank

__all__ = ["generate_macro"]

_PUBLICATION_LAG = 45  # days between a macro move and its official print
_MEETING_EVERY = 42  # days between policy meetings


def generate_macro(config: SimulationConfig,
                   latent: LatentMarket) -> Frame:
    """Daily-aligned official macro series (step functions, mostly)."""
    bank = SeedBank(config.seed)
    n = latent.n_days
    macro = latent.macro
    lagged = _lag(macro, _PUBLICATION_LAG)

    # One named substream per noise draw so every array stays
    # prefix-stable under dataset extension (see repro.synth.rng).
    def sub(label: str) -> np.random.Generator:
        return bank.substream("macro_metrics", label)

    columns: dict[str, np.ndarray] = {}

    # Central-bank policy rates: step functions reacting to the factor.
    columns["fed_funds_rate"] = _policy_rate(
        lagged, base=1.0, sensitivity=-0.9, rng=sub("fed_funds")
    )
    columns["ecb_deposit_rate"] = _policy_rate(
        lagged, base=0.0, sensitivity=-0.7, rng=sub("ecb_deposit")
    )

    # Inflation (HICP-style YoY %): slow, monthly, lagged, counter to easing.
    month = _month_step_ids(n)
    inflation = 2.0 - 1.2 * _monthly_hold(lagged, month) + _monthly_hold(
        sub("hicp").normal(scale=0.15, size=n), month
    )
    columns["hicp_inflation_yoy"] = inflation
    columns["us_cpi_yoy"] = inflation + _monthly_hold(
        sub("us_cpi").normal(scale=0.2, size=n), month
    ) + 0.3

    # Policy-uncertainty index: daily, noisy, spikes when macro worsens.
    columns["policy_uncertainty_index"] = np.clip(
        110.0 - 35.0 * lagged + sub("policy_uncertainty").normal(
            scale=18.0, size=n
        ),
        20.0, None,
    )

    # Unemployment: very slow, counter-cyclical, quarterly-ish steps.
    quarter = month // 3
    columns["unemployment_rate"] = np.clip(
        4.5 - 0.8 * _monthly_hold(lagged, quarter) + _monthly_hold(
            sub("unemployment").normal(scale=0.1, size=n), quarter
        ),
        2.0, 15.0,
    )

    # 10y-2y yield-curve spread and real M2 growth: financial-conditions
    # summaries published with shorter lag.
    short_lag = _lag(macro, 10)
    columns["yield_curve_spread"] = (
        0.8 + 0.5 * short_lag + sub("yield_curve").normal(
            scale=0.05, size=n
        )
    )
    columns["m2_growth_yoy"] = (
        6.0 + 2.5 * _monthly_hold(lagged, month) + _monthly_hold(
            sub("m2").normal(scale=0.3, size=n), month
        )
    )

    return Frame(latent.index, columns)


def _lag(values: np.ndarray, days: int) -> np.ndarray:
    """Shift a series ``days`` into the future, holding the first value."""
    if days <= 0:
        return values.copy()
    out = np.empty_like(values)
    out[:days] = values[0]
    out[days:] = values[:-days]
    return out


def _month_step_ids(n: int) -> np.ndarray:
    """Approximate month ids (30-day blocks) for step-function series."""
    return np.arange(n) // 30


def _monthly_hold(values: np.ndarray, block_ids: np.ndarray) -> np.ndarray:
    """Hold each block at the value observed on its first day."""
    values = np.asarray(values, dtype=np.float64)
    change = np.ones(values.size, dtype=bool)
    change[1:] = block_ids[1:] != block_ids[:-1]
    starts = np.maximum.accumulate(np.where(change, np.arange(values.size), 0))
    return values[starts]


def _policy_rate(lagged_macro: np.ndarray, base: float, sensitivity: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Step-wise policy rate moving in 25 bp increments every ~6 weeks."""
    n = lagged_macro.size
    meetings = slice(0, n, _MEETING_EVERY)
    targets = base + sensitivity * lagged_macro[meetings] + rng.normal(
        scale=0.1, size=n
    )[meetings]
    rates = []
    rate = base
    for target in targets.tolist():
        step = min(max(round((target - rate) / 0.25), -2), 2) * 0.25
        rate = max(rate + step, -0.75)
        rates.append(rate)
    return np.repeat(np.array(rates, dtype=np.float64), _MEETING_EVERY)[:n]
