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
from .carry import lag_from
from .config import SimulationConfig
from .latent import LatentMarket
from .rng import Streams

__all__ = ["simulate_macro"]

_EMPTY = np.empty(0)

_PUBLICATION_LAG = 45  # days between a macro move and its official print
_MEETING_EVERY = 42  # days between policy meetings


def simulate_macro(config: SimulationConfig, latent: LatentMarket,
                   carry: dict | None = None):
    """Daily-aligned official macro series (step functions, mostly)
    over ``latent``'s days from ``carry``.

    ``latent`` covers the days after those ``carry`` was produced from
    (all of them when ``carry`` is None). Returns ``(frame, carry)``;
    the carry holds the day count, the macro factor's first value and
    last :data:`_PUBLICATION_LAG` values, the policy rates, every held
    step value and the streams' bit-generator states.
    """
    state = carry or {}
    streams = Streams(config.seed, state.get("streams"))
    n = latent.n_days
    day = state.get("day", 0)
    macro = latent.macro
    first, tail = state.get("macro", (None, _EMPTY))
    lagged = lag_from(macro, _PUBLICATION_LAG, first, tail)
    new = {
        "day": day + n,
        "macro": (float(macro[0]) if first is None else first,
                  np.concatenate((tail, macro))[-_PUBLICATION_LAG:]),
    }

    # One named substream per noise draw, each drawing one value per
    # day (see repro.synth.rng).
    def sub(label: str) -> np.random.Generator:
        return streams.substream("macro_metrics", label)

    def hold(key: str, values: np.ndarray, block_ids: np.ndarray):
        """:func:`_monthly_hold` continued from the block and value
        ``key`` held on the previous day."""
        held = state.get(key)
        if held is not None:
            values = np.concatenate(([held[1]], values))
            block_ids = np.concatenate(([held[0]], block_ids))
        out = _monthly_hold(values, block_ids)
        if held is not None:
            out = out[1:]
        new[key] = (int(block_ids[-1]), float(out[-1])) if n else held
        return out

    def rate(key: str, base: float, sensitivity: float) -> np.ndarray:
        out = _policy_rate(lagged, base, sensitivity, sub(key), day,
                           state.get(key))
        new[key] = float(out[-1]) if n else state.get(key)
        return out

    columns: dict[str, np.ndarray] = {}

    # Central-bank policy rates: step functions reacting to the factor.
    columns["fed_funds_rate"] = rate("fed_funds", 1.0, -0.9)
    columns["ecb_deposit_rate"] = rate("ecb_deposit", 0.0, -0.7)

    # Inflation (HICP-style YoY %): slow, monthly, lagged, counter to easing.
    month = _month_step_ids(n, day)
    inflation = 2.0 - 1.2 * hold("lagged_month", lagged, month) + hold(
        "hicp", sub("hicp").normal(scale=0.15, size=n), month
    )
    columns["hicp_inflation_yoy"] = inflation
    columns["us_cpi_yoy"] = inflation + hold(
        "us_cpi", sub("us_cpi").normal(scale=0.2, size=n), month
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
        4.5 - 0.8 * hold("lagged_quarter", lagged, quarter) + hold(
            "unemployment", sub("unemployment").normal(scale=0.1, size=n),
            quarter,
        ),
        2.0, 15.0,
    )

    # 10y-2y yield-curve spread and real M2 growth: financial-conditions
    # summaries published with shorter lag.
    short_lag = lag_from(macro, 10, first, tail)
    columns["yield_curve_spread"] = (
        0.8 + 0.5 * short_lag + sub("yield_curve").normal(
            scale=0.05, size=n
        )
    )
    columns["m2_growth_yoy"] = (
        6.0 + 2.5 * hold("lagged_month", lagged, month) + hold(
            "m2", sub("m2").normal(scale=0.3, size=n), month
        )
    )

    new["streams"] = streams.states()
    return Frame(latent.index, columns), new


def _month_step_ids(n: int, day: int = 0) -> np.ndarray:
    """Approximate month ids (30-day blocks) for step-function series,
    for ``n`` days from day ``day``."""
    return np.arange(day, day + n) // 30


def _monthly_hold(values: np.ndarray, block_ids: np.ndarray) -> np.ndarray:
    """Hold each block at the value observed on its first day."""
    values = np.asarray(values, dtype=np.float64)
    change = np.ones(values.size, dtype=bool)
    change[1:] = block_ids[1:] != block_ids[:-1]
    starts = np.maximum.accumulate(np.where(change, np.arange(values.size), 0))
    return values[starts]


def _policy_rate(lagged_macro: np.ndarray, base: float, sensitivity: float,
                 rng: np.random.Generator, day: int = 0,
                 rate: float | None = None) -> np.ndarray:
    """Step-wise policy rate moving in 25 bp increments every ~6 weeks.

    ``lagged_macro`` starts at day ``day``; ``rate`` is the rate in
    force the day before (None on the first day, where the rate starts
    at ``base`` and the first meeting sits).
    """
    n = lagged_macro.size
    first = -day % _MEETING_EVERY
    meetings = slice(first, n, _MEETING_EVERY)
    targets = base + sensitivity * lagged_macro[meetings] + rng.normal(
        scale=0.1, size=n
    )[meetings]
    rate = base if rate is None else rate
    rates = [rate]
    for target in targets.tolist():
        step = min(max(round((target - rate) / 0.25), -2), 2) * 0.25
        rate = max(rate + step, -0.75)
        rates.append(rate)
    # Each day holds the rate set at the last meeting on or before it.
    return np.array(rates, dtype=np.float64)[
        (np.arange(n) - first) // _MEETING_EVERY + 1
    ]
