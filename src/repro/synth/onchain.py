"""On-chain metric generators for BTC and USDC.

The paper's on-chain category comes from Coinmetrics' community API; here
every metric is derived structurally from the latent market state so that
the *information content* matches what the paper measures:

* address-count and supply-distribution families
  (``AdrBal...Cnt``, ``SplyAdrBal...``) are functions of the adoption
  curve and a slow wealth-concentration process → they encode the
  long-run drivers, which is why the paper finds supply/balance dynamics
  dominating long-term predictions (Table 3);
* activity metrics (``SplyActPct1yr``, ``VelCur1yr``, ``TxCnt``...)
  track trailing market turnover → mixed horizons;
* miner metrics (``RevAllTimeUSD``, ``RevHashRateUSD``...) follow price
  and the deterministic issuance schedule;
* USDC metrics are views of the stablecoin *flow* process — the latent
  medium/long-horizon driver — so ``usdc_SplyCur`` and friends carry the
  strong long-window signal the paper reports (Figure 4).

Metric names follow the paper's Table 2 conventions exactly, so the
result tables of the reproduction read like the paper's.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..frame.frame import Frame
from ..frame.index import as_ordinal
from .carry import cumsum_from, last_value
from .config import SimulationConfig
from .latent import LatentMarket
from .market import MarketUniverse
from .rng import Streams

__all__ = [
    "simulate_btc_onchain",
    "simulate_eth_onchain",
    "simulate_usdc_onchain",
    "BTC_USD_THRESHOLDS",
    "BTC_NTV_THRESHOLDS",
    "ONE_IN_THRESHOLDS",
]

#: Balance thresholds for the ``...USD#...`` metric families.
BTC_USD_THRESHOLDS = ("1", "10", "100", "1K", "10K", "100K", "1M", "10M")
#: Balance thresholds for the ``...Ntv#...`` metric families.
BTC_NTV_THRESHOLDS = ("0.001", "0.01", "0.1", "1", "10", "100", "1K", "10K")
#: Ownership-share thresholds for the ``...1in#...`` families.
ONE_IN_THRESHOLDS = ("10K", "100K", "1M", "10M", "100M", "1B", "10B")

_SUFFIX_VALUE = {
    "0.001": 0.001, "0.01": 0.01, "0.1": 0.1, "1": 1.0, "10": 10.0,
    "100": 100.0, "1K": 1e3, "10K": 1e4, "100K": 1e5, "1M": 1e6,
    "10M": 1e7, "100M": 1e8, "1B": 1e9, "10B": 1e10,
}


_EMPTY = np.empty(0)


def _suffix_value(suffix: str) -> float:
    return _SUFFIX_VALUE[suffix]


def _trailing_mean(values: np.ndarray, window: int, carry=None):
    """Rolling mean with an expanding-window warm-up (no NaN head).

    ``carry`` is what the call over the series' earlier values returned:
    their count and the last ``window`` running sums. Returns
    ``(mean, carry)``.
    """
    values = np.asarray(values, dtype=np.float64)
    count, tail = carry or (0, _EMPTY)
    csum = cumsum_from(values, float(tail[-1]) if count else None)
    running = np.concatenate((tail, csum))  # running[j]: sum to day j + base
    base = count - tail.size
    n = values.size
    out = np.empty_like(values)
    # expanding head
    head = min(max(window - count, 0), n)
    out[:head] = csum[:head] / np.arange(count + 1, count + head + 1)
    if head < n:
        out[head:] = (
            csum[head:]
            - running[count + head - window - base:count + n - window - base]
        ) / window
    return out, (count + n, running[-window:])


def _concentration_path(n: int, rng: np.random.Generator,
                        state: float = 1.55) -> np.ndarray:
    """Pareto tail index of the wealth distribution (slowly drifting).

    Lower alpha = more concentrated wealth. Starts ~1.55 (retail heavy)
    and drifts down as larger holders accumulate — the effect the paper
    reads from the growing importance of ``fish_pct`` / ``SplyAdrBalUSD10K``
    in the 2019 set. ``state`` is the previous day's value.
    """
    noise = rng.normal(scale=0.0018, size=n)
    out = []
    for e in noise.tolist():
        # gentle mean reversion toward 1.20 plus a slow secular decline
        state += -0.0002 * (state - 1.20) - 0.00008 + e
        state = min(max(state, 1.12), 1.9)
        out.append(state)
    return np.array(out, dtype=np.float64)


def _address_count_fraction(threshold: float, scale: float,
                            alpha: np.ndarray) -> np.ndarray:
    """Fraction of addresses with balance >= threshold (Pareto tail)."""
    x = np.maximum(threshold / scale, 1.0)
    return x ** (-alpha)


def _nest(raw: np.ndarray, prev: np.ndarray | None,
          ufunc=np.minimum) -> np.ndarray:
    """Clip a threshold-family member against its predecessor.

    Count/supply families are nested by construction (a higher balance
    threshold can never contain *more* addresses or supply), but
    independent observation noise could violate the ordering where the
    Pareto fractions are close. Elementwise clipping keeps the nesting
    structural — and, being elementwise, the same for any range of days.
    """
    return raw if prev is None else ufunc(raw, prev)


def _supply_fraction_above(threshold: float, scale: float,
                           alpha: np.ndarray) -> np.ndarray:
    """Fraction of supply held in addresses with balance >= threshold.

    For a Pareto(alpha, xm) wealth distribution the supply share above
    balance x is (x/xm)^(1-alpha) (alpha > 1), clipped to [0, 1].
    """
    x = np.maximum(threshold / scale, 1.0)
    return np.clip(x ** (1.0 - alpha), 0.0, 1.0)


def simulate_btc_onchain(config: SimulationConfig, latent: LatentMarket,
                         universe: MarketUniverse, carry: dict | None = None):
    """All BTC on-chain metrics as one frame over ``latent``'s days from
    ``carry``.

    ``latent`` and ``universe`` cover the days after those ``carry`` was
    produced from (all of them when ``carry`` is None). Returns
    ``(frame, carry)``: the carry holds the concentration AR state, the
    trailing-mean windows, the EMA and cumulative-sum states, the ROI
    windows, the first price, the last supply and the streams'
    bit-generator states.
    """
    state = carry or {}
    new: dict = {}
    streams = Streams(config.seed, state.get("streams"))
    n = latent.n_days
    noise = config.onchain_noise
    draw = itertools.count()

    def obs(scale: float = 1.0) -> np.ndarray:
        """Multiplicative lognormal observation noise.

        Each call draws from its own numbered substream (the call order
        is deterministic), one value per day (see
        :mod:`repro.synth.rng`).
        """
        rng = streams.substream("onchain_btc", f"obs{next(draw)}")
        return np.exp(rng.normal(scale=noise * scale, size=n))

    btc = universe.btc
    price = btc["close"]
    cap = btc["market_cap"]
    supply = universe.btc_supply
    adoption = latent.adoption
    alpha = _concentration_path(n, streams.generator("btc_concentration"),
                                state.get("alpha", 1.55))
    new["alpha"] = last_value(alpha, state.get("alpha"))

    columns: dict[str, np.ndarray] = {}

    # --- population & activity scale -----------------------------------
    total_addresses = 1.2e7 * np.exp(1.9 * adoption) * obs()
    abs_ret = np.abs(latent.market_log_return)
    turnover, new["turnover"] = _trailing_mean(abs_ret, 30,
                                               state.get("turnover"))
    activity = (
        0.5 * turnover / 0.02
        + 0.25 * np.abs(latent.sentiment) / 1.5
        + 0.5
    )

    # --- address-count families -----------------------------------------
    mean_balance_ntv = supply / total_addresses * 2.0
    mean_balance_usd = mean_balance_ntv * price
    prev = None
    for suffix in BTC_USD_THRESHOLDS:
        frac = _address_count_fraction(
            _suffix_value(suffix), mean_balance_usd, alpha
        )
        prev = _nest(total_addresses * frac * obs(), prev)
        columns[f"AdrBalUSD{suffix}Cnt"] = prev
    prev = None
    for suffix in BTC_NTV_THRESHOLDS:
        frac = _address_count_fraction(
            _suffix_value(suffix), mean_balance_ntv, alpha
        )
        prev = _nest(total_addresses * frac * obs(), prev)
        columns[f"AdrBalNtv{suffix}Cnt"] = prev
    # 1in# thresholds *shrink* as the suffix grows, so counts grow.
    prev = None
    for suffix in ONE_IN_THRESHOLDS:
        threshold_ntv = supply / _suffix_value(suffix)
        frac = _address_count_fraction(
            1.0, mean_balance_ntv / threshold_ntv, alpha
        )
        prev = _nest(total_addresses * frac * obs(), prev, np.maximum)
        columns[f"AdrBal1in{suffix}Cnt"] = prev

    # --- supply-distribution families ------------------------------------
    prev = None
    for suffix in BTC_USD_THRESHOLDS:
        frac = _supply_fraction_above(
            _suffix_value(suffix), mean_balance_usd, alpha
        )
        prev = _nest(supply * frac * obs(), prev)
        columns[f"SplyAdrBalUSD{suffix}"] = prev
    prev = None
    for suffix in BTC_NTV_THRESHOLDS:
        frac = _supply_fraction_above(
            _suffix_value(suffix), mean_balance_ntv, alpha
        )
        prev = _nest(supply * frac * obs(), prev)
        columns[f"SplyAdrBalNtv{suffix}"] = prev
    prev = None
    for suffix in ONE_IN_THRESHOLDS:
        threshold_ntv = supply / _suffix_value(suffix)
        frac = _supply_fraction_above(
            1.0, mean_balance_ntv / threshold_ntv, alpha
        )
        prev = _nest(supply * frac * obs(), prev, np.maximum)
        columns[f"SplyAdrBal1in{suffix}"] = prev

    top1_share = np.clip(0.88 - 0.28 * (alpha - 1.12), 0.2, 0.95)
    columns["SplyAdrTop1Pct"] = supply * top1_share * obs()
    columns["SplyAdrTop10Pct"] = supply * np.clip(
        top1_share + 0.12, 0.0, 0.99
    ) * obs()

    # --- supply activity --------------------------------------------------
    act_windows = {
        "30d": 30, "90d": 90, "180d": 180, "1yr": 365,
        "2yr": 730, "3yr": 1095,
    }
    base_act = np.clip(0.0035 * activity, 0.0, 0.05)  # daily P(coin moves)
    for label, window in act_windows.items():
        pct = 1.0 - np.exp(-base_act * window * 0.55)
        columns[f"SplyAct{label}"] = supply * pct * obs(0.5)
    columns["SplyActPct1yr"] = (
        (1.0 - np.exp(-base_act * 365 * 0.55)) * 100.0 * obs(0.5)
    )
    columns["SplyActEver"] = supply * np.clip(
        0.80 + 0.04 * adoption, 0.0, 0.99
    ) * obs(0.3)
    columns["SplyCur"] = supply * obs(0.05)
    columns["SplyMiner0HopAllUSD"] = (
        supply * 0.09 * np.exp(-0.15 * adoption) * price * obs()
    )

    # --- capitalisation metrics -------------------------------------------
    realized = _ema_like(cap, 200, state.get("realized"))
    new["realized"] = last_value(realized, state.get("realized"))
    columns["CapRealUSD"] = realized * obs(0.3)
    columns["CapMrktFFUSD"] = cap * 0.82 * obs(0.2)
    columns["CapAct1yrUSD"] = (
        price * supply * (1.0 - np.exp(-base_act * 365 * 0.55)) * obs(0.5)
    )
    columns["market_cap"] = cap * obs(0.05)

    # --- miner economics ----------------------------------------------------
    if "supply" in state:
        issuance = np.diff(supply, prepend=state["supply"])
    else:
        issuance = np.diff(supply, prepend=supply[0])
        issuance[0] = issuance[1] if n > 1 else 900.0
    new["supply"] = last_value(supply, state.get("supply"))
    fee_rate = 0.0006 * activity
    fees = btc["volume"] * fee_rate * obs()
    rev = issuance * price + fees
    columns["FeeTotUSD"] = fees
    columns["RevUSD"] = rev * obs(0.3)
    pre_sim_revenue = 2.0e9
    revenue = cumsum_from(rev, state.get("revenue"))
    new["revenue"] = last_value(revenue, state.get("revenue"))
    columns["RevAllTimeUSD"] = pre_sim_revenue + revenue
    price_trend = _ema_like(price, 90, state.get("price_trend"))
    new["price_trend"] = last_value(price_trend, state.get("price_trend"))
    new["price0"] = state.get("price0", float(price[0]))
    hash_rate = 3.0e7 * np.exp(0.9 * adoption) * (
        price_trend / new["price0"]
    ) ** 0.6 * obs()
    columns["HashRate"] = hash_rate
    columns["RevHashRateUSD"] = rev / hash_rate * obs(0.5)

    # --- economic ratios ------------------------------------------------------
    transfer_value = cap * 0.01 * activity * obs()
    columns["TxTfrValAdjUSD"] = transfer_value
    columns["TxCnt"] = 2.4e5 * np.exp(0.9 * adoption) * activity * obs()
    columns["AdrActCnt"] = (
        total_addresses * 0.02 * activity * obs()
    )
    transfer_mean, new["transfer"] = _trailing_mean(
        transfer_value, 365, state.get("transfer"))
    columns["VelCur1yr"] = (
        transfer_mean * 365.0 / np.maximum(cap, 1.0)
    ) * obs(0.5)
    with np.errstate(divide="ignore"):
        columns["NVTAdj"] = cap / np.maximum(transfer_value, 1.0)
    columns["s2f_ratio"] = supply / np.maximum(issuance * 365.0, 1e-9)
    columns["ROI1yr"], new["roi365"] = _trailing_roi(
        price, 365, state.get("roi365"))
    columns["ROI30d"], new["roi30"] = _trailing_roi(
        price, 30, state.get("roi30"))

    # --- exchange flows ----------------------------------------------------
    # Deposits/withdrawals to exchange-tagged addresses observe the
    # market-wide capital-flow driver directly on the BTC chain (real
    # Coinmetrics publishes the same family). This is the fundamental
    # signal that makes BTC on-chain almost self-sufficient — the paper's
    # Table 6 finding that this category benefits least from diversity.
    flow_sig = latent.flows
    gross = supply * 0.004 * (1.0 + 0.4 * activity)
    inflow = gross * np.exp(0.25 * flow_sig) * obs(0.5)
    outflow = gross * np.exp(-0.25 * flow_sig) * obs(0.5)
    columns["FlowInExUSD"] = inflow * price
    columns["FlowOutExUSD"] = outflow * price
    columns["FlowNetExUSD"] = (inflow - outflow) * price
    columns["FlowInExNtv"] = inflow
    columns["FlowOutExNtv"] = outflow
    # Exchange balance integrates net flows (scaled down, mean-reverting).
    net_flow = cumsum_from(np.tanh(flow_sig) * 0.05, state.get("net_flow"))
    new["net_flow"] = last_value(net_flow, state.get("net_flow"))
    ex_balance = 0.12 * supply * np.exp(0.02 * net_flow) * obs(0.3)
    columns["SplyExNtv"] = ex_balance
    columns["SplyExPct"] = ex_balance / supply * 100.0

    # SER: supply held by tiny addresses over supply of the top 1 %.
    tiny_threshold = supply / 1.0e7
    tiny_frac = 1.0 - _supply_fraction_above(
        1.0, mean_balance_ntv / tiny_threshold, alpha
    )
    columns["SER"] = np.clip(
        tiny_frac / np.maximum(top1_share, 1e-6), 0.0, 10.0
    ) * obs(0.5)

    # --- holder cohorts ----------------------------------------------------
    shrimp = 1.0 - _address_count_fraction(10.0, mean_balance_ntv, alpha)
    fish = (
        _address_count_fraction(10.0, mean_balance_ntv, alpha)
        - _address_count_fraction(100.0, mean_balance_ntv, alpha)
    )
    columns["shrimps_pct"] = np.clip(shrimp * obs(0.2), 0, 1)
    columns["fish_pct"] = np.clip(fish * obs(0.2), 0, 1)
    columns["whales_pct"] = np.clip(
        _address_count_fraction(1000.0, mean_balance_ntv, alpha) * obs(0.2),
        0, 1,
    )
    columns["total_balance"] = supply * np.clip(
        0.60 + 0.05 * (1.9 - alpha), 0, 1
    ) * obs(0.2)

    new["streams"] = streams.states()
    return Frame(latent.index, columns), new


def simulate_usdc_onchain(config: SimulationConfig, latent: LatentMarket,
                          universe: MarketUniverse,
                          carry: dict | None = None):
    """All USDC on-chain metrics (NaN before ``config.usdc_start``) over
    ``latent``'s days from ``carry``; returns ``(frame, carry)`` (see
    :func:`simulate_btc_onchain`).

    The stablecoin's supply integrates the latent flow process, so these
    columns are the cleanest observable of the medium/long-horizon driver.
    """
    state = carry or {}
    new: dict = {}
    streams = Streams(config.seed, state.get("streams"))
    n = latent.n_days
    noise = config.onchain_noise
    draw = itertools.count()

    def obs(scale: float = 1.0) -> np.ndarray:
        # One numbered substream per call, one value per day.
        rng = streams.substream("onchain_usdc", f"obs{next(draw)}")
        return np.exp(rng.normal(scale=noise * scale, size=n))

    flows = latent.flows
    # Supply integrates flows: growth when capital enters the market.
    growth = cumsum_from(0.0022 * flows + 0.0016, state.get("growth"))
    new["growth"] = last_value(growth, state.get("growth"))
    log_supply = np.log(2.5e8) + growth
    supply = np.exp(np.clip(log_supply, None, np.log(6e10)))
    new["supply0"] = supply0 = state.get("supply0", float(supply[0]))

    alpha = _concentration_path(n, streams.generator("usdc_concentration"),
                                state.get("alpha", 1.55))
    new["alpha"] = last_value(alpha, state.get("alpha"))
    alpha = alpha - 0.12  # stablecoin wealth is more institutional

    total_addresses = 3.0e5 * (supply / supply0) ** 0.8 * obs()
    mean_balance = supply / total_addresses * 2.0

    columns: dict[str, np.ndarray] = {}
    usd_thresholds = ("1", "10", "100", "1K", "10K", "100K", "1M", "10M")
    prev = prev_ntv = None
    for suffix in usd_thresholds:
        frac = _address_count_fraction(
            _suffix_value(suffix), mean_balance, alpha
        )
        prev = _nest(total_addresses * frac * obs(), prev)
        columns[f"usdc_AdrBalUSD{suffix}Cnt"] = prev
        # USDC trades at $1: native == USD thresholds, but published as a
        # separate Coinmetrics series with its own sampling noise.
        prev_ntv = _nest(prev * obs(0.3), prev_ntv)
        columns[f"usdc_AdrBalNtv{suffix}Cnt"] = prev_ntv
    prev = None
    for suffix in ("10K", "100K", "1M", "10M", "100M"):
        threshold = supply / _suffix_value(suffix)
        frac = _address_count_fraction(1.0, mean_balance / threshold, alpha)
        prev = _nest(total_addresses * frac * obs(), prev, np.maximum)
        columns[f"usdc_AdrBal1in{suffix}Cnt"] = prev

    prev = prev_ntv = None
    for suffix in usd_thresholds:
        frac = _supply_fraction_above(
            _suffix_value(suffix), mean_balance, alpha
        )
        prev = _nest(supply * frac * obs(), prev)
        columns[f"usdc_SplyAdrBalUSD{suffix}"] = prev
        prev_ntv = _nest(prev * obs(0.3), prev_ntv)
        columns[f"usdc_SplyAdrBalNtv{suffix}"] = prev_ntv
    prev = None
    for suffix in ("0.001", "0.01", "0.1"):
        frac = _supply_fraction_above(
            _suffix_value(suffix), mean_balance, alpha
        )
        prev = _nest(supply * frac * obs(), prev)
        columns[f"usdc_SplyAdrBalNtv{suffix}"] = prev
    prev = None
    for suffix in ("10K", "100K", "1M", "10M", "100M"):
        threshold = supply / _suffix_value(suffix)
        frac = _supply_fraction_above(1.0, mean_balance / threshold, alpha)
        prev = _nest(supply * frac * obs(), prev, np.maximum)
        columns[f"usdc_SplyAdrBal1in{suffix}"] = prev

    # Activity: stablecoins churn when capital moves either direction.
    intensity = np.abs(flows)
    intensity_mean, new["intensity"] = _trailing_mean(
        intensity, 14, state.get("intensity"))
    act = np.clip(0.05 + 0.08 * intensity_mean, 0.0, 0.6)
    for label, window in (
        ("7d", 7), ("30d", 30), ("90d", 90), ("1yr", 365),
        ("2yr", 730), ("3yr", 1095),
    ):
        pct = 1.0 - np.exp(-act * window * 0.5)
        columns[f"usdc_SplyAct{label}"] = supply * pct * obs(0.5)
    columns["usdc_SplyActPct1yr"] = (
        (1.0 - np.exp(-act * 365 * 0.5)) * 100.0 * obs(0.5)
    )
    columns["usdc_SplyActEver"] = supply * 0.97 * obs(0.1)
    columns["usdc_SplyCur"] = supply * obs(0.05)
    columns["usdc_CapMrktFFUSD"] = supply * 0.95 * obs(0.1)
    columns["usdc_CapAct1yrUSD"] = (
        supply * (1.0 - np.exp(-act * 365 * 0.5)) * obs(0.5)
    )

    transfer = supply * act * 1.5 * obs()
    columns["usdc_TxTfrValAdjUSD"] = transfer
    columns["usdc_TxCnt"] = 3.0e4 * (supply / supply0) ** 0.9 * (
        0.5 + act
    ) * obs()
    columns["usdc_AdrActCnt"] = total_addresses * 0.05 * (0.5 + act) * obs()
    transfer_mean, new["transfer"] = _trailing_mean(
        transfer, 365, state.get("transfer"))
    columns["usdc_VelCur1yr"] = (
        transfer_mean * 365.0 / np.maximum(supply, 1.0)
    ) * obs(0.5)
    top1_share = np.clip(0.9 - 0.25 * (alpha - 1.0), 0.2, 0.97)
    tiny_threshold = supply / 1.0e7
    tiny_frac = 1.0 - _supply_fraction_above(
        1.0, mean_balance / tiny_threshold, alpha
    )
    columns["usdc_SER"] = np.clip(
        tiny_frac / np.maximum(top1_share, 1e-6), 0.0, 10.0
    ) * obs(0.5)

    # Mask everything before the launch date.
    start_pos = int(
        np.searchsorted(latent.index.ordinals, as_ordinal(config.usdc_start))
    )
    if start_pos > 0:
        for name in columns:
            masked = columns[name].copy()
            masked[:start_pos] = np.nan
            columns[name] = masked
    new["streams"] = streams.states()
    return Frame(latent.index, columns), new


def simulate_eth_onchain(config: SimulationConfig, latent: LatentMarket,
                         universe: MarketUniverse, carry: dict | None = None):
    """ETH on-chain metrics — the §5 on-chain-diversification extension —
    over ``latent``'s days from ``carry``; returns ``(frame, carry)``
    (see :func:`simulate_btc_onchain`).

    Ethereum stands in for the DeFi market segment: in addition to the
    address/supply families, it publishes gas usage, contract activity,
    DeFi total-value-locked and staking metrics. ETH's activity loads on
    the same latent drivers with a stronger sentiment component (DeFi
    usage is more speculative than BTC settlement).
    """
    state = carry or {}
    new: dict = {}
    streams = Streams(config.seed, state.get("streams"))
    n = latent.n_days
    noise = config.onchain_noise
    draw = itertools.count()

    def obs(scale: float = 1.0) -> np.ndarray:
        # One numbered substream per call, one value per day.
        rng = streams.substream("onchain_eth", f"obs{next(draw)}")
        return np.exp(rng.normal(scale=noise * scale, size=n))

    # ETH rides the market with its own adoption kicker.
    eth_adoption = latent.adoption * 1.15
    eth_price = 10.0 * np.exp(
        1.05 * latent.market_log_level
        + 0.3 * (eth_adoption - latent.adoption)
    ) * obs(0.3)
    issued = cumsum_from(np.full(n, 13000.0), state.get("issued"))
    new["issued"] = last_value(issued, state.get("issued"))
    supply = 9.0e7 + issued  # ~constant issuance
    alpha = _concentration_path(n, streams.generator("eth_concentration"),
                                state.get("alpha", 1.55))
    new["alpha"] = last_value(alpha, state.get("alpha"))
    alpha = alpha - 0.05

    total_addresses = 5.0e6 * np.exp(1.7 * eth_adoption) * obs()
    mean_balance_ntv = supply / total_addresses * 2.0
    mean_balance_usd = mean_balance_ntv * eth_price

    abs_ret = np.abs(latent.market_log_return)
    turnover, new["turnover"] = _trailing_mean(abs_ret, 30,
                                               state.get("turnover"))
    activity = (
        0.45 * turnover / 0.02
        + 0.40 * np.abs(latent.sentiment) / 1.5
        + 0.5
    )

    columns: dict[str, np.ndarray] = {}
    prev = None
    for suffix in ("1", "100", "10K", "1M"):
        frac = _address_count_fraction(
            _suffix_value(suffix), mean_balance_usd, alpha
        )
        prev = _nest(total_addresses * frac * obs(), prev)
        columns[f"eth_AdrBalUSD{suffix}Cnt"] = prev
    prev = None
    for suffix in ("0.01", "1", "100", "10K"):
        frac = _address_count_fraction(
            _suffix_value(suffix), mean_balance_ntv, alpha
        )
        prev = _nest(total_addresses * frac * obs(), prev)
        columns[f"eth_AdrBalNtv{suffix}Cnt"] = prev
    prev = None
    for suffix in ("0.01", "1", "100", "10K"):
        frac = _supply_fraction_above(
            _suffix_value(suffix), mean_balance_ntv, alpha
        )
        prev = _nest(supply * frac * obs(), prev)
        columns[f"eth_SplyAdrBalNtv{suffix}"] = prev
    columns["eth_SplyCur"] = supply * obs(0.05)
    base_act = np.clip(0.005 * activity, 0.0, 0.08)
    for label, window in (("30d", 30), ("1yr", 365), ("2yr", 730)):
        pct = 1.0 - np.exp(-base_act * window * 0.55)
        columns[f"eth_SplyAct{label}"] = supply * pct * obs(0.5)
    columns["eth_SplyActPct1yr"] = (
        (1.0 - np.exp(-base_act * 365 * 0.55)) * 100.0 * obs(0.5)
    )
    columns["eth_market_cap"] = eth_price * supply * obs(0.05)
    realized = _ema_like(eth_price * supply, 200, state.get("realized"))
    new["realized"] = last_value(realized, state.get("realized"))
    columns["eth_CapRealUSD"] = realized * obs(0.3)

    # DeFi-specific families.
    gas = 5.0e10 * (0.4 + activity) * np.exp(0.3 * eth_adoption) * obs()
    columns["eth_GasUsed"] = gas
    columns["eth_TxCnt"] = 5.0e5 * np.exp(0.8 * eth_adoption) * (
        0.5 + 0.5 * activity
    ) * obs()
    columns["eth_ContractCallCnt"] = (
        2.0e5 * np.exp(1.1 * eth_adoption) * activity * obs()
    )
    # TVL integrates flows like the stablecoin supply (DeFi attracts the
    # same capital) with extra sentiment beta.
    tvl_growth = 0.0030 * latent.flows + 0.0015 + 0.0008 * np.tanh(
        latent.sentiment
    )
    tvl = cumsum_from(tvl_growth, state.get("tvl"))
    new["tvl"] = last_value(tvl, state.get("tvl"))
    columns["eth_DeFiTVL"] = 1.0e8 * np.exp(
        np.clip(tvl, None, 9.0)
    ) * obs(0.5)
    # Normalise by the long-run adoption scale (a constant, not the
    # sample max: the max depends on the simulation length, so an
    # extension would change the earlier days).
    staked = np.clip(0.02 + 0.10 * (eth_adoption / 6.0), 0, 0.4)
    columns["eth_StakedPct"] = staked * 100.0 * obs(0.3)
    columns["eth_FeeTotUSD"] = gas * 2.0e-8 * eth_price * obs()
    transfer = eth_price * supply * 0.012 * activity * obs()
    columns["eth_TxTfrValAdjUSD"] = transfer
    transfer_mean, new["transfer"] = _trailing_mean(
        transfer, 365, state.get("transfer"))
    columns["eth_VelCur1yr"] = (
        transfer_mean * 365.0
        / np.maximum(eth_price * supply, 1.0)
    ) * obs(0.5)
    columns["eth_AdrActCnt"] = total_addresses * 0.03 * activity * obs()

    new["streams"] = streams.states()
    return Frame(latent.index, columns), new


def _ema_like(values: np.ndarray, span: int,
              state: float | None = None) -> np.ndarray:
    """NaN-free EMA (seeded at the first value) for internal derivations,
    continued from ``state`` (the previous day's value)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return np.empty_like(values)
    alpha = 2.0 / (span + 1.0)
    out = []
    state = float(values[0]) if state is None else state
    for x in values.tolist():
        state = alpha * x + (1 - alpha) * state
        out.append(state)
    return np.array(out, dtype=np.float64)


def _trailing_roi(price: np.ndarray, window: int, carry=None):
    """Return over ``window`` days; the warm-up uses the first price.

    ``carry`` is what the call over the earlier prices returned: the
    first price and the last ``window`` prices. Returns
    ``(roi, carry)``.
    """
    price = np.asarray(price, dtype=np.float64)
    first_price, tail = carry or (float(price[0]), _EMPTY)
    history = np.concatenate((tail, price))
    n = price.size
    past = np.empty_like(price)
    warm = min(window - tail.size, n)  # the tail holds every earlier price
    past[:warm] = first_price
    past[warm:] = history[tail.size + warm - window:tail.size + n - window]
    return price / past - 1.0, (first_price, history[-window:])
