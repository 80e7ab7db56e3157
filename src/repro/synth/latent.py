"""The latent state of the synthetic crypto market.

Everything the simulator publishes — prices, market caps, on-chain
metrics, sentiment feeds, traditional indices, macro series — is a noisy
*view* of the latent state generated here. The state has five components,
each engineered to carry predictive signal at a specific horizon, which
is precisely the property the paper's experiments measure:

==================  =====================================================
component           role
==================  =====================================================
``regimes``         sticky bull/bear/sideways/crash chain → multi-month
                    trends (baseline drift & vol)
``macro``           very slow AR(1) factor entering returns with a
                    ``macro_lag``-day delay → long-horizon signal, seen
                    (noisily) by macro indicators and tradfi indices
``adoption``        monotone stochastic adoption curve setting the
                    fundamental value that prices revert toward → the
                    long-run anchor on-chain supply metrics encode
``flows``           persistent stablecoin net-inflow process whose
                    trailing 30-day mean enters daily drift → the
                    medium/long-horizon signal USDC metrics encode
``sentiment``       fast-reverting mood process feeding next-day returns
                    and chasing recent returns → short-horizon signal
==================  =====================================================

Daily market log-returns combine all five plus momentum (trailing 5-day
return re-entering drift, which is what makes technical indicators
genuinely predictive short-term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..frame.index import DateIndex, date_range
from .config import SimulationConfig
from .regimes import RegimeProcess
from .rng import SeedBank

__all__ = ["LatentMarket", "generate_latent_market"]


@dataclass(frozen=True)
class LatentMarket:
    """Sampled latent state over a daily index (all arrays same length)."""

    index: DateIndex
    regimes: np.ndarray        # int in {0..3}
    macro: np.ndarray          # slow macro factor, roughly N(0, 1) scale
    adoption: np.ndarray       # monotone log-adoption level
    flows: np.ndarray          # stablecoin net inflow intensity
    sentiment: np.ndarray      # fast mood process, roughly N(0, 1) scale
    market_log_return: np.ndarray
    market_log_level: np.ndarray  # cumulative log level (starts near 0)

    @property
    def n_days(self) -> int:
        """Number of simulated days."""
        return len(self.index)

    def market_level(self) -> np.ndarray:
        """exp(log level) — the aggregate market size multiplier."""
        return np.exp(self.market_log_level)


def generate_latent_market(config: SimulationConfig) -> LatentMarket:
    """Simulate the latent market described in the module docstring."""
    index = date_range(config.start, end=config.end)
    n = len(index)
    bank = SeedBank(config.seed)

    regimes = RegimeProcess().sample(n, bank.generator("regimes"))
    drift = RegimeProcess.drift(regimes)
    vol = RegimeProcess.vol(regimes)

    macro = _macro_factor(n, bank)
    flows = _flow_process(n, regimes, bank.generator("flows"))
    adoption = _adoption_curve(n, regimes, flows, bank.generator("adoption"))

    eps = bank.generator("returns").normal(size=n)
    sent_noise = bank.generator("sentiment").normal(size=n)
    vol_state = _vol_modulation(n, bank.generator("vol_state"))
    jumps = _jump_component(n, bank)

    # Terms that do not depend on the recurrence, computed elementwise
    # up front; the loop adds them in the original left-to-right order.
    flow_term = config.flow_coupling * _trailing_flow_mean(flows, 30)
    lagged = np.zeros(n)
    lag = config.macro_lag
    lagged[lag:] = macro[:max(n - lag, 0)]
    macro_term = config.macro_coupling * lagged
    shock = vol * vol_state * eps
    mood = 0.30 * sent_noise
    fair = 0.5 * adoption  # fundamental log value implied by adoption

    log_ret: list[float] = []
    log_lvl: list[float] = []
    sentiment: list[float] = []
    level = 0.0
    sen = 0.0
    for t, (drift_t, flow_t, macro_t, fair_t, shock_t, jump_t, mood_t) in \
            enumerate(zip(drift.tolist(), flow_term.tolist(),
                          macro_term.tolist(), fair.tolist(), shock.tolist(),
                          jumps.tolist(), mood.tolist())):
        mom = _mean(log_ret[max(0, t - 5):]) if t > 0 else 0.0
        rev = config.reversion_speed * (fair_t - level)
        ret = (
            drift_t
            + config.momentum_coupling * mom
            + config.sentiment_coupling * sen
            + flow_t
            + macro_t
            + rev
            + shock_t
            + jump_t
        )
        log_ret.append(ret)
        level += ret
        log_lvl.append(level)
        # Sentiment chases the recent tape but has its own persistent mood.
        recent = _mean(log_ret[max(0, t - 6):])
        sen = 0.90 * sen + 8.0 * recent + mood_t
        sentiment.append(sen)

    return LatentMarket(
        index=index,
        regimes=regimes,
        macro=macro,
        adoption=adoption,
        flows=flows,
        sentiment=np.array(sentiment, dtype=np.float64),
        market_log_return=np.array(log_ret, dtype=np.float64),
        market_log_level=np.array(log_lvl, dtype=np.float64),
    )


def _vol_modulation(n: int, rng: np.random.Generator) -> np.ndarray:
    """GARCH-flavoured multiplicative volatility state.

    A persistent AR(1) on log-volatility produces the clustering of
    |returns| that real crypto markets show — calm months alternate with
    turbulent ones even within a single regime.
    """
    shocks = rng.normal(scale=0.10, size=n)
    states = []
    state = 0.0
    for shock in shocks.tolist():
        state = 0.97 * state + shock
        states.append(state)
    # -sigma^2/2-ish: mean ~1. One ufunc call over the whole path, never
    # libm's exp per element (the two can differ by an ulp).
    return np.exp(np.array(states, dtype=np.float64) - 0.17)


def _jump_component(n: int, bank: SeedBank) -> np.ndarray:
    """Rare idiosyncratic shock days (exchange failures, forks, hacks).

    Roughly one jump per 150 trading days, sized 5-20 % with a negative
    skew — the isolated outliers behind crypto's fat return tails.
    One substream per draw keeps each array prefix-stable under
    extension (see :mod:`repro.synth.rng`).
    """
    jumps = np.zeros(n)
    hit = bank.substream("jumps", "hit").random(n) < 1.0 / 150.0
    sizes = bank.substream("jumps", "size").normal(
        loc=-0.02, scale=0.07, size=n
    )
    jumps[hit] = sizes[hit]
    return jumps


def _macro_factor(n: int, bank: SeedBank) -> np.ndarray:
    """Slow AR(1) with rare persistent level shifts (policy moves).

    One substream per draw keeps each array prefix-stable under
    extension (see :mod:`repro.synth.rng`).
    """
    shocks = bank.substream("macro", "shocks").normal(scale=0.018, size=n)
    shift_days = bank.substream("macro", "shift_days").random(n) < 1.0 / 400.0
    shift_sizes = bank.substream("macro", "shift_sizes").normal(
        scale=0.8, size=n
    )
    out = []
    state = 0.0
    for shock, shifted, size in zip(shocks.tolist(), shift_days.tolist(),
                                    shift_sizes.tolist()):
        state = 0.998 * state + shock
        if shifted:
            state += size
        out.append(state)
    return np.array(out, dtype=np.float64)


def _adoption_curve(n: int, regimes: np.ndarray, flows: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Monotone log-adoption: growth is faster in bull markets.

    Sustained capital inflows (the ``flows`` process) accelerate adoption,
    giving stablecoin flows a *permanent* effect on the fundamental value
    — the mechanism behind the long-horizon predictive power of USDC
    on-chain metrics the paper reports.
    """
    base = 0.0009
    bonus = np.where(regimes == 0, 0.0016, 0.0)   # bull accelerates
    penalty = np.where(regimes == 3, -0.0006, 0.0)  # crash stalls
    inflow_boost = 0.0012 * np.clip(flows, 0.0, None)
    increments = np.clip(
        base + bonus + penalty + inflow_boost
        + rng.normal(scale=0.0012, size=n),
        0.0, None,
    )
    return np.cumsum(increments)


def _flow_process(n: int, regimes: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Persistent stablecoin net inflows; bulls attract capital."""
    target = np.select(
        [regimes == 0, regimes == 1, regimes == 3],
        [0.75, -0.75, -1.8],
        default=0.05,
    )
    pull = 0.035 * target
    noise = rng.normal(scale=0.16, size=n)
    out = []
    state = 0.0
    for p, e in zip(pull.tolist(), noise.tolist()):
        state = 0.965 * state + p + e
        out.append(state)
    return np.array(out, dtype=np.float64)


def _trailing_flow_mean(flows: np.ndarray, window: int) -> np.ndarray:
    """Mean of the ``window`` flows before each day (0 on day 0).

    Warm-up days average the shorter history; from day ``window`` on, one
    sliding-window mean gives every day's average at once.
    """
    n = flows.size
    out = np.zeros(n)
    for t in range(1, min(window, n)):
        out[t] = flows[:t].mean()
    if n > window:
        out[window:] = sliding_window_view(flows[:-1], window).mean(axis=1)
    return out


def _mean(values: list[float]) -> float:
    """Left-to-right mean of a short list of Python floats.

    Equals ``np.mean`` bit for bit for at most 7 values, where numpy's
    reduction is a plain left-to-right sum from ``0.0``. Deliberately not
    ``sum()``: from Python 3.12 that is a compensated sum with different
    rounding.
    """
    total = 0.0
    for v in values:
        total += v
    return total / len(values)
