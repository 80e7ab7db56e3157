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
from .carry import cumsum_from, last_value
from .config import SimulationConfig
from .regimes import Regime, RegimeProcess
from .rng import Streams

__all__ = [
    "LatentMarket",
    "generate_latent_market",
    "simulate_latent_market",
]


_EMPTY = np.empty(0)


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
    return simulate_latent_market(config, index)[0]


def simulate_latent_market(config: SimulationConfig, index: DateIndex,
                           carry: dict | None = None):
    """Simulate the latent market over ``index`` from ``carry``.

    ``index`` holds the days after those ``carry`` was produced from
    (the whole calendar when ``carry`` is None). Returns
    ``(latent, carry)``: the state over ``index`` and the state at its
    last day — the regime chain, the AR states, the adoption level, the
    trailing flow and macro windows, the last returns of the
    return/sentiment loop and every stream's bit-generator state.
    """
    state = carry or {}
    n = len(index)
    day = state.get("day", 0)
    streams = Streams(config.seed, state.get("streams"))

    regimes, regime = RegimeProcess().walk(
        n, streams.generator("regimes"),
        state.get("regime", Regime.SIDEWAYS),
    )
    drift = RegimeProcess.drift(regimes)
    vol = RegimeProcess.vol(regimes)

    macro = _macro_factor(n, streams, state.get("macro", 0.0))
    flows = _flow_process(
        n, regimes, streams.generator("flows"), state.get("flow", 0.0)
    )
    adoption = _adoption_curve(n, regimes, flows,
                               streams.generator("adoption"),
                               state.get("adoption"))

    eps = streams.generator("returns").normal(size=n)
    sent_noise = streams.generator("sentiment").normal(size=n)
    vol_path = _vol_path(n, streams.generator("vol_state"),
                         state.get("vol", 0.0))
    # -sigma^2/2-ish: mean ~1.
    vol_state = np.exp(vol_path - 0.17)
    jumps = _jump_component(n, streams)

    # Terms that do not depend on the recurrence, computed elementwise
    # up front; the loop adds them in the original left-to-right order.
    flow_tail = state.get("flows", _EMPTY)
    flow_term = config.flow_coupling * _trailing_flow_mean(
        flows, 30, flow_tail, day
    )
    lag = config.macro_lag
    macro_tail = state.get("macro_tail", _EMPTY)
    macro_history = np.concatenate((macro_tail, macro))
    lagged = np.zeros(n)
    first = max(0, lag - day)
    if first < n:
        lagged[first:] = macro_history[
            macro_tail.size + first - lag:macro_tail.size + n - lag
        ]
    macro_term = config.macro_coupling * lagged
    shock = vol * vol_state * eps
    mood = 0.30 * sent_noise
    fair = 0.5 * adoption  # fundamental log value implied by adoption

    # ``log_ret`` starts with the carried last returns: list position
    # ``p`` holds day ``p + base``.
    log_ret: list[float] = list(state.get("returns", ()))
    base = day - len(log_ret)
    level = state.get("level", 0.0)
    sen = state.get("sentiment", 0.0)
    log_lvl: list[float] = []
    sentiment: list[float] = []
    for t, (drift_t, flow_t, macro_t, fair_t, shock_t, jump_t, mood_t) in \
            enumerate(zip(drift.tolist(), flow_term.tolist(),
                          macro_term.tolist(), fair.tolist(), shock.tolist(),
                          jumps.tolist(), mood.tolist()), start=day):
        mom = _mean(log_ret[max(0, t - 5) - base:]) if t > 0 else 0.0
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
        recent = _mean(log_ret[max(0, t - 6) - base:])
        sen = 0.90 * sen + 8.0 * recent + mood_t
        sentiment.append(sen)

    latent = LatentMarket(
        index=index,
        regimes=regimes,
        macro=macro,
        adoption=adoption,
        flows=flows,
        sentiment=np.array(sentiment, dtype=np.float64),
        market_log_return=np.array(log_ret[day - base:], dtype=np.float64),
        market_log_level=np.array(log_lvl, dtype=np.float64),
    )
    # Each AR path's last value is its state.
    carry = {
        "day": day + n,
        "streams": streams.states(),
        "regime": regime,
        "macro": last_value(macro, state.get("macro", 0.0)),
        "flow": last_value(flows, state.get("flow", 0.0)),
        "adoption": last_value(adoption, state.get("adoption")),
        "vol": last_value(vol_path, state.get("vol", 0.0)),
        "flows": np.concatenate((flow_tail, flows))[-30:],
        "macro_tail": macro_history[max(0, macro_history.size - lag):],
        "returns": tuple(log_ret[-7:]),
        "level": level,
        "sentiment": sen,
    }
    return latent, carry


def _vol_modulation(n: int, rng: np.random.Generator) -> np.ndarray:
    """GARCH-flavoured multiplicative volatility state.

    A persistent AR(1) on log-volatility produces the clustering of
    |returns| that real crypto markets show — calm months alternate with
    turbulent ones even within a single regime.
    """
    # -sigma^2/2-ish: mean ~1. One ufunc call over the whole path, never
    # libm's exp per element (the two can differ by an ulp).
    return np.exp(_vol_path(n, rng) - 0.17)


def _vol_path(n: int, rng: np.random.Generator,
              state: float = 0.0) -> np.ndarray:
    """The AR(1) log-volatility path behind :func:`_vol_modulation`,
    continued from ``state`` (the previous day's value)."""
    shocks = rng.normal(scale=0.10, size=n)
    states = []
    for shock in shocks.tolist():
        state = 0.97 * state + shock
        states.append(state)
    return np.array(states, dtype=np.float64)


def _jump_component(n: int, streams: Streams) -> np.ndarray:
    """Rare idiosyncratic shock days (exchange failures, forks, hacks).

    Roughly one jump per 150 trading days, sized 5-20 % with a negative
    skew — the isolated outliers behind crypto's fat return tails.
    One substream per draw, so each stream draws once per day (see
    :mod:`repro.synth.rng`).
    """
    jumps = np.zeros(n)
    hit = streams.substream("jumps", "hit").random(n) < 1.0 / 150.0
    sizes = streams.substream("jumps", "size").normal(
        loc=-0.02, scale=0.07, size=n
    )
    jumps[hit] = sizes[hit]
    return jumps


def _macro_factor(n: int, streams, state: float = 0.0) -> np.ndarray:
    """Slow AR(1) with rare persistent level shifts (policy moves),
    continued from ``state`` (the previous day's value).

    One substream per draw, so each stream draws once per day (see
    :mod:`repro.synth.rng`).
    """
    shocks = streams.substream("macro", "shocks").normal(scale=0.018, size=n)
    shift_days = streams.substream("macro", "shift_days").random(n) \
        < 1.0 / 400.0
    shift_sizes = streams.substream("macro", "shift_sizes").normal(
        scale=0.8, size=n
    )
    out = []
    for shock, shifted, size in zip(shocks.tolist(), shift_days.tolist(),
                                    shift_sizes.tolist()):
        state = 0.998 * state + shock
        if shifted:
            state += size
        out.append(state)
    return np.array(out, dtype=np.float64)


def _adoption_curve(n: int, regimes: np.ndarray, flows: np.ndarray,
                    rng: np.random.Generator,
                    level: float | None = None) -> np.ndarray:
    """Monotone log-adoption: growth is faster in bull markets.

    Sustained capital inflows (the ``flows`` process) accelerate adoption,
    giving stablecoin flows a *permanent* effect on the fundamental value
    — the mechanism behind the long-horizon predictive power of USDC
    on-chain metrics the paper reports. ``level`` is the adoption of
    the previous day (None on the first).
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
    return cumsum_from(increments, level)


def _flow_process(n: int, regimes: np.ndarray, rng: np.random.Generator,
                  state: float = 0.0) -> np.ndarray:
    """Persistent stablecoin net inflows; bulls attract capital.

    Continued from ``state``, the previous day's inflow."""
    target = np.select(
        [regimes == 0, regimes == 1, regimes == 3],
        [0.75, -0.75, -1.8],
        default=0.05,
    )
    pull = 0.035 * target
    noise = rng.normal(scale=0.16, size=n)
    out = []
    for p, e in zip(pull.tolist(), noise.tolist()):
        state = 0.965 * state + p + e
        out.append(state)
    return np.array(out, dtype=np.float64)


def _trailing_flow_mean(flows: np.ndarray, window: int,
                        tail: np.ndarray = _EMPTY,
                        day: int = 0) -> np.ndarray:
    """Mean of the ``window`` flows before each day (0 on day 0).

    ``flows`` starts at day ``day``; ``tail`` holds the last ``window``
    flows before it (all of them while fewer exist). Warm-up days
    average the shorter history; from day ``window`` on, one
    sliding-window mean gives every day's average at once.
    """
    n = flows.size
    history = np.concatenate((tail, flows))
    out = np.zeros(n)
    first = min(max(0, window - day), n)
    for i in range(first):
        if day + i:
            out[i] = history[:tail.size + i].mean()
    if first < n:
        out[first:] = sliding_window_view(
            history[tail.size + first - window:tail.size + n - 1], window
        ).mean(axis=1)
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
