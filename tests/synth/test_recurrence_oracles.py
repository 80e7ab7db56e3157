"""Bit-identity of the simulator's scalar recurrences and lifted steps.

Every per-element loop over numpy scalars in ``repro.synth`` was
rewritten: recurrences iterate Python floats from ``tolist()`` in the
same IEEE operation order, and steps that do not depend on the loop are
vectorised. The oracles below are the replaced loops, copied verbatim
(the latent main loop keeps its original body inside an oracle
``generate_latent_market``). Every output must equal its oracle's byte
for byte.
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frame.index import date_range
from repro.synth import SimulationConfig, generate_latent_market
from repro.synth.latent import (
    _adoption_curve,
    _flow_process,
    _jump_component,
    _macro_factor,
    _mean,
    _trailing_flow_mean,
    _vol_modulation,
)
from repro.synth.macro import _monthly_hold, _policy_rate
from repro.synth.onchain import _concentration_path, _ema_like
from repro.synth.regimes import Regime, RegimeProcess
from repro.synth.rng import SeedBank
from repro.synth.sentiment import _month_ids


# ----------------------------------------------------------------------
# oracles (the replaced loops)
# ----------------------------------------------------------------------
def _oracle_vol_modulation(n, rng):
    out = np.empty(n)
    state = 0.0
    shocks = rng.normal(scale=0.10, size=n)
    for t in range(n):
        state = 0.97 * state + shocks[t]
        out[t] = np.exp(state - 0.17)  # -sigma^2/2-ish: mean ~1
    return out


def _oracle_macro_factor(n, bank):
    out = np.zeros(n)
    state = 0.0
    shocks = bank.substream("macro", "shocks").normal(scale=0.018, size=n)
    shift_days = bank.substream("macro", "shift_days").random(n) < 1.0 / 400.0
    shift_sizes = bank.substream("macro", "shift_sizes").normal(
        scale=0.8, size=n
    )
    for t in range(n):
        state = 0.998 * state + shocks[t]
        if shift_days[t]:
            state += shift_sizes[t]
        out[t] = state
    return out


def _oracle_flow_process(n, regimes, rng):
    target = np.select(
        [regimes == 0, regimes == 1, regimes == 3],
        [0.75, -0.75, -1.8],
        default=0.05,
    )
    out = np.zeros(n)
    state = 0.0
    noise = rng.normal(scale=0.16, size=n)
    for t in range(n):
        state = 0.965 * state + 0.035 * target[t] + noise[t]
        out[t] = state
    return out


def _oracle_regime_sample(transitions, n_days, rng, initial):
    path = np.empty(n_days, dtype=np.int64)
    state = int(initial)
    cdf = np.cumsum(transitions, axis=1)
    draws = rng.random(n_days)
    for t in range(n_days):
        path[t] = state
        state = int(np.searchsorted(cdf[state], draws[t], side="right"))
        state = min(state, 3)
    return path


def _oracle_generate_latent_market(config):
    """``generate_latent_market`` with its original main loop, built on
    the oracle recurrences above."""
    index = date_range(config.start, end=config.end)
    n = len(index)
    bank = SeedBank(config.seed)

    regimes = _oracle_regime_sample(RegimeProcess().transitions, n,
                                    bank.generator("regimes"),
                                    Regime.SIDEWAYS)
    drift = RegimeProcess.drift(regimes)
    vol = RegimeProcess.vol(regimes)

    macro = _oracle_macro_factor(n, bank)
    flows = _oracle_flow_process(n, regimes, bank.generator("flows"))
    adoption = _adoption_curve(n, regimes, flows, bank.generator("adoption"))

    eps = bank.generator("returns").normal(size=n)
    sent_noise = bank.generator("sentiment").normal(size=n)
    vol_state = _oracle_vol_modulation(n, bank.generator("vol_state"))
    jumps = _jump_component(n, bank)

    sentiment = np.zeros(n)
    log_ret = np.zeros(n)
    log_lvl = np.zeros(n)
    fair = 0.5 * adoption  # fundamental log value implied by adoption

    lag = config.macro_lag
    level = 0.0
    for t in range(n):
        mom = log_ret[max(0, t - 5):t].mean() if t > 0 else 0.0
        sen = sentiment[t - 1] if t > 0 else 0.0
        flo = flows[max(0, t - 30):t].mean() if t > 0 else 0.0
        mac = macro[t - lag] if t >= lag else 0.0
        rev = config.reversion_speed * (fair[t] - level)
        ret = (
            drift[t]
            + config.momentum_coupling * mom
            + config.sentiment_coupling * sen
            + config.flow_coupling * flo
            + config.macro_coupling * mac
            + rev
            + vol[t] * vol_state[t] * eps[t]
            + jumps[t]
        )
        log_ret[t] = ret
        level += ret
        log_lvl[t] = level
        # Sentiment chases the recent tape but has its own persistent mood.
        recent = log_ret[max(0, t - 6):t + 1].mean()
        prev = sentiment[t - 1] if t > 0 else 0.0
        sentiment[t] = 0.90 * prev + 8.0 * recent + 0.30 * sent_noise[t]

    return dict(regimes=regimes, macro=macro, adoption=adoption,
                flows=flows, sentiment=sentiment,
                market_log_return=log_ret, market_log_level=log_lvl)


def _oracle_concentration_path(n, rng):
    out = np.empty(n)
    state = 1.55
    noise = rng.normal(scale=0.0018, size=n)
    for t in range(n):
        # gentle mean reversion toward 1.20 plus a slow secular decline
        state += -0.0002 * (state - 1.20) - 0.00008 + noise[t]
        state = min(max(state, 1.12), 1.9)
        out[t] = state
    return out


def _oracle_ema_like(values, span):
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    if values.size == 0:
        return out
    alpha = 2.0 / (span + 1.0)
    state = values[0]
    for i, x in enumerate(values):
        state = alpha * x + (1 - alpha) * state
        out[i] = state
    return out


def _oracle_monthly_hold(values, block_ids):
    out = np.empty_like(values, dtype=np.float64)
    change = np.ones(values.size, dtype=bool)
    change[1:] = block_ids[1:] != block_ids[:-1]
    current = values[0]
    for i in range(values.size):
        if change[i]:
            current = values[i]
        out[i] = current
    return out


def _oracle_policy_rate(lagged_macro, base, sensitivity, rng):
    n = lagged_macro.size
    rate = base
    out = np.empty(n)
    meeting_noise = rng.normal(scale=0.1, size=n)
    for t in range(n):
        if t % 42 == 0:  # policy meeting
            target = base + sensitivity * lagged_macro[t] + meeting_noise[t]
            step = np.clip(round((target - rate) / 0.25), -2, 2) * 0.25
            rate = max(rate + step, -0.75)
        out[t] = rate
    return out


def _oracle_month_ids(ordinals):
    ids = np.empty(ordinals.size, dtype=np.int64)
    for i, o in enumerate(ordinals):
        d = dt.date.fromordinal(int(o))
        ids[i] = d.year * 12 + d.month
    return ids


def _oracle_flow_mean(flows, t):
    return flows[max(0, t - 30):t].mean() if t > 0 else 0.0


def _same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class _FixedDraws:
    """A generator stand-in whose ``normal`` returns given standard
    draws times ``scale``, so a recurrence can be driven anywhere
    (e.g. into ``_concentration_path``'s clamps)."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=np.float64)

    def normal(self, scale=1.0, size=None):
        assert size == self.z.size
        return scale * self.z


_n_days = st.integers(0, 400)
_seeds = st.integers(0, 2**32 - 1)


# ----------------------------------------------------------------------
# AR recurrences
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(seed=_seeds, n=_n_days)
@example(seed=0, n=0)
@example(seed=1, n=3000)
def test_vol_modulation_matches_oracle(seed, n):
    _same_bytes(_vol_modulation(n, np.random.default_rng(seed)),
                _oracle_vol_modulation(n, np.random.default_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, n=_n_days)
@example(seed=0, n=0)
@example(seed=1, n=3000)
def test_macro_factor_matches_oracle(seed, n):
    _same_bytes(_macro_factor(n, SeedBank(seed)),
                _oracle_macro_factor(n, SeedBank(seed)))


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, regimes=st.lists(st.integers(0, 3), max_size=400))
def test_flow_process_matches_oracle(seed, regimes):
    regimes = np.array(regimes, dtype=np.int64)
    n = regimes.size
    _same_bytes(_flow_process(n, regimes, np.random.default_rng(seed)),
                _oracle_flow_process(n, regimes,
                                     np.random.default_rng(seed)))


@settings(max_examples=100, deadline=None)
@given(z=st.lists(st.floats(-1000.0, 1000.0), max_size=200))
@example(z=[])
@example(z=[300.0, 1.0, -1.0, -1000.0, 0.5, 0.0])  # both clamps
def test_concentration_path_matches_oracle(z):
    _same_bytes(_concentration_path(len(z), _FixedDraws(z)),
                _oracle_concentration_path(len(z), _FixedDraws(z)))


def test_concentration_path_hits_both_clamps():
    z = [300.0, 0.0, -1000.0, 0.0]
    path = _concentration_path(len(z), _FixedDraws(z))
    assert path.tolist()[0] == 1.9 and path.tolist()[2] == 1.12
    _same_bytes(path, _oracle_concentration_path(len(z), _FixedDraws(z)))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(-1e9, 1e9), max_size=80),
       span=st.integers(1, 250))
@example(values=[], span=200)
@example(values=[4.0], span=90)
def test_ema_like_matches_oracle(values, span):
    values = np.array(values, dtype=np.float64)
    _same_bytes(_ema_like(values, span), _oracle_ema_like(values, span))


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, n=st.integers(0, 300),
       base=st.sampled_from([1.0, 0.0, -0.5]),
       sensitivity=st.floats(-3.0, 3.0),
       macro_seed=_seeds)
@example(seed=0, n=0, base=1.0, sensitivity=-0.9, macro_seed=0)
@example(seed=0, n=43, base=0.0, sensitivity=-0.7, macro_seed=1)
def test_policy_rate_matches_oracle(seed, n, base, sensitivity, macro_seed):
    lagged = np.random.default_rng(macro_seed).normal(scale=2.0, size=n)
    _same_bytes(
        _policy_rate(lagged, base, sensitivity, np.random.default_rng(seed)),
        _oracle_policy_rate(lagged, base, sensitivity,
                            np.random.default_rng(seed)),
    )


# ----------------------------------------------------------------------
# regime chain
# ----------------------------------------------------------------------
_rows = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda row: sum(row) > 0.0
)


@settings(max_examples=80, deadline=None)
@given(seed=_seeds, n_days=st.integers(0, 400),
       rows=st.none() | st.lists(_rows, min_size=4, max_size=4),
       initial=st.sampled_from(list(Regime)))
@example(seed=0, n_days=0, rows=None, initial=Regime.SIDEWAYS)
@example(seed=0, n_days=1, rows=None, initial=Regime.CRASH)
def test_regime_sample_matches_oracle(seed, n_days, rows, initial):
    if rows is not None:
        rows = np.array(rows)
        rows = rows / rows.sum(axis=1, keepdims=True)
    process = RegimeProcess(rows)
    got = process.sample(n_days, np.random.default_rng(seed), initial)
    want = _oracle_regime_sample(process.transitions, n_days,
                                 np.random.default_rng(seed), initial)
    _same_bytes(got, want)


# ----------------------------------------------------------------------
# latent main loop and its lifted steps
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=_seeds,
    start=st.dates(dt.date(2015, 1, 1), dt.date(2020, 12, 31)),
    days=st.integers(0, 500),
    macro_lag=st.sampled_from([0, 1, 30, 75, 600]),
    momentum=st.floats(-0.2, 0.2),
    flow=st.floats(-0.05, 0.05),
    macro=st.floats(-0.01, 0.01),
)
@example(seed=20240701, start=dt.date(2016, 1, 1), days=2737,
         macro_lag=75, momentum=0.03, flow=0.006, macro=0.0012)
def test_latent_market_matches_oracle(seed, start, days, macro_lag,
                                      momentum, flow, macro):
    config = SimulationConfig(
        start=start.isoformat(),
        end=(start + dt.timedelta(days=days)).isoformat(),
        seed=seed, macro_lag=macro_lag, momentum_coupling=momentum,
        flow_coupling=flow, macro_coupling=macro,
    )
    got = generate_latent_market(config)
    want = _oracle_generate_latent_market(config)
    for name, array in want.items():
        _same_bytes(getattr(got, name), array)


@settings(max_examples=100, deadline=None)
@given(flows=st.lists(st.floats(-1e3, 1e3), max_size=120))
@example(flows=[])
@example(flows=[1.0])
@example(flows=[0.5] * 30)
@example(flows=[0.5] * 31)
def test_trailing_flow_mean_every_t(flows):
    flows = np.array(flows, dtype=np.float64)
    want = np.array([_oracle_flow_mean(flows, t) for t in range(flows.size)],
                    dtype=np.float64)
    _same_bytes(_trailing_flow_mean(flows, 30), want)


@pytest.mark.parametrize("n", [500, 2900])
def test_trailing_flow_mean_on_simulated_flows(n):
    regimes = RegimeProcess().sample(n, np.random.default_rng(n))
    flows = _flow_process(n, regimes, np.random.default_rng(n + 1))
    want = np.array([_oracle_flow_mean(flows, t) for t in range(n)])
    _same_bytes(_trailing_flow_mean(flows, 30), want)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=7))
@example(values=[1e16, 1.0, 1.0])
@example(values=[-0.0])
@example(values=[-0.0, -0.0, -0.0])
def test_short_mean_equals_numpy_mean(values):
    assert np.float64(_mean(values)).tobytes() == \
        np.array(values).mean().tobytes()


# ----------------------------------------------------------------------
# block holds and calendar months
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True), min_size=1, max_size=200),
       block=st.integers(1, 100))
def test_monthly_hold_matches_oracle(values, block):
    values = np.array(values, dtype=np.float64)
    ids = np.arange(values.size) // block
    _same_bytes(_monthly_hold(values, ids), _oracle_monthly_hold(values, ids))


def test_monthly_hold_empty_input():
    out = _monthly_hold(np.empty(0), np.empty(0, dtype=np.int64))
    assert out.dtype == np.float64 and out.size == 0
    with pytest.raises(IndexError):  # the replaced loop read values[0]
        _oracle_monthly_hold(np.empty(0), np.empty(0, dtype=np.int64))


_MONTH_EDGES = [
    dt.date(1, 1, 1), dt.date(1899, 12, 31), dt.date(1900, 1, 1),
    dt.date(1900, 2, 28), dt.date(1900, 3, 1), dt.date(1969, 12, 31),
    dt.date(1970, 1, 1), dt.date(2000, 2, 29), dt.date(2016, 2, 29),
    dt.date(2016, 3, 1), dt.date(2019, 12, 31), dt.date(2020, 1, 1),
    dt.date(2100, 2, 28), dt.date(2100, 3, 1), dt.date(9999, 12, 31),
]


def test_month_ids_edges():
    ordinals = np.array([d.toordinal() for d in _MONTH_EDGES],
                        dtype=np.int64)
    got = _month_ids(ordinals)
    _same_bytes(got, _oracle_month_ids(ordinals))
    assert got.tolist() == [d.year * 12 + d.month for d in _MONTH_EDGES]


@settings(max_examples=100, deadline=None)
@given(ordinals=st.lists(
    st.integers(1, dt.date(9999, 12, 31).toordinal()), max_size=50))
def test_month_ids_matches_oracle(ordinals):
    ordinals = np.array(sorted(ordinals), dtype=np.int64)
    _same_bytes(_month_ids(ordinals), _oracle_month_ids(ordinals))


def test_month_ids_daily_calendar_across_year_ends():
    index = date_range("1967-11-15", end="1972-03-15")
    ordinals = index.ordinals
    _same_bytes(_month_ids(ordinals), _oracle_month_ids(ordinals))
