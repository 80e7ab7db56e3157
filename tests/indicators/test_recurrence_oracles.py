"""Bit-identity of the scalar recurrences in ``repro.indicators``.

``ema`` and ``rsi`` run their recursions over Python floats taken from
``tolist()``. The oracles below are the loops they replaced, copied
verbatim: they iterate numpy scalars and write the output array one
element at a time. Every output must equal its oracle's byte for byte,
signed zeros included. ``ema`` never propagates an input NaN, so its
NaNs are payload-exact too; ``rsi`` on non-finite input is compared up
to NaN payload bits (same NaN positions, same bytes everywhere else),
because when both operands of a Python-float ``+`` are NaN the
interpreter may keep either payload (DESIGN.md §7).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.indicators import ema, rsi
from repro.indicators.momentum import _rsi_from_averages

NAN = np.nan
INF = np.inf


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def _oracle_ema(values, span):
    values = np.asarray(values, dtype=np.float64)
    alpha = 2.0 / (span + 1.0)
    out = np.full(values.size, np.nan)
    state = np.nan
    for i, x in enumerate(values):
        if np.isnan(state):
            state = x if not np.isnan(x) else np.nan
        elif not np.isnan(x):
            state = alpha * x + (1.0 - alpha) * state
        out[i] = state
    return out


def _oracle_rsi(values, window=14):
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.size, np.nan)
    if values.size <= window:
        return out
    delta = np.diff(values)
    gains = np.clip(delta, 0.0, None)
    losses = np.clip(-delta, 0.0, None)
    avg_gain = gains[:window].mean()
    avg_loss = losses[:window].mean()
    out[window] = _rsi_from_averages(avg_gain, avg_loss)
    for i in range(window, delta.size):
        avg_gain = (avg_gain * (window - 1) + gains[i]) / window
        avg_loss = (avg_loss * (window - 1) + losses[i]) / window
        out[i + 1] = _rsi_from_averages(avg_gain, avg_loss)
    return out


def _same_bytes(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_up_to_nan_payload(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _payload_nan(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def _oracle(fn, *args):
    # numpy scalars warn on inf - inf and overflow; Python floats do not.
    with np.errstate(all="ignore"):
        return fn(*args)


# ----------------------------------------------------------------------
# ema
# ----------------------------------------------------------------------
_any_float = st.floats(allow_nan=True, allow_infinity=True)
_gappy = st.lists(
    st.one_of(st.just(NAN), st.floats(-1e6, 1e6), _any_float),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(values=_gappy, span=st.integers(1, 250))
@example(values=[], span=5)
@example(values=[3.5], span=5)
@example(values=[NAN, NAN, NAN], span=3)
@example(values=[NAN, NAN, 1.0, 2.0, NAN, NAN, 4.0, NAN], span=3)
@example(values=[1.0, INF, 2.0, -INF, 3.0, NAN, 5.0], span=4)
@example(values=[INF, 1.0, 2.0], span=1)
@example(values=[-INF, -INF, INF, 7.0], span=2)
@example(values=[-0.0, 0.0, -0.0], span=1)
def test_ema_matches_oracle(values, span):
    values = np.array(values, dtype=np.float64)
    _same_bytes(ema(values, span), _oracle(_oracle_ema, values, span))


def test_ema_long_series_matches_oracle():
    rng = np.random.default_rng(0)
    values = np.cumsum(rng.normal(size=1500)) + 100.0
    values[[0, 1, 400, 401, 402, 1499]] = NAN
    for span in (1, 12, 26, 100, 200):
        _same_bytes(ema(values, span), _oracle_ema(values, span))


def test_ema_nan_payload_is_canonical():
    # A NaN input with a non-default payload never leaks into the output.
    odd_nan = np.array([0x7FF8DEADBEEF0001], dtype=np.uint64).view(np.float64)
    values = np.concatenate([odd_nan, [1.0], odd_nan, [2.0]])
    _same_bytes(ema(values, 3), _oracle_ema(values, 3))


# ----------------------------------------------------------------------
# rsi
# ----------------------------------------------------------------------
_prices = st.lists(st.floats(-1e6, 1e6), max_size=60)


@settings(max_examples=300, deadline=None)
@given(values=_prices, window=st.integers(1, 20))
@example(values=[5.0] * 30, window=14)               # flat: 50
@example(values=list(range(30)), window=14)          # all gain: 100
@example(values=list(range(30, 0, -1)), window=14)   # all loss: 0
@example(values=[1.0] * 14, window=14)               # size == window
@example(values=[1.0, 2.0], window=14)               # size < window
@example(values=[1.0, 2.0], window=1)
@example(values=[1.0, 1.0, 2.0, 2.0, 2.0, 1.0], window=2)
def test_rsi_matches_oracle(values, window):
    values = np.array(values, dtype=np.float64)
    _same_bytes(rsi(values, window), _oracle(_oracle_rsi, values, window))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(_any_float, max_size=40), window=st.integers(1, 6))
# A canonical NaN, then a payload NaN at index 23: the recurrence adds
# the two, and rsi and its oracle keep different payloads.
@example(values=[1.0, 3.0, -2.0, 0.0, 5.0] * 4 + [NAN, 2.0, 6.0]
         + [_payload_nan(0x7FF8000000000001), 2.0, 1.0, 4.0],
         window=2)
def test_rsi_non_finite_matches_oracle(values, window):
    values = np.array(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        got = rsi(values, window)
    _same_up_to_nan_payload(got, _oracle(_oracle_rsi, values, window))


def test_rsi_reference_levels():
    assert np.all(rsi(np.full(30, 5.0), 14)[14:] == 50.0)
    assert np.all(rsi(np.arange(30.0), 14)[14:] == 100.0)
    assert np.all(rsi(np.arange(30.0, 0.0, -1.0), 14)[14:] == 0.0)
    assert np.isnan(rsi(np.arange(14.0), 14)).all()
