"""Resumable simulation: extending a dataset simulates only its new days.

``extend_raw_dataset`` runs every generator from the dataset's carried
state (:class:`~repro.synth.dataset.SimulationCarry`) over the new days
only. These tests check that two chained extensions equal a cold
generation over the longer calendar byte for byte — features, target,
latent arrays, universe, BTC frame and the carry itself — that no
generator is ever run over the prefix, and that a dataset which is not
the one its carry continues is refused.
"""

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.synth.dataset as dataset_mod
from repro.frame import Frame
from repro.synth import generate_raw_dataset
from repro.synth.config import SimulationConfig
from repro.synth.dataset import SIMULATOR_FORMAT
from repro.synth.extend import (
    PrefixMismatch,
    can_extend,
    extend_raw_dataset,
    extended_config,
)

_START = dt.date(2017, 11, 20)
_LATENT = ("regimes", "macro", "adoption", "flows", "sentiment",
           "market_log_return", "market_log_level")


def _same(a, b, path="carry"):
    """Byte-for-byte equality of two carried states."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            _same(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _same(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, (float, np.floating)):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), path
    else:
        assert a == b, path


def _same_frame(a: Frame, b: Frame, what: str):
    assert a.columns == b.columns, what
    assert a.index.ordinals.tobytes() == b.index.ordinals.tobytes(), what
    for name in a.columns:
        assert a[name].tobytes() == b[name].tobytes(), f"{what}.{name}"


def _assert_same_dataset(extended, cold):
    assert extended.config == cold.config
    _same_frame(extended.features, cold.features, "features")
    _same_frame(extended.target, cold.target, "target")
    _same_frame(extended.universe.btc, cold.universe.btc, "btc")
    for name in _LATENT:
        assert (getattr(extended.latent, name).tobytes()
                == getattr(cold.latent, name).tobytes()), name
    assert (extended.latent.index.ordinals.tobytes()
            == cold.latent.index.ordinals.tobytes())
    assert extended.universe.caps.tobytes() == cold.universe.caps.tobytes()
    assert (extended.universe.btc_supply.tobytes()
            == cold.universe.btc_supply.tobytes())
    assert extended.categories == cold.categories
    assert extended.carry.config == cold.carry.config
    _same(extended.carry.state, cold.carry.state)


class TestChainedExtensionEqualsCold:
    # The base ends between two calendar months after the start and a
    # week past fear_greed_start (2018-02-01), so the extensions cross
    # month ends, the index's start, the macro lag and the 30-day
    # windows in different places.
    @settings(max_examples=12, deadline=None)
    @given(
        base_days=st.integers(min_value=42, max_value=80),
        k1=st.integers(min_value=1, max_value=40),
        k2=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        include_eth=st.booleans(),
        macro_lag=st.sampled_from([0, 20, 75]),
    )
    def test_two_extensions_equal_cold(self, base_days, k1, k2, seed,
                                       include_eth, macro_lag):
        end = _START + dt.timedelta(days=base_days)
        config = SimulationConfig(
            start=_START.isoformat(), end=end.isoformat(), seed=seed,
            n_assets=102, include_eth=include_eth, macro_lag=macro_lag,
        )
        extended = extend_raw_dataset(
            extend_raw_dataset(generate_raw_dataset(config), days=k1),
            days=k2,
        )
        cold = generate_raw_dataset(extended_config(config, k1 + k2))
        _assert_same_dataset(extended, cold)

    def test_parent_carry_left_intact(self, small_raw):
        # Extending the same parent twice gives the same dataset: an
        # extension never mutates the state it resumes from.
        first = extend_raw_dataset(small_raw, days=3)
        second = extend_raw_dataset(small_raw, days=3)
        _assert_same_dataset(first, second)


class TestOnlyNewDaysSimulated:
    def test_no_generator_runs_over_the_prefix(self, small_raw,
                                               monkeypatch):
        lengths = {}

        def spy(name, wrapped, days_of):
            def call(*args):
                lengths.setdefault(name, []).append(days_of(*args))
                return wrapped(*args)
            monkeypatch.setattr(dataset_mod, name, call)

        spy("simulate_latent_market", dataset_mod.simulate_latent_market,
            lambda config, index, carry: len(index))
        spy("technical_indicators", dataset_mod.technical_indicators,
            lambda btc, carry: btc.n_rows)
        for name in ("simulate_universe", "simulate_sentiment",
                     "simulate_tradfi", "simulate_macro"):
            spy(name, getattr(dataset_mod, name),
                lambda config, latent, *rest: latent.n_days)
        for name in ("simulate_btc_onchain", "simulate_usdc_onchain"):
            spy(name, getattr(dataset_mod, name),
                lambda config, latent, universe, carry: latent.n_days)

        extended = extend_raw_dataset(small_raw, days=4)
        assert len(lengths) == 8
        assert all(seen == [4] for seen in lengths.values()), lengths
        assert extended.features.n_rows == small_raw.features.n_rows + 4


class TestCarryInterlock:
    def test_swapped_frame_refused(self, small_raw):
        # The same bytes in another frame: the carry continues only the
        # frame it was produced with.
        copy = Frame(small_raw.features.index, small_raw.features.to_dict())
        swapped = dataclasses.replace(small_raw, features=copy)
        with pytest.raises(PrefixMismatch, match="regenerate cold"):
            extend_raw_dataset(swapped, days=1)

    def test_dataset_without_carry_refused(self, small_raw):
        carryless = dataclasses.replace(small_raw, carry=None)
        with pytest.raises(PrefixMismatch, match="regenerate cold"):
            extend_raw_dataset(carryless, days=1)

    def test_carry_of_another_config_refused(self, small_raw):
        other = dataclasses.replace(
            small_raw, config=dataclasses.replace(small_raw.config, seed=1),
        )
        with pytest.raises(PrefixMismatch, match="regenerate cold"):
            extend_raw_dataset(other, days=1)

    def test_carry_of_another_format_refused(self, small_raw):
        carry = dataclasses.replace(small_raw.carry,
                                    format=SIMULATOR_FORMAT + 1)
        other = dataclasses.replace(small_raw, carry=carry)
        assert not can_extend(other)
        with pytest.raises(PrefixMismatch, match="regenerate cold"):
            extend_raw_dataset(other, days=1)

    def test_stream_missing_from_the_carry_raises(self, small_raw):
        # A carry whose streams do not match the ones this simulator
        # draws from never restarts a stream from its seed.
        state = dict(small_raw.carry.state)
        latent = dict(state["latent"])
        streams = dict(latent["streams"])
        del streams["returns"]
        state["latent"] = {**latent, "streams": streams}
        other = dataclasses.replace(
            small_raw,
            carry=dataclasses.replace(small_raw.carry, state=state),
        )
        with pytest.raises(ValueError, match="no stream 'returns'"):
            extend_raw_dataset(other, days=1)

    def test_carry_survives_the_cache_codec(self, small_raw):
        from repro.cache.codec import dump_artifact, load_artifact

        loaded = load_artifact(dump_artifact(small_raw))
        assert loaded.carry.features is loaded.features
        _assert_same_dataset(extend_raw_dataset(loaded, days=2),
                             extend_raw_dataset(small_raw, days=2))
