"""Unit tests for repro.synth.market."""

import numpy as np
import pytest

from repro.synth import generate_universe
from repro.synth.market import _btc_supply


def _supply(n_days):
    """The supply path over the simulation's first ``n_days`` days."""
    return _btc_supply(0, n_days, None)[0]


class TestSupplySchedule:
    def test_monotone_increasing(self):
        supply = _supply(1000)
        assert np.all(np.diff(supply) > 0)

    def test_issuance_decays(self):
        supply = _supply(3000)
        issuance = np.diff(supply)
        assert issuance[-1] < issuance[0]
        # roughly halves every 4 years (1460 days)
        assert issuance[1460] / issuance[0] == pytest.approx(0.5, rel=0.01)

    def test_zero_days(self):
        assert _supply(0).size == 0

    def test_plausible_range(self):
        supply = _supply(2738)
        assert 1.5e7 < supply[-1] < 2.1e7  # under the 21M cap


class TestUniverse:
    def test_shapes(self, small_universe, small_latent):
        assert small_universe.caps.shape == (small_latent.n_days, 110)
        assert len(small_universe.names) == 110
        assert small_universe.names[0] == "BTC"

    def test_caps_positive(self, small_universe):
        assert (small_universe.caps > 0).all()

    def test_total_vs_top100(self, small_universe):
        total = small_universe.total_cap()
        top = small_universe.top_n_cap(100)
        assert (top <= total + 1e-6).all()
        assert (top > 0.8 * total).all()  # top-100 dominates the market

    def test_top_n_mask_counts(self, small_universe):
        mask = small_universe.top_n_mask(100)
        assert (mask.sum(axis=1) == 100).all()

    def test_top_n_mask_consistent_with_cap_sum(self, small_universe):
        mask = small_universe.top_n_mask(100)
        via_mask = (small_universe.caps * mask).sum(axis=1)
        assert np.allclose(via_mask, small_universe.top_n_cap(100))

    def test_top_n_bounds(self, small_universe):
        with pytest.raises(ValueError):
            small_universe.top_n_cap(0)
        with pytest.raises(ValueError):
            small_universe.top_n_cap(111)

    def test_membership_churn_exists(self, small_universe):
        """The top-100 membership changes over time (a maturing market)."""
        mask = small_universe.top_n_mask(100)
        ever_in = mask.any(axis=0).sum()
        assert ever_in > 100  # some assets rotate in and out

    def test_deterministic(self, small_config, small_latent,
                           small_universe):
        again = generate_universe(small_config, small_latent)
        assert np.array_equal(again.caps, small_universe.caps)


class TestBtcFrame:
    def test_columns(self, small_universe):
        assert set(small_universe.btc.columns) == {
            "open", "high", "low", "close", "volume", "market_cap"
        }

    def test_ohlc_ordering(self, small_universe):
        btc = small_universe.btc
        assert (btc["high"] >= btc["close"] - 1e-9).all()
        assert (btc["high"] >= btc["open"] - 1e-9).all()
        assert (btc["low"] <= btc["close"] + 1e-9).all()
        assert (btc["low"] <= btc["open"] + 1e-9).all()

    def test_open_is_previous_close(self, small_universe):
        btc = small_universe.btc
        assert np.allclose(btc["open"][1:], btc["close"][:-1])

    def test_price_times_supply_is_cap(self, small_universe):
        btc = small_universe.btc
        recon = btc["close"] * small_universe.btc_supply
        assert np.allclose(recon, btc["market_cap"])

    def test_volume_positive(self, small_universe):
        assert (small_universe.btc["volume"] > 0).all()

    def test_cap_matches_universe_column_zero(self, small_universe):
        assert np.allclose(
            small_universe.btc["market_cap"], small_universe.caps[:, 0]
        )
