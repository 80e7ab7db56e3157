"""Tests for the ETH on-chain extension (§5 on-chain diversification)."""

import numpy as np
import pytest

from repro.categories import DataCategory
from repro.synth import SimulationConfig, generate_raw_dataset
from repro.synth.onchain import simulate_eth_onchain


@pytest.fixture(scope="module")
def eth_frame(small_config, small_latent, small_universe):
    return simulate_eth_onchain(small_config, small_latent,
                                small_universe)[0]


@pytest.fixture(scope="module")
def raw_with_eth(small_config):
    cfg = SimulationConfig(
        start=small_config.start, end=small_config.end,
        seed=small_config.seed, n_assets=small_config.n_assets,
        include_eth=True,
    )
    return generate_raw_dataset(cfg)


class TestEthGenerator:
    def test_defi_metrics_present(self, eth_frame):
        for name in ("eth_GasUsed", "eth_DeFiTVL", "eth_StakedPct",
                     "eth_ContractCallCnt", "eth_SplyCur",
                     "eth_market_cap", "eth_VelCur1yr"):
            assert name in eth_frame, name

    def test_prefix_convention(self, eth_frame):
        assert all(c.startswith("eth_") for c in eth_frame.columns)

    def test_no_nans(self, eth_frame):
        assert not any(v > 0 for v in eth_frame.nan_fraction().values())

    def test_all_positive(self, eth_frame):
        for name in eth_frame.columns:
            assert (eth_frame[name] > 0).all(), name

    def test_staked_pct_bounded(self, eth_frame):
        staked = eth_frame["eth_StakedPct"]
        assert (staked >= 0).all() and (staked <= 60).all()

    def test_cap_tracks_market(self, eth_frame, small_latent):
        corr = np.corrcoef(
            np.log(eth_frame["eth_market_cap"]),
            small_latent.market_log_level,
        )[0, 1]
        assert corr > 0.9

    def test_tvl_tracks_cumulative_flows(self, eth_frame, small_latent):
        corr = np.corrcoef(
            np.log(eth_frame["eth_DeFiTVL"]),
            np.cumsum(small_latent.flows),
        )[0, 1]
        assert corr > 0.5

    def test_deterministic(self, small_config, small_latent,
                           small_universe, eth_frame):
        again = simulate_eth_onchain(small_config, small_latent,
                                     small_universe)[0]
        assert again == eth_frame


class TestDatasetIntegration:
    def test_excluded_by_default(self, small_raw):
        assert small_raw.columns_in(DataCategory.ONCHAIN_ETH) == []

    def test_included_when_enabled(self, raw_with_eth):
        eth_cols = raw_with_eth.columns_in(DataCategory.ONCHAIN_ETH)
        assert len(eth_cols) >= 20
        assert all(c.startswith("eth_") for c in eth_cols)

    def test_other_categories_unchanged(self, small_raw, raw_with_eth):
        for cat in (DataCategory.TECHNICAL, DataCategory.ONCHAIN_BTC,
                    DataCategory.MACRO):
            assert (small_raw.columns_in(cat)
                    == raw_with_eth.columns_in(cat))

    def test_scenario_pipeline_accepts_eth(self, raw_with_eth):
        from repro.core.scenarios import build_scenario

        scenario = build_scenario(raw_with_eth, "2019", 7)
        eth_in_scenario = scenario.columns_in(DataCategory.ONCHAIN_ETH)
        assert len(eth_in_scenario) >= 20
