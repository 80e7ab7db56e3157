"""Unit tests for the on-chain / sentiment / tradfi / macro generators."""

import numpy as np
import pytest

from repro.categories import DataCategory
from repro.synth.macro import simulate_macro
from repro.synth.onchain import simulate_btc_onchain, simulate_usdc_onchain
from repro.synth.sentiment import simulate_sentiment
from repro.synth.tradfi import simulate_tradfi


@pytest.fixture(scope="module")
def btc_onchain(small_config, small_latent, small_universe):
    return simulate_btc_onchain(small_config, small_latent,
                                small_universe)[0]


@pytest.fixture(scope="module")
def usdc_onchain(small_config, small_latent, small_universe):
    return simulate_usdc_onchain(small_config, small_latent,
                                 small_universe)[0]


class TestBtcOnchain:
    def test_paper_metrics_present(self, btc_onchain):
        for name in (
            "RevAllTimeUSD", "CapRealUSD", "AdrBalUSD100Cnt",
            "SplyAdrBalUSD100", "SplyAdrBalNtv0.01", "SplyCur",
            "SplyActEver", "SplyActPct1yr", "SER", "VelCur1yr",
            "s2f_ratio", "fish_pct", "shrimps_pct", "total_balance",
            "RevHashRateUSD", "SplyMiner0HopAllUSD", "market_cap",
            "ROI1yr", "AdrBal1in1BCnt", "SplyAdrTop1Pct",
        ):
            assert name in btc_onchain, name

    def test_no_nans(self, btc_onchain):
        assert not any(v > 0 for v in btc_onchain.nan_fraction().values())

    def test_count_families_monotone_in_threshold(self, btc_onchain):
        """Higher balance threshold → (weakly) fewer addresses on average."""
        c1 = btc_onchain["AdrBalUSD1Cnt"].mean()
        c100 = btc_onchain["AdrBalUSD100Cnt"].mean()
        c1m = btc_onchain["AdrBalUSD1MCnt"].mean()
        assert c1 > c100 > c1m

    def test_supply_families_bounded_by_supply(self, btc_onchain,
                                               small_universe):
        supply = small_universe.btc_supply
        held = btc_onchain["SplyAdrBalNtv1"]
        assert (held <= supply * 1.2).all()  # noise tolerance

    def test_rev_all_time_monotone(self, btc_onchain):
        assert np.all(np.diff(btc_onchain["RevAllTimeUSD"]) > 0)

    def test_pct_metrics_in_range(self, btc_onchain):
        assert (btc_onchain["SplyActPct1yr"] >= 0).all()
        assert (btc_onchain["fish_pct"] >= 0).all()
        assert (btc_onchain["fish_pct"] <= 1).all()
        assert (btc_onchain["shrimps_pct"] <= 1).all()

    def test_s2f_grows(self, btc_onchain):
        """Stock-to-flow rises as issuance decays."""
        s2f = btc_onchain["s2f_ratio"]
        assert s2f[-1] > s2f[0]

    def test_deterministic(self, small_config, small_latent,
                           small_universe, btc_onchain):
        again = simulate_btc_onchain(small_config, small_latent,
                                     small_universe)[0]
        assert again == btc_onchain

    def test_correlates_with_adoption(self, btc_onchain, small_latent):
        """Address counts are views of the adoption curve."""
        corr = np.corrcoef(
            np.log(btc_onchain["AdrBalUSD1Cnt"]), small_latent.adoption
        )[0, 1]
        assert corr > 0.9


class TestUsdcOnchain:
    def test_paper_metrics_present(self, usdc_onchain):
        for name in (
            "usdc_SplyCur", "usdc_AdrBalNtv1Cnt", "usdc_AdrBalNtv10KCnt",
            "usdc_SplyAdrBalNtv100", "usdc_SplyAct7d", "usdc_SplyAct2yr",
            "usdc_CapMrktFFUSD", "usdc_SER", "usdc_SplyActPct1yr",
            "usdc_AdrBalUSD100KCnt", "usdc_SplyAdrBalUSD10",
        ):
            assert name in usdc_onchain, name

    def test_nan_before_launch(self, usdc_onchain, small_config):
        sply = usdc_onchain["usdc_SplyCur"]
        pos = usdc_onchain.index.position(small_config.usdc_start)
        assert np.isnan(sply[:pos]).all()
        assert not np.isnan(sply[pos:]).any()

    def test_supply_tracks_flows(self, usdc_onchain, small_latent,
                                 small_config):
        """Log supply growth mirrors the latent flow process."""
        pos = usdc_onchain.index.position(small_config.usdc_start)
        sply = usdc_onchain["usdc_SplyCur"][pos:]
        growth = np.diff(np.log(sply))
        flows = small_latent.flows[pos + 1:]
        assert np.corrcoef(growth, flows)[0, 1] > 0.5

    def test_prefix_convention(self, usdc_onchain):
        assert all(c.startswith("usdc_") for c in usdc_onchain.columns)


class TestSentiment:
    def test_metrics_present(self, small_config, small_latent):
        frame = simulate_sentiment(small_config, small_latent)[0]
        for name in ("fear_greed_index", "gt_Bitcoin_monthly",
                     "gt_Ethereum_monthly", "gt_Cryptocurrency_monthly",
                     "social_volume", "social_sentiment_score"):
            assert name in frame, name

    def test_fear_greed_range_and_start(self, small_config, small_latent):
        frame = simulate_sentiment(small_config, small_latent)[0]
        fg = frame["fear_greed_index"]
        pos = frame.index.position(small_config.fear_greed_start)
        assert np.isnan(fg[:pos]).all()
        valid = fg[pos:]
        assert (valid >= 0).all() and (valid <= 100).all()

    def test_shares_sum_to_volume(self, small_config, small_latent):
        frame = simulate_sentiment(small_config, small_latent)[0]
        total = (
            frame["social_posts_positive"]
            + frame["social_posts_negative"]
            + frame["social_posts_neutral"]
        )
        assert (total <= frame["social_volume"] * 1.0001).all()

    def test_google_trends_monthly_steps(self, small_config, small_latent):
        frame = simulate_sentiment(small_config, small_latent)[0]
        gt = frame["gt_Bitcoin_monthly"]
        # a step series changes value on far fewer than all days
        changes = np.sum(np.abs(np.diff(gt)) > 1e-12)
        assert changes < 40  # ~one change per month over two years

    def test_sentiment_score_tracks_latent(self, small_config,
                                           small_latent):
        frame = simulate_sentiment(small_config, small_latent)[0]
        corr = np.corrcoef(
            frame["social_sentiment_score"], small_latent.sentiment
        )[0, 1]
        assert corr > 0.5


class TestTradfiAndMacro:
    def test_tradfi_columns(self, small_config, small_latent):
        frame = simulate_tradfi(small_config, small_latent)[0]
        for name in ("QQQ_Close", "UUP_Close", "EURUSD_Close",
                     "BSV_Close", "MBB_Close", "VIX_Close"):
            assert name in frame, name

    def test_tradfi_positive(self, small_config, small_latent):
        frame = simulate_tradfi(small_config, small_latent)[0]
        for name in frame.columns:
            assert (frame[name] > 0).all(), name

    def test_opposite_macro_betas(self, small_config, small_latent):
        """QQQ (risk-on) and UUP (dollar) move against each other with
        respect to the macro factor."""
        frame = simulate_tradfi(small_config, small_latent)[0]
        qqq = np.diff(np.log(frame["QQQ_Close"]))
        uup = np.diff(np.log(frame["UUP_Close"]))
        macro_chg = np.diff(small_latent.macro)
        assert np.corrcoef(qqq, macro_chg)[0, 1] > 0.1
        assert np.corrcoef(uup, macro_chg)[0, 1] < -0.1

    def test_macro_columns(self, small_config, small_latent):
        frame = simulate_macro(small_config, small_latent)[0]
        assert frame.n_cols == 8
        for name in ("fed_funds_rate", "hicp_inflation_yoy",
                     "policy_uncertainty_index", "unemployment_rate"):
            assert name in frame, name

    def test_policy_rate_steps_in_quarters(self, small_config,
                                           small_latent):
        frame = simulate_macro(small_config, small_latent)[0]
        rate = frame["fed_funds_rate"]
        steps = np.abs(np.diff(rate))
        nonzero = steps[steps > 0]
        # 25 bp granularity
        assert np.allclose(nonzero / 0.25, np.round(nonzero / 0.25))

    def test_macro_lagged_vs_tradfi(self, small_config, small_latent):
        """Official prints lag the factor more than tradfi indices do."""
        macro_frame = simulate_macro(small_config, small_latent)[0]
        pui = -macro_frame["policy_uncertainty_index"]  # loads on +macro
        factor = small_latent.macro
        best_lag_macro = _best_lag(pui, factor)
        assert best_lag_macro >= 20  # publication delay visible


def _best_lag(series: np.ndarray, factor: np.ndarray,
              max_lag: int = 90) -> int:
    """Lag (in days) maximising corr(series_t, factor_{t-lag})."""
    best, best_corr = 0, -np.inf
    for lag in range(0, max_lag + 1, 5):
        if lag == 0:
            corr = np.corrcoef(series, factor)[0, 1]
        else:
            corr = np.corrcoef(series[lag:], factor[:-lag])[0, 1]
        if corr > best_corr:
            best, best_corr = lag, corr
    return best


class TestCatalogIntegration:
    def test_raw_dataset_categories(self, small_raw):
        counts = small_raw.category_counts()
        assert counts[DataCategory.MACRO] == 8
        assert counts[DataCategory.ONCHAIN_BTC] > 70
        assert counts[DataCategory.ONCHAIN_USDC] > 50
        assert counts[DataCategory.TECHNICAL] > 40
        assert sum(counts.values()) == small_raw.n_metrics

    def test_columns_in_roundtrip(self, small_raw):
        total = 0
        for category in DataCategory:
            cols = small_raw.columns_in(category)
            total += len(cols)
            for col in cols:
                assert small_raw.categories[col] is category
        assert total == small_raw.n_metrics

    def test_no_duplicate_columns(self, small_raw):
        cols = small_raw.features.columns
        assert len(cols) == len(set(cols))

    def test_deterministic_dataset(self, small_raw, small_config):
        from repro.synth import generate_raw_dataset

        again = generate_raw_dataset(small_config)
        assert again.features == small_raw.features
