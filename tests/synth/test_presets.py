"""Tests for the market-scenario presets."""

import numpy as np
import pytest

from repro.synth import (
    PRESETS,
    SimulationConfig,
    baseline,
    decoupled_market,
    flow_driven_market,
    generate_latent_market,
    noisy_observation_market,
    sentiment_driven_market,
    short_history,
)


class TestPresetConfigs:
    def test_registry_complete(self):
        assert set(PRESETS) == {
            "baseline", "decoupled", "flow_driven", "sentiment_driven",
            "noisy_observation", "short_history",
        }
        for factory in PRESETS.values():
            assert isinstance(factory(), SimulationConfig)

    def test_baseline_is_default(self):
        assert baseline() == SimulationConfig()

    def test_seed_threads_through(self):
        for factory in PRESETS.values():
            assert factory(seed=99).seed == 99

    def test_decoupled_zero_macro(self):
        assert decoupled_market().macro_coupling == 0.0
        # everything else untouched
        assert decoupled_market().flow_coupling == baseline().flow_coupling

    def test_flow_driven_rebalances_couplings(self):
        cfg = flow_driven_market()
        base = baseline()
        assert cfg.flow_coupling == pytest.approx(base.flow_coupling * 2)
        assert cfg.sentiment_coupling < base.sentiment_coupling

    def test_sentiment_driven(self):
        cfg = sentiment_driven_market()
        assert cfg.sentiment_coupling > baseline().sentiment_coupling
        assert cfg.sentiment_noise < baseline().sentiment_noise

    def test_noisy_observation(self):
        cfg = noisy_observation_market()
        assert cfg.onchain_noise == pytest.approx(
            baseline().onchain_noise * 5
        )

    def test_short_history_window(self):
        cfg = short_history()
        assert cfg.start == "2020-01-01"
        assert cfg.end == baseline().end


class TestPresetBehaviour:
    def test_decoupled_market_ignores_macro(self, monkeypatch):
        """With ``macro_coupling == 0`` the macro factor has no causal
        path into returns: swapping the factor realisation leaves the
        market path bit-identical — and moves it when the coupling is
        on (a finite-sample correlation check would be noise-bound)."""
        small = dict(start="2018-01-01", end="2018-12-31", n_assets=105)
        from dataclasses import replace

        from repro.synth import latent as latent_mod

        cfg = replace(decoupled_market(seed=5), **small)
        coupled_cfg = replace(baseline(seed=5), **small)
        normal = generate_latent_market(cfg)
        coupled = generate_latent_market(coupled_cfg)

        original = latent_mod._macro_factor
        monkeypatch.setattr(
            latent_mod, "_macro_factor",
            lambda *args: original(*args) + 1.0,
        )
        swapped = generate_latent_market(cfg)
        swapped_coupled = generate_latent_market(coupled_cfg)

        assert np.array_equal(normal.market_log_return,
                              swapped.market_log_return)
        assert not np.array_equal(coupled.market_log_return,
                                  swapped_coupled.market_log_return)

    def test_short_history_fewer_days(self):
        from dataclasses import replace

        cfg = replace(short_history(seed=5), n_assets=105)
        latent = generate_latent_market(cfg)
        full = generate_latent_market(
            replace(baseline(seed=5), n_assets=105)
        )
        assert latent.n_days < full.n_days
