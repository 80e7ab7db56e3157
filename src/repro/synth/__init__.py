"""Synthetic market data sources (substitute for the paper's API pulls).

One call generates the whole collection::

    from repro.synth import SimulationConfig, generate_raw_dataset
    raw = generate_raw_dataset(SimulationConfig(seed=7))

Determinism: every component draws from its own named stream derived from
``config.seed``, so datasets are bit-reproducible and components are
independently perturbable. Every generator runs over a range of days from
a carried state, so ``extend_raw_dataset`` simulates only new days.
"""

from .config import SimulationConfig
from .dataset import RawDataset, SimulationCarry, generate_raw_dataset
from .extend import PrefixMismatch, extend_raw_dataset, extended_config
from .latent import LatentMarket, generate_latent_market
from .market import MarketUniverse, generate_universe
from .presets import (
    PRESETS,
    baseline,
    decoupled_market,
    flow_driven_market,
    noisy_observation_market,
    sentiment_driven_market,
    short_history,
)
from .regimes import Regime, RegimeProcess
from .rng import SeedBank
from .tradfi import TRADFI_SPECS

__all__ = [
    "LatentMarket",
    "MarketUniverse",
    "PRESETS",
    "PrefixMismatch",
    "RawDataset",
    "Regime",
    "RegimeProcess",
    "SeedBank",
    "SimulationCarry",
    "SimulationConfig",
    "TRADFI_SPECS",
    "baseline",
    "decoupled_market",
    "extend_raw_dataset",
    "extended_config",
    "flow_driven_market",
    "generate_latent_market",
    "generate_raw_dataset",
    "generate_universe",
    "noisy_observation_market",
    "sentiment_driven_market",
    "short_history",
]
