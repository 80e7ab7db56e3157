"""Assembly of the full raw dataset (the paper's ~429-metric collection).

``generate_raw_dataset`` runs every generator, joins all categories onto
one daily calendar, and records the category of every column — the input
the cleaning/scenario pipeline (:mod:`repro.core`) consumes.

Every generator runs over a range of days from a carried state, so the
dataset also keeps where its simulation stopped (its
:class:`SimulationCarry`); :func:`repro.synth.extend_raw_dataset`
resumes from it to simulate only new days.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..categories import DataCategory
from ..frame.frame import Frame
from ..frame.index import DateIndex, date_range
from ..frame.ops import concat_columns
from ..indicators.suite import technical_indicators
from ..obs import current_metrics, span
from .config import SimulationConfig
from .latent import LatentMarket, simulate_latent_market
from .macro import simulate_macro
from .market import MarketUniverse, crypto100_from_caps, simulate_universe
from .onchain import (
    simulate_btc_onchain,
    simulate_eth_onchain,
    simulate_usdc_onchain,
)
from .sentiment import simulate_sentiment
from .tradfi import simulate_tradfi

__all__ = [
    "RawDataset",
    "SIMULATOR_FORMAT",
    "SimulationCarry",
    "assemble_raw_dataset",
    "generate_raw_dataset",
]


#: The simulator's output format. A change that moves the bytes a
#: configuration generates (the pins in ``tests/synth/test_dataset_pins.py``)
#: or the layout of a carried state must bump it: a dataset cached or a
#: carry kept under another format is then never extended (its cache
#: key, :func:`repro.cache.dataset_key`, moves with it too).
SIMULATOR_FORMAT = 1


@dataclass(frozen=True, eq=False)
class SimulationCarry:
    """Where a simulation stopped: what each generator needs to simulate
    the next day.

    ``state`` maps each generator (``latent``, ``universe`` and one key
    per source) to its state at the last simulated day: scalars, the
    last inputs of its trailing windows and the bit-generator state of
    each named RNG stream — kilobytes, whatever the calendar's length.
    ``config`` and ``features`` are the configuration and the feature
    frame the state was produced with, and ``format`` the
    :data:`SIMULATOR_FORMAT` of the code that produced it; it continues
    only those.
    """

    config: SimulationConfig
    state: dict
    features: Frame = field(repr=False)
    format: int = SIMULATOR_FORMAT


@dataclass(frozen=True)
class RawDataset:
    """Everything the experiments need, produced by one simulator run.

    Attributes
    ----------
    config:
        The simulation configuration used.
    latent:
        The latent market state (ground truth, never shown to models).
    universe:
        Asset caps + BTC market data (source of the Crypto100 target).
    features:
        All candidate metrics joined on the simulation calendar.
    categories:
        Column name → :class:`DataCategory` for every feature column.
    target:
        The Crypto100 index (column ``crypto100``) on the calendar.
    carry:
        Where the simulation stopped, for
        :func:`~repro.synth.extend_raw_dataset`; None when the dataset
        cannot be extended (one degraded by a fault plan).
    """

    config: SimulationConfig
    latent: LatentMarket
    universe: MarketUniverse
    features: Frame
    categories: dict[str, DataCategory] = field(repr=False)
    target: Frame = field(repr=False)
    carry: SimulationCarry | None = field(default=None, repr=False)

    @property
    def n_metrics(self) -> int:
        """Number of candidate metric columns."""
        return self.features.n_cols

    def columns_in(self, category: DataCategory) -> list[str]:
        """Feature names belonging to one category (insertion order)."""
        return [
            name for name in self.features.columns
            if self.categories[name] is category
        ]

    def category_counts(self) -> dict[DataCategory, int]:
        """Number of candidate metrics per category."""
        counts = {category: 0 for category in DataCategory}
        for name in self.features.columns:
            counts[self.categories[name]] += 1
        return counts


def _sources(config: SimulationConfig) -> list[tuple[DataCategory, object]]:
    """``(category, step)`` per source, in assembly order.

    ``step(latent, universe, carry)`` simulates the source over
    ``latent``'s days from its carry and returns ``(frame, carry)``.
    """
    sources: list[tuple[DataCategory, object]] = [
        (DataCategory.TECHNICAL,
         lambda latent, universe, carry:
         technical_indicators(universe.btc, carry)),
        (DataCategory.ONCHAIN_BTC,
         lambda latent, universe, carry:
         simulate_btc_onchain(config, latent, universe, carry)),
        (DataCategory.ONCHAIN_USDC,
         lambda latent, universe, carry:
         simulate_usdc_onchain(config, latent, universe, carry)),
        (DataCategory.SENTIMENT,
         lambda latent, universe, carry:
         simulate_sentiment(config, latent, carry)),
        (DataCategory.TRADFI,
         lambda latent, universe, carry:
         simulate_tradfi(config, latent, carry)),
        (DataCategory.MACRO,
         lambda latent, universe, carry:
         simulate_macro(config, latent, carry)),
    ]
    if config.include_eth:
        sources.insert(3, (
            DataCategory.ONCHAIN_ETH,
            lambda latent, universe, carry:
            simulate_eth_onchain(config, latent, universe, carry),
        ))
    return sources


def _target_frame(universe: MarketUniverse) -> Frame:
    """The forecasting target: the Crypto100 index on the universe's
    calendar (see :mod:`repro.core.crypto100`)."""
    return Frame(
        universe.index,
        {"crypto100": crypto100_from_caps(universe.top_n_cap(100))},
    )


def assemble_raw_dataset(
    config: SimulationConfig,
    latent: LatentMarket,
    universe: MarketUniverse,
    parts: list[tuple[Frame, DataCategory]],
) -> RawDataset:
    """Join per-category frames into a :class:`RawDataset`."""
    categories: dict[str, DataCategory] = {}
    for frame, category in parts:
        for name in frame.columns:
            if name in categories:
                raise ValueError(
                    f"duplicate metric name across categories: "
                    f"{name!r}"
                )
            categories[name] = category

    features = concat_columns(*(frame for frame, _ in parts))
    current_metrics().gauge("synth.metrics").set(features.n_cols)
    return RawDataset(
        config=config,
        latent=latent,
        universe=universe,
        features=features,
        categories=categories,
        target=_target_frame(universe),
    )


def simulate_days(config: SimulationConfig, index: DateIndex,
                  carry: dict | None = None):
    """Run every generator over ``index`` from ``carry``.

    ``index`` holds the days after those ``carry`` was produced from
    (the whole calendar when ``carry`` is None). Returns
    ``(latent, universe, parts, carry)``: the latent state, the universe
    and the per-category frames over ``index``, and the state at its
    last day.
    """
    state = carry or {}
    new: dict = {}
    with span("synth.latent"):
        latent, new["latent"] = simulate_latent_market(
            config, index, state.get("latent")
        )
    with span("synth.universe", n_assets=config.n_assets):
        universe, new["universe"] = simulate_universe(
            config, latent, state.get("universe")
        )
    parts: list[tuple[Frame, DataCategory]] = []
    for category, step in _sources(config):
        with span("synth.category", category=category.value):
            frame, new[category.value] = step(
                latent, universe, state.get(category.value)
            )
        parts.append((frame, category))
    return latent, universe, parts, new


def generate_raw_dataset(
    config: SimulationConfig | None = None,
) -> RawDataset:
    """Run the full simulator and assemble the joined feature frame."""
    config = config if config is not None else SimulationConfig()
    with span("synth.dataset", seed=config.seed):
        latent, universe, parts, state = simulate_days(
            config, date_range(config.start, end=config.end)
        )
        raw = assemble_raw_dataset(config, latent, universe, parts)
        return replace(raw, carry=SimulationCarry(config, state, raw.features))
