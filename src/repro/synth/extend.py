"""Append-only extension of a generated :class:`RawDataset`.

Every generator runs over a range of days from a carried state, and each
RNG stream resumes from its carried bit-generator state (see
:mod:`repro.synth.rng`). A dataset keeps the state its simulation
stopped at (:class:`~repro.synth.dataset.SimulationCarry`), so
``extend_raw_dataset`` simulates only the ``k`` new days from it and
appends them to the features, the target, the latent arrays and the
universe. The result is **bit-identical** to a cold generation over the
``n + k``-day calendar, and its cost does not grow with ``n``.

The carry continues exactly the frame it was produced with, under the
simulator format it was produced by. A dataset whose feature frame was
swapped (corrupted by a resilience fault plan, hand-edited), that has
no carry (one degraded by a fault plan) or whose carry has another
:data:`~repro.synth.dataset.SIMULATOR_FORMAT` is refused with
:class:`PrefixMismatch` rather than extended onto a diverged history.
Frame columns are read-only, so an identity check of the frame is
enough.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import replace

import numpy as np

from ..frame.index import DateIndex, date_range
from ..obs import span
from .config import SimulationConfig
from .dataset import (
    SIMULATOR_FORMAT,
    RawDataset,
    SimulationCarry,
    assemble_raw_dataset,
    simulate_days,
)
from .latent import LatentMarket
from .market import MarketUniverse

__all__ = [
    "PrefixMismatch",
    "can_extend",
    "extend_raw_dataset",
    "extended_config",
]


class PrefixMismatch(ValueError):
    """The dataset being extended is not the one its carry continues.

    Raised when the dataset has no carry, its carry comes from another
    simulator format, or its feature frame or configuration is not the
    one the carry was produced with — the input was corrupted (e.g. by a
    fault plan), mutated, or made by other code. Extension would
    silently diverge; regenerate cold instead.
    """


def can_extend(dataset: RawDataset) -> bool:
    """Whether ``dataset`` keeps a carry this simulator can resume."""
    carry = dataset.carry
    return carry is not None and carry.format == SIMULATOR_FORMAT


def extended_config(config: SimulationConfig, days: int) -> SimulationConfig:
    """The configuration of ``config``'s dataset extended by ``days``."""
    if days < 1:
        raise ValueError("days must be >= 1")
    end = dt.date.fromisoformat(config.end) + dt.timedelta(days=days)
    return replace(config, end=end.isoformat())


def extend_raw_dataset(dataset: RawDataset, days: int) -> RawDataset:
    """Extend ``dataset`` by ``days`` rows, bit-identical to a cold run.

    Returns a new :class:`RawDataset` equal byte-for-byte to
    ``generate_raw_dataset(extended_config(dataset.config, days))``,
    with the first ``len(dataset.features)`` rows taken from the input
    and only the new days simulated, from ``dataset.carry``.

    Raises
    ------
    PrefixMismatch
        When ``dataset`` cannot be extended (:func:`can_extend`) or is
        not the dataset its carry was produced with (corrupted/mutated
        input).
    ValueError
        When ``days < 1`` or the base dataset spans fewer than two
        calendar months (the first month's trends values average the
        whole month, so they are final only once it has closed).
    """
    config = extended_config(dataset.config, days)
    ordinals = dataset.features.index.ordinals
    first = dt.date.fromordinal(int(ordinals[0]))
    last = dt.date.fromordinal(int(ordinals[-1]))
    if (last.year, last.month) == (first.year, first.month):
        raise ValueError(
            "cannot extend a dataset spanning a single calendar month: "
            "monthly aggregates are not yet final"
        )
    carry = dataset.carry
    if (not can_extend(dataset) or carry.features is not dataset.features
            or carry.config != dataset.config):
        raise PrefixMismatch(
            "dataset is not the one its simulation carry continues; it "
            "was corrupted, mutated, or made without a carry or by "
            "another simulator format — regenerate cold instead of "
            "extending"
        )

    with span("synth.extend", days=days):
        index = date_range(last + dt.timedelta(days=1), periods=days)
        latent, universe, parts, state = simulate_days(
            config, index, carry.state
        )
        tail = assemble_raw_dataset(config, latent, universe, parts)
        features = dataset.features.append_rows(tail.features)
        return RawDataset(
            config=config,
            latent=_append_latent(dataset.latent, latent),
            universe=_append_universe(dataset.universe, universe),
            features=features,
            categories=dataset.categories,
            target=dataset.target.append_rows(tail.target),
            carry=SimulationCarry(config, state, features),
        )


def _append_index(index: DateIndex, tail: DateIndex) -> DateIndex:
    return DateIndex.from_ordinals(
        np.concatenate((index.ordinals, tail.ordinals))
    )


def _append_latent(latent: LatentMarket, tail: LatentMarket) -> LatentMarket:
    """``latent`` followed by the days of ``tail``."""
    return LatentMarket(
        index=_append_index(latent.index, tail.index),
        **{
            name: np.concatenate((getattr(latent, name), getattr(tail, name)))
            for name in ("regimes", "macro", "adoption", "flows", "sentiment",
                         "market_log_return", "market_log_level")
        },
    )


def _append_universe(universe: MarketUniverse,
                     tail: MarketUniverse) -> MarketUniverse:
    """``universe`` followed by the days of ``tail``."""
    return MarketUniverse(
        index=_append_index(universe.index, tail.index),
        names=universe.names,
        caps=np.concatenate((universe.caps, tail.caps)),
        btc=universe.btc.append_rows(tail.btc),
        btc_supply=np.concatenate((universe.btc_supply, tail.btc_supply)),
    )
