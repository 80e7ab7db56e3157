"""Append-only extension of a generated :class:`RawDataset`.

Because every generator draws each array from its own named RNG
substream (see :mod:`repro.synth.rng`), a dataset generated over ``n``
days and then extended by ``k`` days is **bit-identical** to one
generated cold over ``n + k`` days. ``extend_raw_dataset`` exploits
that contract: it re-runs the simulator over the extended calendar,
verifies the caller's dataset matches the regenerated prefix
byte-for-byte, and splices the new tail rows onto the existing feature
frame via :meth:`~repro.frame.frame.Frame.append_rows`.

Regeneration is not free: it is most of a 1-day update's wall-clock.
On a 2-core host the default 2,738-day, 235-column dataset generates in
about 0.09 s (0.26-0.41 s while the simulator's recurrences looped over
numpy scalars); the prefix check and the splice add at most about 10 ms.

The prefix verification is the safety interlock for the incremental
pipeline (:mod:`repro.incremental`): a dataset that was corrupted by a
resilience fault plan, hand-edited, or produced by a different package
version will not match the clean regeneration, and extension refuses
rather than silently building features on a diverged history.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import replace

from ..obs import span
from .config import SimulationConfig
from .dataset import RawDataset, generate_raw_dataset

__all__ = ["PrefixMismatch", "extend_raw_dataset", "extended_config"]


class PrefixMismatch(ValueError):
    """The dataset being extended does not match its clean regeneration.

    Raised when the first ``n`` rows of the extended simulation differ
    from the caller's dataset — the input was corrupted (e.g. by a
    fault plan), mutated, or generated by an incompatible version.
    Extension would silently diverge; regenerate cold instead.
    """


def extended_config(config: SimulationConfig, days: int) -> SimulationConfig:
    """The configuration of ``config``'s dataset extended by ``days``."""
    if days < 1:
        raise ValueError("days must be >= 1")
    end = dt.date.fromisoformat(config.end) + dt.timedelta(days=days)
    return replace(config, end=end.isoformat())


def extend_raw_dataset(dataset: RawDataset, days: int) -> RawDataset:
    """Extend ``dataset`` by ``days`` rows, bit-identical to a cold run.

    Returns a new :class:`RawDataset` whose feature frame equals
    ``generate_raw_dataset(extended_config(dataset.config, days))``
    byte-for-byte, with the first ``len(dataset.features)`` rows taken
    from (and verified against) the input.

    Raises
    ------
    PrefixMismatch
        When ``dataset`` does not match the clean regeneration of its
        own configuration (corrupted/mutated input).
    ValueError
        When ``days < 1`` or the base dataset spans fewer than two
        calendar months (the monthly sentiment aggregates only become
        prefix-stable once the first month has closed).
    """
    config = extended_config(dataset.config, days)
    first = dt.date.fromordinal(int(dataset.features.index.ordinals[0]))
    last = dt.date.fromordinal(int(dataset.features.index.ordinals[-1]))
    if (last.year, last.month) == (first.year, first.month):
        raise ValueError(
            "cannot extend a dataset spanning a single calendar month: "
            "monthly aggregates are not yet prefix-stable"
        )

    with span("synth.extend", days=days):
        full = generate_raw_dataset(config)
        n = dataset.features.n_rows
        old, new = dataset.features, full.features
        if old.columns != new.columns or not _prefix_equal(old, new, n):
            raise PrefixMismatch(
                "dataset does not match its clean regeneration; it was "
                "corrupted or mutated — regenerate cold instead of "
                "extending"
            )
        features = old.append_rows(new.iloc(slice(n, None)))

    return RawDataset(
        config=config,
        latent=full.latent,
        universe=full.universe,
        features=features,
        categories=full.categories,
    )


def _prefix_equal(old, new, n: int) -> bool:
    """Byte-for-byte equality of ``old`` with ``new``'s first ``n`` rows."""
    if old.index.ordinals.tobytes() != new.index.ordinals[:n].tobytes():
        return False
    return all(
        old[name].tobytes() == new[name][:n].tobytes()
        for name in old.columns
    )
