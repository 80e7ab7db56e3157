"""Deterministic fault injection for the synthetic data sources.

The paper's feature matrix is stitched from five live feeds, and §3.1.2
spends its preprocessing budget on exactly the failure modes such feeds
exhibit: gaps, stale runs, missing records, series that appear or vanish
mid-history. This module makes those failure modes *reproducible*: a
:class:`FaultPlan` is a seeded, JSON-serialisable description of which
source degrades, how, and when — and applying the same ``(seed, plan)``
to the same dataset always yields a bit-identical corrupted dataset,
regardless of worker counts or platform.

Fault kinds
-----------
``outage``
    A window of days where every affected column is missing (NaN) — an
    API or collector that went dark.
``stale``
    A window where affected columns repeat their last pre-window value —
    a feed that kept serving its cache.
``spike``
    A handful of days inside the window get outliers several robust
    sigmas away from the series — bad ticks, unit mix-ups.
``nan_gaps``
    Each day in the window is independently missing with probability
    ``rate`` — flaky record-level collection.
``delisting``
    Affected columns end at ``start`` and never come back — the
    "assets emerging and vanishing on a daily level" of CRIX.
``fetch_error``
    The *source itself* is unavailable: no data for the category at all
    (see :mod:`repro.resilience.degradation`). A one-event plan of this
    kind leaves that category out.

Determinism contract: every random draw derives from
``(plan.seed, event index, column name)`` through independent
``SeedSequence`` streams, so adding or removing one event (or one
column) never perturbs the draws of any other.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..frame.frame import Frame
from ..obs import current_metrics

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "InjectedFault",
    "apply_fault_plan",
    "random_fault_plan",
]

FAULT_KINDS = (
    "outage", "stale", "spike", "nan_gaps", "delisting", "fetch_error",
)

#: Fault kinds that corrupt data (as opposed to removing the source).
DATA_FAULT_KINDS = tuple(k for k in FAULT_KINDS if k != "fetch_error")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled degradation of one data source.

    Window positions are fractions of the series length so the same
    plan is meaningful for any simulation period. A ``fetch_error``
    reads only ``kind`` and ``category``.
    """

    kind: str
    category: str
    """The :class:`~repro.categories.DataCategory` value it hits."""

    start_frac: float = 0.3
    """Window start as a fraction of the series length, in [0, 1)."""

    duration_frac: float = 0.1
    """Window length as a fraction of the series length, in (0, 1]."""

    column_frac: float = 1.0
    """Fraction of the category's columns affected, in (0, 1]."""

    magnitude: float = 8.0
    """Spike size in robust-sigma units (``spike`` only)."""

    rate: float = 0.2
    """Per-day missing probability (``nan_gaps``) or spike density
    within the window (``spike``)."""

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.start_frac < 1.0:
            raise ValueError("start_frac must be in [0, 1)")
        if not 0.0 < self.duration_frac <= 1.0:
            raise ValueError("duration_frac must be in (0, 1]")
        if not 0.0 < self.column_frac <= 1.0:
            raise ValueError("column_frac must be in (0, 1]")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "kind": self.kind,
            "category": self.category,
            "start_frac": self.start_frac,
            "duration_frac": self.duration_frac,
            "column_frac": self.column_frac,
            "magnitude": self.magnitude,
            "rate": self.rate,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        known = {f for f in cls.__dataclass_fields__}
        extra = set(record) - known
        if extra:
            raise ValueError(f"unknown FaultEvent fields: {sorted(extra)}")
        return cls(**record)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable schedule of faults.

    ``(seed, events)`` fully determines every injected corruption:
    re-applying the plan reproduces the faulted dataset bit-for-bit.
    """

    seed: int = 0
    events: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError("events must be FaultEvent instances")

    # ------------------------------------------------------------------
    def events_for(self, category: str, kinds=None) -> list[FaultEvent]:
        """Events hitting one category, with their plan-wide indices.

        Returns ``[(index, event), ...]`` — the index keys the event's
        random stream, so filtering never changes the draws.
        """
        kinds = FAULT_KINDS if kinds is None else kinds
        return [
            (i, e) for i, e in enumerate(self.events)
            if e.category == category and e.kind in kinds
        ]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=int(record.get("seed", 0)),
            events=tuple(
                FaultEvent.from_dict(e) for e in record.get("events", [])
            ),
        )

    def save(self, path) -> Path:
        """Write the plan as pretty-printed JSON; returns the path."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "FaultPlan":
        """Read a plan previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class InjectedFault:
    """One fault actually applied to one column (for the report)."""

    event_index: int
    kind: str
    category: str
    column: str
    start: int
    length: int
    n_affected: int
    """Days actually corrupted (spikes/gaps hit a subset of the window)."""


# ----------------------------------------------------------------------
# Application
# ----------------------------------------------------------------------
def _stream(seed: int, event_index: int, column: str | None = None
            ) -> np.random.Generator:
    """An independent RNG keyed by ``(plan seed, event, column)``."""
    key = [int(event_index)]
    if column is not None:
        key.append(zlib.crc32(column.encode("utf-8")))
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return np.random.default_rng(seq)


def _window(event: FaultEvent, n_rows: int) -> tuple[int, int]:
    """``(start, length)`` of the event's day window on ``n_rows``."""
    start = min(int(event.start_frac * n_rows), max(n_rows - 1, 0))
    length = max(1, int(round(event.duration_frac * n_rows)))
    if event.kind == "delisting":
        length = n_rows - start
    return start, min(length, n_rows - start)


def _affected_columns(event: FaultEvent, event_index: int, seed: int,
                      columns: list[str]) -> list[str]:
    """The deterministic subset of columns the event corrupts."""
    if event.column_frac >= 1.0:
        return list(columns)
    n_hit = max(1, int(round(event.column_frac * len(columns))))
    rng = _stream(seed, event_index)
    picked = rng.choice(len(columns), size=n_hit, replace=False)
    return [columns[i] for i in sorted(int(i) for i in picked)]


def _corrupt_column(values: np.ndarray, event: FaultEvent,
                    event_index: int, seed: int, column: str,
                    start: int, length: int) -> tuple[np.ndarray, int]:
    """Return the corrupted copy of one column and the days touched."""
    out = np.array(values, dtype=np.float64, copy=True)
    stop = start + length
    if event.kind in ("outage", "delisting"):
        out[start:stop] = np.nan
        return out, length
    if event.kind == "stale":
        out[start:stop] = out[start]
        return out, length
    rng = _stream(seed, event_index, column)
    if event.kind == "nan_gaps":
        hit = rng.random(length) < event.rate
        out[start:stop][hit] = np.nan
        return out, int(hit.sum())
    if event.kind == "spike":
        n_spikes = max(1, int(round(event.rate * length)))
        n_spikes = min(n_spikes, length)
        days = rng.choice(length, size=n_spikes, replace=False)
        signs = rng.choice((-1.0, 1.0), size=n_spikes)
        valid = out[~np.isnan(out)]
        sigma = float(np.median(np.abs(valid - np.median(valid)))
                      ) if valid.size else 1.0
        if sigma == 0.0 or not np.isfinite(sigma):
            sigma = 1.0
        out[start + days] = (out[start + days]
                             + signs * event.magnitude * sigma)
        return out, n_spikes
    raise ValueError(f"unhandled fault kind {event.kind!r}")


def apply_fault_plan(frame: Frame, category: str, plan: FaultPlan
                     ) -> tuple[Frame, list[InjectedFault]]:
    """Corrupt one category's frame according to ``plan``.

    Only the plan's data-fault events for ``category`` are applied
    (a ``fetch_error`` makes the whole source unavailable; see
    :mod:`repro.resilience.degradation`). Returns the
    corrupted frame and a record of every (event, column) application;
    a frame untouched by the plan is returned as-is.
    """
    scheduled = plan.events_for(category, DATA_FAULT_KINDS)
    if not scheduled or frame.n_rows == 0 or frame.n_cols == 0:
        return frame, []
    metrics = current_metrics()
    data = {name: frame[name] for name in frame.columns}
    injected: list[InjectedFault] = []
    for event_index, event in scheduled:
        start, length = _window(event, frame.n_rows)
        for column in _affected_columns(
            event, event_index, plan.seed, frame.columns
        ):
            corrupted, n_affected = _corrupt_column(
                data[column], event, event_index, plan.seed, column,
                start, length,
            )
            data[column] = corrupted
            injected.append(InjectedFault(
                event_index=event_index, kind=event.kind,
                category=category, column=column,
                start=start, length=length, n_affected=n_affected,
            ))
            metrics.counter(f"resilience.fault.{event.kind}").inc()
    return Frame(frame.index, data), injected


# ----------------------------------------------------------------------
# Plan generation
# ----------------------------------------------------------------------
def random_fault_plan(seed: int, categories, n_events: int = 6) -> FaultPlan:
    """A plausible random schedule over ``categories``.

    Draws ``n_events`` data faults (kind, category, window, intensity)
    plus one delisting, all from a generator seeded with ``seed``; the
    plan itself then reuses ``seed`` for application, so a single
    integer reproduces the whole chaos run. It has no ``fetch_error``:
    every category stays available.
    """
    categories = [
        c if isinstance(c, str) else c.value for c in categories
    ]
    if not categories:
        raise ValueError("need at least one category to plan faults for")
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    rng = np.random.default_rng(seed)
    kinds = [k for k in DATA_FAULT_KINDS if k != "delisting"]
    events = []
    for _ in range(n_events):
        kind = kinds[int(rng.integers(len(kinds)))]
        events.append(FaultEvent(
            kind=kind,
            category=categories[int(rng.integers(len(categories)))],
            start_frac=float(rng.uniform(0.05, 0.85)),
            duration_frac=float(rng.uniform(0.02, 0.12)),
            column_frac=float(rng.uniform(0.3, 1.0)),
            magnitude=float(rng.uniform(5.0, 12.0)),
            rate=float(rng.uniform(0.1, 0.5)),
        ))
    # one mid-series delisting: a column set that vanishes for good
    events.append(FaultEvent(
        kind="delisting",
        category=categories[int(rng.integers(len(categories)))],
        start_frac=float(rng.uniform(0.6, 0.9)),
        column_frac=float(rng.uniform(0.1, 0.3)),
    ))
    return FaultPlan(seed=seed, events=tuple(events))
