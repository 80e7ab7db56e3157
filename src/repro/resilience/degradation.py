"""Fault-plan degradation of a simulated dataset, and its report.

:func:`resilient_raw_dataset` builds the dataset with
:func:`repro.synth.generate_raw_dataset`, then degrades it one source
(category) at a time as a :class:`~repro.resilience.faults.FaultPlan`
says. A source's ``fetch_error`` events decide whether it is fetched at
all: their failures add up, and a source still failing after three
attempts is unavailable. The plan's data faults then corrupt every
source that was fetched, and a *degradation policy* decides what
happens when a source stays bad:

``"abort"``
    An unavailable source kills the run (:class:`SourceUnavailable`
    propagates). Corrupted-but-present data passes through untouched —
    the paper's own cleaning phase (§3.1.2) is the second line of
    defence.
``"drop-category"``
    Unavailable sources are excluded; the experiment proceeds on the
    surviving categories — the paper's data-source-diversity question
    run in reverse (what does losing a source cost?).
``"fill"``
    Unavailable sources are still dropped (nothing to fill from), but
    corrupted windows in surviving sources are repaired with a
    forward-fill.

Whatever happens, the returned :class:`DegradationReport` records per
source exactly what was retried, injected, filled or dropped — runs on
degraded inputs are clearly labelled, never silently wrong. Failed
fetch attempts count in ``resilience.fetch.failure`` and those retried
in ``resilience.retry``, so a run's retries show among its ledger
counters (``repro report --run``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from ..categories import DataCategory
from ..frame.frame import Frame
from ..frame.missing import fill_frame
from ..obs import current_metrics, get_logger
from ..synth.config import SimulationConfig
from ..synth.dataset import (
    RawDataset,
    assemble_raw_dataset,
    generate_raw_dataset,
)
from .faults import FaultPlan, apply_fault_plan

__all__ = [
    "DEGRADATION_POLICIES",
    "SourceOutcome",
    "DegradationReport",
    "SourceUnavailable",
    "resilient_raw_dataset",
]

DEGRADATION_POLICIES = ("abort", "drop-category", "fill")

#: Fetch attempts a source gets before it counts as unavailable.
_FETCH_ATTEMPTS = 3

_log = get_logger("resilience")


class SourceUnavailable(RuntimeError):
    """A data source could not be fetched."""


@dataclass
class SourceOutcome:
    """What happened to one data source during assembly."""

    category: str
    status: str
    """``ok`` | ``recovered`` | ``degraded`` | ``filled`` | ``dropped``."""

    attempts: int = 1
    """Fetch attempts made (1 = clean first try)."""

    faults: list = field(default_factory=list)
    """``InjectedFault.to_dict()`` records applied to this source."""

    filled_values: int = 0
    """NaN cells repaired by the ``fill`` policy."""

    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "category": self.category,
            "status": self.status,
            "attempts": self.attempts,
            "faults": [dict(f) for f in self.faults],
            "filled_values": self.filled_values,
            "detail": self.detail,
        }


@dataclass
class DegradationReport:
    """Per-source record of everything the resilience layer did."""

    policy: str = "abort"
    outcomes: list[SourceOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every source came back clean on the first try."""
        return all(o.status == "ok" for o in self.outcomes)

    def dropped_categories(self) -> list[str]:
        """Categories excluded from the assembled dataset."""
        return [o.category for o in self.outcomes if o.status == "dropped"]

    def total_retries(self) -> int:
        """Fetch attempts beyond the first, summed over sources."""
        return sum(max(0, o.attempts - 1) for o in self.outcomes)

    def total_faults(self) -> int:
        """Injected (event, column) fault applications, all sources."""
        return sum(len(o.faults) for o in self.outcomes)

    def to_dict(self) -> dict:
        """JSON-ready representation (stable across worker counts)."""
        return {
            "policy": self.policy,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def summary(self) -> str:
        """One line for logs and reports."""
        dropped = self.dropped_categories()
        return (
            f"policy={self.policy} sources={len(self.outcomes)} "
            f"retries={self.total_retries()} faults={self.total_faults()} "
            f"dropped={','.join(dropped) if dropped else 'none'}"
        )


def _fetch_errors(category: str, events) -> list[str]:
    """The errors a source's first fetch attempts raise, in order.

    ``events`` are the category's ``fetch_error`` events in plan order.
    Their failures add up, the plan's later events failing first; a
    ``permanent`` event fails every attempt that reaches it. At most
    ``_FETCH_ATTEMPTS`` are listed: with that many, the source is
    unavailable.
    """
    errors: list[str] = []
    for event in reversed(events):
        if event.permanent:
            errors += [f"{category}: permanent injected outage"
                       ] * _FETCH_ATTEMPTS
            break
        errors += [
            f"{category}: injected transient failure {k}/{event.failures}"
            for k in range(1, min(event.failures, _FETCH_ATTEMPTS) + 1)
        ]
    return errors[:_FETCH_ATTEMPTS]


def _fill_corrupted(frame: Frame) -> tuple[Frame, int]:
    """Forward-fill a corrupted frame; returns it and the cells filled."""
    before = sum(
        int(np.isnan(frame[name]).sum()) for name in frame.columns
    )
    repaired = fill_frame(frame, "ffill")
    after = sum(
        int(np.isnan(repaired[name]).sum()) for name in repaired.columns
    )
    return repaired, before - after


def resilient_raw_dataset(
    config: SimulationConfig | None = None,
    plan: FaultPlan | None = None,
    policy: str = "abort",
) -> tuple[RawDataset, DegradationReport]:
    """The simulated dataset, degraded by ``plan`` under ``policy``.

    With ``plan=None`` this is exactly the dataset of
    :func:`~repro.synth.generate_raw_dataset`, plus an all-``ok``
    report. Either way the result has no carry: a degraded dataset is
    never extended.
    """
    if policy not in DEGRADATION_POLICIES:
        raise ValueError(
            f"unknown degradation policy {policy!r}; "
            f"choose from {DEGRADATION_POLICIES}"
        )
    config = config if config is not None else SimulationConfig()
    plan = plan if plan is not None else FaultPlan()

    metrics = current_metrics()
    report = DegradationReport(policy=policy)
    raw = generate_raw_dataset(config)
    parts: list[tuple[Frame, DataCategory]] = []
    # Each category's columns are contiguous, in assembly order.
    for category, names in groupby(raw.features.columns,
                                   key=raw.categories.__getitem__):
        name = category.value
        errors = _fetch_errors(name, plan.fetch_faults(name))
        outcome = SourceOutcome(
            category=name, status="recovered" if errors else "ok",
            attempts=min(len(errors) + 1, _FETCH_ATTEMPTS),
        )
        report.outcomes.append(outcome)
        if errors:
            metrics.counter("resilience.fetch.failure").inc(len(errors))
            retried = errors[:_FETCH_ATTEMPTS - 1]
            metrics.counter("resilience.retry").inc(len(retried))
            for attempt, error in enumerate(retried, start=1):
                _log.warning("fetch.retry", source=name, attempt=attempt,
                             error=error)
        if len(errors) == _FETCH_ATTEMPTS:
            _log.error("fetch.failed", source=name,
                       attempts=_FETCH_ATTEMPTS, error=errors[-1])
            detail = (f"source {name!r} unavailable after "
                      f"{_FETCH_ATTEMPTS} attempts: {errors[-1]}")
            if policy == "abort":
                raise SourceUnavailable(detail)
            outcome.status = "dropped"
            outcome.detail = detail
            metrics.counter("resilience.category.dropped").inc()
            _log.warning("source.dropped", source=name, policy=policy,
                         error=detail)
            continue

        frame, injected = apply_fault_plan(
            raw.features.select(list(names)), name, plan
        )
        if injected:
            outcome.faults = [f.to_dict() for f in injected]
            outcome.status = "degraded"
            if policy == "fill":
                frame, n_filled = _fill_corrupted(frame)
                outcome.filled_values = n_filled
                outcome.status = "filled"
                metrics.counter("resilience.filled_values").inc(n_filled)
        parts.append((frame, category))

    if not parts:
        raise SourceUnavailable(
            "every data source was dropped; nothing to assemble"
        )
    raw = assemble_raw_dataset(config, raw.latent, raw.universe, parts)
    if not report.ok:
        _log.warning("dataset.degraded", **{
            "policy": policy,
            "retries": report.total_retries(),
            "faults": report.total_faults(),
            "dropped": ",".join(report.dropped_categories()) or "none",
        })
    return raw, report
