"""Fault-plan degradation of a simulated dataset, and its report.

:func:`resilient_raw_dataset` builds the dataset with
:func:`repro.synth.generate_raw_dataset`, then degrades it one source
(category) at a time as a :class:`~repro.resilience.faults.FaultPlan`
says. A source with a ``fetch_error`` event is unavailable. The plan's
data faults corrupt every other source, and a *degradation policy*
decides what happens when a source stays bad:

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
source exactly what was injected, filled or dropped — runs on degraded
inputs are clearly labelled, never silently wrong. A plan event on a
category the dataset does not have is an error, not a silent no-op.
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

_log = get_logger("resilience")


class SourceUnavailable(RuntimeError):
    """A data source could not be fetched."""


@dataclass
class SourceOutcome:
    """What happened to one data source during assembly."""

    category: str
    status: str
    """``ok`` | ``degraded`` | ``filled`` | ``dropped``."""

    faults: list = field(default_factory=list)
    """:class:`~repro.resilience.faults.InjectedFault` records applied
    to this source."""

    filled_values: int = 0
    """NaN cells repaired by the ``fill`` policy."""

    detail: str = ""


@dataclass
class DegradationReport:
    """Per-source record of everything the resilience layer did."""

    policy: str = "abort"
    outcomes: list[SourceOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every source came back clean."""
        return all(o.status == "ok" for o in self.outcomes)

    def dropped_categories(self) -> list[str]:
        """Categories excluded from the assembled dataset."""
        return [o.category for o in self.outcomes if o.status == "dropped"]

    def total_faults(self) -> int:
        """Injected (event, column) fault applications, all sources."""
        return sum(len(o.faults) for o in self.outcomes)

    def summary(self) -> str:
        """One line for logs and reports."""
        dropped = self.dropped_categories()
        return (
            f"policy={self.policy} sources={len(self.outcomes)} "
            f"faults={self.total_faults()} "
            f"dropped={','.join(dropped) if dropped else 'none'}"
        )


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

    raw = generate_raw_dataset(config)
    # Each category's columns are contiguous, in assembly order.
    sources = [(category, list(names)) for category, names in groupby(
        raw.features.columns, key=raw.categories.__getitem__)]
    available = [category.value for category, _ in sources]
    unknown = sorted({e.category for e in plan.events} - set(available))
    if unknown:
        raise ValueError(
            f"fault plan names {', '.join(map(repr, unknown))}, which the "
            f"dataset does not have; its categories are "
            f"{', '.join(available)}"
        )

    metrics = current_metrics()
    report = DegradationReport(policy=policy)
    parts: list[tuple[Frame, DataCategory]] = []
    for category, names in sources:
        name = category.value
        outcome = SourceOutcome(category=name, status="ok")
        report.outcomes.append(outcome)
        if plan.events_for(name, ("fetch_error",)):
            detail = f"source {name!r} unavailable: injected fetch error"
            if policy == "abort":
                raise SourceUnavailable(detail)
            outcome.status = "dropped"
            outcome.detail = detail
            metrics.counter("resilience.category.dropped").inc()
            _log.warning("source.dropped", source=name, policy=policy,
                         error=detail)
            continue

        frame, injected = apply_fault_plan(
            raw.features.select(names), name, plan
        )
        if injected:
            outcome.faults = injected
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
        _log.warning("dataset.degraded", policy=policy,
                     faults=report.total_faults(),
                     dropped=",".join(report.dropped_categories()) or "none")
    return raw, report
