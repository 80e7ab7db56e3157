"""Degraded-source dataset assembly and the degradation report.

:func:`resilient_raw_dataset` is the fault-tolerant twin of
:func:`repro.synth.generate_raw_dataset`: each category generator is
wrapped in a retrying :class:`~repro.resilience.source.DataSource`, the
:class:`~repro.resilience.faults.FaultPlan`'s data faults are applied to
whatever was fetched, and a *degradation policy* decides what happens
when a source stays bad:

``"abort"``
    A source that is still unavailable after every retry kills the run
    (:class:`~repro.resilience.source.SourceUnavailable` propagates).
    Corrupted-but-present data passes through untouched — the paper's
    own cleaning phase (§3.1.2) is the second line of defence.
``"drop-category"``
    Unavailable sources are excluded; the experiment proceeds on the
    surviving categories — the paper's data-source-diversity question
    run in reverse (what does losing a source cost?).
``"fill"``
    Unavailable sources are still dropped (nothing to fill from), but
    corrupted windows in surviving sources are repaired with a
    length-capped forward-fill.

Whatever happens, the returned :class:`DegradationReport` records per
source exactly what was retried, injected, filled or dropped — runs on
degraded inputs are clearly labelled, never silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..categories import DataCategory
from ..frame.frame import Frame
from ..frame.missing import fill_frame
from ..obs import current_metrics, get_logger, span
from ..synth.config import SimulationConfig
from ..synth.dataset import (
    RawDataset,
    assemble_raw_dataset,
    category_generators,
)
from ..synth.latent import generate_latent_market
from ..synth.market import generate_universe
from .faults import FaultPlan, apply_fault_plan
from .source import DataSource, FlakyFetch, RetryPolicy, SourceUnavailable

__all__ = [
    "DEGRADATION_POLICIES",
    "SourceOutcome",
    "DegradationReport",
    "resilient_raw_dataset",
]

DEGRADATION_POLICIES = ("abort", "drop-category", "fill")

_log = get_logger("resilience")


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


def _fill_corrupted(frame: Frame, limit: int | None
                    ) -> tuple[Frame, int]:
    """Forward-fill a corrupted frame; returns it and the cells filled."""
    before = sum(
        int(np.isnan(frame[name]).sum()) for name in frame.columns
    )
    repaired = fill_frame(frame, "ffill", limit=limit)
    after = sum(
        int(np.isnan(repaired[name]).sum()) for name in repaired.columns
    )
    return repaired, before - after


def resilient_raw_dataset(
    config: SimulationConfig | None = None,
    plan: FaultPlan | None = None,
    policy: str = "abort",
    retry: RetryPolicy | None = None,
    fill_limit: int | None = None,
    sleep=None,
) -> tuple[RawDataset, DegradationReport]:
    """Assemble the dataset through the full resilience stack.

    With ``plan=None`` and all sources healthy this produces exactly
    the same dataset as :func:`~repro.synth.generate_raw_dataset` (the
    generators are deterministic and independently seeded), plus an
    all-``ok`` report.

    ``sleep`` is forwarded to every :class:`DataSource` so tests (and
    the serial pipeline) never wait on real backoff.
    """
    if policy not in DEGRADATION_POLICIES:
        raise ValueError(
            f"unknown degradation policy {policy!r}; "
            f"choose from {DEGRADATION_POLICIES}"
        )
    config = config if config is not None else SimulationConfig()
    plan = plan if plan is not None else FaultPlan()
    retry = retry if retry is not None else RetryPolicy()
    source_kwargs = {}
    if sleep is not None:
        source_kwargs["sleep"] = sleep

    metrics = current_metrics()
    report = DegradationReport(policy=policy)
    with span("synth.dataset", seed=config.seed, resilient=True):
        with span("synth.latent"):
            latent = generate_latent_market(config)
        with span("synth.universe", n_assets=config.n_assets):
            universe = generate_universe(config, latent)

        parts: list[tuple[Frame, DataCategory]] = []
        for category, make in category_generators(config, latent, universe):
            fetch = make
            for fault in plan.fetch_faults(category.value):
                fetch = FlakyFetch(
                    fetch, failures=fault.failures,
                    permanent=fault.permanent, name=category.value,
                )
            source = DataSource(
                category.value, fetch, retry=retry, **source_kwargs
            )
            outcome = SourceOutcome(category=category.value, status="ok")
            report.outcomes.append(outcome)
            with span("synth.category", category=category.value):
                try:
                    frame = source.fetch()
                except SourceUnavailable as exc:
                    outcome.attempts = source.attempts
                    if policy == "abort":
                        raise
                    outcome.status = "dropped"
                    outcome.detail = str(exc)
                    metrics.counter("resilience.category.dropped").inc()
                    _log.warning("source.dropped", source=category.value,
                                 policy=policy, error=str(exc))
                    continue
                outcome.attempts = source.attempts
                if source.attempts > 1:
                    outcome.status = "recovered"

                frame, injected = apply_fault_plan(
                    frame, category.value, plan
                )
                if injected:
                    outcome.faults = [f.to_dict() for f in injected]
                    outcome.status = "degraded"
                    if policy == "fill":
                        frame, n_filled = _fill_corrupted(
                            frame, fill_limit
                        )
                        outcome.filled_values = n_filled
                        outcome.status = "filled"
                        metrics.counter(
                            "resilience.filled_values"
                        ).inc(n_filled)
                parts.append((frame, category))

        if not parts:
            raise SourceUnavailable(
                "every data source was dropped; nothing to assemble"
            )
        raw = assemble_raw_dataset(config, latent, universe, parts)
    if not report.ok:
        _log.warning("dataset.degraded", **{
            "policy": policy,
            "retries": report.total_retries(),
            "faults": report.total_faults(),
            "dropped": ",".join(report.dropped_categories()) or "none",
        })
    return raw, report
