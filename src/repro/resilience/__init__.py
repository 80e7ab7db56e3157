"""Resilience layer: fault injection, degraded-source tolerance and
chaos experiments.

The paper's dataset is stitched from five live feeds; this package
makes the reproduction behave like a system that actually consumes
them. Everything is stdlib + numpy, deterministic, and observable
through :mod:`repro.obs`:

* :mod:`repro.resilience.faults` — :class:`FaultPlan`, a seeded,
  JSON-serialisable schedule of source degradations (outages, stale
  runs, spikes, NaN gaps, delistings, unavailable sources) whose
  application is bit-reproducible from ``(seed, plan)``.
* :mod:`repro.resilience.degradation` — :func:`resilient_raw_dataset`
  degrades the simulated dataset by a plan under a degradation policy
  (``abort`` / ``drop-category`` / ``fill``) and returns a
  :class:`DegradationReport` saying exactly what was injected, filled
  or dropped. A ``fetch_error`` event makes its source unavailable: it
  raises :class:`SourceUnavailable` under ``abort`` (and whenever every
  source is dropped). A plan event on a category the dataset does not
  have raises ``ValueError``.
* :mod:`repro.resilience.chaos` — :func:`run_chaos`, the clean-vs-
  faulted MSE comparison behind ``repro chaos``.

Quick tour::

    from repro import ExperimentConfig, run_experiment
    from repro.resilience import random_fault_plan

    config = ExperimentConfig.fast()
    plan = random_fault_plan(7, ["sentiment", "macro"])
    degraded = dataclasses.replace(
        config, fault_plan=plan, degradation="fill", on_error="capture"
    )
    results = run_experiment(degraded)
    print(results.degradation.summary())

Resuming a killed run needs nothing from this package: rerun it with
the same ``cache_dir`` (CLI: ``--cache-dir``) and every scenario the
first attempt finished is read back from the artifact cache
(:mod:`repro.cache`); only the rest are computed.
"""

from .chaos import (
    CategoryDegradation,
    ChaosReport,
    render_chaos_table,
    run_chaos,
)
from .degradation import (
    DEGRADATION_POLICIES,
    DegradationReport,
    SourceOutcome,
    SourceUnavailable,
    resilient_raw_dataset,
)
from .faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    InjectedFault,
    apply_fault_plan,
    random_fault_plan,
)

__all__ = [
    "CategoryDegradation",
    "ChaosReport",
    "DEGRADATION_POLICIES",
    "DegradationReport",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "InjectedFault",
    "SourceOutcome",
    "SourceUnavailable",
    "apply_fault_plan",
    "random_fault_plan",
    "render_chaos_table",
    "resilient_raw_dataset",
    "run_chaos",
]
