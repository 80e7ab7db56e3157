"""The append-only update driver behind ``repro update``.

:func:`update_experiment` re-runs an experiment at ``days`` more
simulated days, reusing everything the parent (cold) run left behind:

1. the parent raw dataset — the caller's in-memory copy or the artifact
   cache's — is extended with :func:`repro.synth.extend_raw_dataset`,
   which simulates only the ``k`` new days from the state the parent's
   simulation stopped at (bit-identical to a cold ``n+k``-day
   generation);
2. the extended run flows through :func:`repro.core.pipeline.run_experiment`
   with the same cache store, where the range-granular task keys
   re-serve every scenario whose period the new rows do not touch;
3. one ``kind="update"`` ledger record is appended whose ``extra``
   carries the parent run's fingerprint (and run id, when the ledger
   holds one), so ``repro report --compare <cold> <update>`` renders
   the cold-vs-incremental chain.

Faulted / degraded configurations never splice (the parent bytes are
corrupted relative to a clean simulation, and carry no simulation
state), and neither does a parent this simulator cannot resume (no
carry, or one of another simulator format): both fall back to a cold
extended generation — correctness is unchanged, only the dataset reuse
is lost. A dataset cached by other simulator code is never read: the
dataset key holds the simulator format.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..cache import CacheStore, dataset_key
from ..core.pipeline import ExperimentConfig, ExperimentResults, \
    run_experiment, run_fingerprint
from ..obs import MetricsRegistry, RunLedger, Tracer, build_record, \
    get_logger, span, use_metrics, use_tracer
from ..synth.dataset import RawDataset
from ..synth.extend import can_extend, extend_raw_dataset, extended_config

__all__ = ["UpdateResult", "update_experiment"]


@dataclass
class UpdateResult:
    """What one incremental update did, and what it produced."""

    results: ExperimentResults
    """The extended run's full study outputs."""

    config: ExperimentConfig
    """The extended configuration (simulation end moved by ``days``)."""

    days: int
    dataset_reused: bool
    """True when the parent dataset was extended; False when the
    extended dataset had to be generated cold (no parent available, a
    parent this simulator cannot resume, or a faulted/degraded
    configuration)."""

    fingerprint: str | None = None
    parent: str | None = None
    """The parent cold run's config fingerprint
    (:func:`~repro.core.pipeline.run_fingerprint`)."""

    parent_run_id: str | None = None
    """The newest ledger record carrying ``parent`` (None without a
    ledger, or when the parent run was never recorded)."""

    scenarios_cached: int = 0
    """Scenario tasks served straight from the artifact cache."""

    scenarios_total: int = 0
    labels: dict = field(default_factory=dict)

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock of the extended run itself."""
        return self.results.runtime_seconds


def _parent_dataset(config: ExperimentConfig,
                    raw: RawDataset | None,
                    store: CacheStore | None, log) -> RawDataset | None:
    """The parent run's raw dataset, or None when unavailable.

    Preference order: the caller's in-memory dataset (validated against
    the configured simulation), then the artifact cache's entry under
    the parent's dataset key (which holds the simulator format, so an
    entry written by other simulator code misses). A parent this
    simulator cannot resume (:func:`~repro.synth.extend.can_extend`: no
    carry, or a carry of another simulator format) counts as
    unavailable.
    """
    if raw is not None:
        if raw.config != config.simulation:
            raise ValueError(
                "raw dataset does not match config.simulation; "
                "pass the parent run's dataset (or None to use the "
                "cache)"
            )
        parent = raw
    elif store is None:
        return None
    else:
        entry = store.get(dataset_key(config.simulation, config.fault_plan,
                                      config.degradation))
        if entry is None:
            return None
        log.info("update.dataset_from_cache", seed=config.simulation.seed)
        parent, _report = entry
    if not can_extend(parent):
        log.info("update.parent_not_extendable",
                 seed=config.simulation.seed)
        return None
    return parent


def update_experiment(config: ExperimentConfig | None = None,
                      days: int = 1,
                      raw: RawDataset | None = None,
                      tracer: Tracer | None = None,
                      metrics: MetricsRegistry | None = None,
                      cache_dir: str | None = None,
                      ledger_path: str | None = None) -> UpdateResult:
    """Run ``config``'s experiment extended by ``days`` simulated days.

    ``config`` is the *parent* configuration — the one the cold run
    used; the update derives the extended configuration itself. With a
    ``cache_dir`` shared with the parent run, scenario tasks whose
    periods end before the new rows are served from cache and the
    update costs the new days' simulation plus cache reads (the ≪ 1%-of-cold
    target gated by ``benchmarks/bench_incremental.py``); without one
    the update is simply a correct cold run at ``n+days`` days.

    ``ledger_path`` appends one ``kind="update"`` record whose
    ``extra.parent`` is the parent run's
    :func:`~repro.core.pipeline.run_fingerprint` — the link
    ``repro report --compare`` renders. The extended run itself is
    recorded by that same record (not a separate ``kind="run"`` line).
    """
    config = config if config is not None else ExperimentConfig.default()
    parent_print = run_fingerprint(config)
    extended = replace(
        config, simulation=extended_config(config.simulation, days)
    )
    tracer = tracer if tracer is not None else Tracer()
    metrics = metrics if metrics is not None else MetricsRegistry()
    log = get_logger("incremental")
    store = CacheStore(cache_dir) if cache_dir is not None else None
    started = time.perf_counter()

    resilient = (config.fault_plan is not None
                 or config.degradation != "abort")
    extended_raw = None
    with use_tracer(tracer), use_metrics(metrics), \
            span("incremental.update", days=days):
        if resilient:
            # The parent bytes are corrupted relative to a clean
            # simulation, so they cannot be continued; the pipeline
            # generates the extended dataset and degrades it again
            # instead.
            log.info("update.cold_dataset", reason="resilient-config")
        else:
            parent_raw = _parent_dataset(config, raw, store, log)
            if parent_raw is not None:
                extended_raw = extend_raw_dataset(parent_raw, days=days)
                metrics.counter("incremental.days_appended").inc(days)
                # Extended: the run below needs only the extension, so
                # the parent is not held through it.
                del parent_raw
            else:
                log.info("update.cold_dataset", reason="no-parent-dataset")

    results = run_experiment(
        extended,
        raw=extended_raw,
        tracer=tracer,
        metrics=metrics,
        cache_dir=cache_dir,
    )

    counters = results.run_summary.metrics.get("counters", {})
    cached = int(counters.get("experiment.scenarios_cached", 0))
    total = len(results.artifacts) + len(results.failures)
    fingerprint = run_fingerprint(extended)
    labels = {
        "days": days,
        "periods": ",".join(extended.periods),
        "windows": ",".join(str(w) for w in extended.windows),
    }
    parent_run_id = None
    if ledger_path is not None:
        ledger = RunLedger(ledger_path)
        parent_record = ledger.latest(fingerprint=parent_print)
        if parent_record is not None:
            parent_run_id = parent_record.run_id
        ledger.try_append(build_record(
            "update", tracer.spans, results.run_summary.metrics,
            status="ok" if not results.failures else "partial",
            duration_s=time.perf_counter() - started,
            fingerprint=fingerprint,
            seed=config.simulation.seed,
            labels=labels,
            extra={
                "parent": parent_print,
                "parent_run_id": parent_run_id,
                "days": days,
                "dataset_reused": extended_raw is not None,
                "scenarios": len(results.artifacts),
                "scenarios_cached": cached,
                "failures": sorted(results.failures),
            },
        ))
    log.info("update.done", days=days, cached=cached, total=total,
             dataset_reused=extended_raw is not None)
    return UpdateResult(
        results=results,
        config=extended,
        days=days,
        dataset_reused=extended_raw is not None,
        fingerprint=fingerprint,
        parent=parent_print,
        parent_run_id=parent_run_id,
        scenarios_cached=cached,
        scenarios_total=total,
        labels=labels,
    )
