"""End-to-end experiment orchestration.

``run_experiment`` reproduces the paper's full study on one simulated
dataset: scenario construction → FRA + SHAP selection (Table 1) →
contribution factors (Figures 3-4) → horizon groups (Tables 3-4) →
diversity improvement study for RF and XGB-style models (Tables 5-6 and
the §4.3 overall numbers).

Three presets trade fidelity for runtime:

* ``ExperimentConfig.fast()`` — minutes; used by the test-suite and for
  smoke runs (smaller ensembles, two windows, relaxed FRA target).
* ``ExperimentConfig.default()`` — the benchmark preset: all 10
  scenarios at moderate ensemble sizes.
* ``ExperimentConfig.paper()`` — full grids and ensembles; slow.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial

from ..cache import (
    CacheStore,
    config_fingerprint,
    dataset_key,
    frame_digest,
    scenarios_key,
    task_key,
)
from ..categories import DataCategory
from ..frame.validation import ColumnRule, validate_frame
from ..obs import (
    MetricsRegistry,
    RunLedger,
    RunRecord,
    RunSummary,
    Tracer,
    configure_logging,
    get_logger,
    git_describe,
    host_info,
    logging_configured,
    profiled_span,
    resolve_profiling,
    span,
    stage_rows,
    use_metrics,
    use_profiling,
    use_tracer,
)
from ..parallel import (
    ParallelMap,
    TaskGraph,
    WorkerPool,
    in_worker,
    resolve_n_jobs,
    resolve_task_retries,
    resolve_task_timeout,
    use_pool,
)
from ..resilience import (
    DEGRADATION_POLICIES,
    DegradationReport,
    FaultPlan,
    RetryPolicy,
    resilient_raw_dataset,
)
from ..synth.config import SimulationConfig
from ..synth.dataset import RawDataset, generate_raw_dataset
from .contribution import contribution_factors
from .fra import FRAConfig
from .horizons import (
    LONG_TERM_WINDOWS,
    SHORT_TERM_WINDOWS,
    HorizonGroup,
    merge_group,
    rf_feature_importance,
    top_features,
    unique_features,
)
from .improvement import (
    ImprovementConfig,
    ScenarioImprovement,
    average_by_category,
    average_by_window,
    overall_average,
    scenario_improvements,
)
from .scenarios import (
    PREDICTION_WINDOWS,
    Scenario,
    build_all_scenarios,
    period_digests,
)
from .selection import SelectionResult, SHAPConfig, select_final_features

__all__ = ["ExperimentConfig", "ScenarioArtifacts", "ScenarioFailure",
           "ExperimentResults", "run_experiment", "run_fingerprint"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a full experiment run."""

    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    fra: FRAConfig = field(default_factory=FRAConfig)
    shap: SHAPConfig = field(default_factory=SHAPConfig)
    improvement_rf: ImprovementConfig = field(
        default_factory=lambda: ImprovementConfig(model="rf")
    )
    improvement_gb: ImprovementConfig = field(
        default_factory=lambda: ImprovementConfig(model="gb")
    )
    top_k: int = 75
    periods: tuple = ("2017", "2019")
    windows: tuple = PREDICTION_WINDOWS
    rf_importance_params: dict = field(default_factory=lambda: {
        "n_estimators": 30, "max_depth": 12, "max_features": "sqrt",
        "min_samples_leaf": 2,
    })
    run_gb_validation: bool = True
    splitter: str = "exact"
    """Tree-growth kernel for every forest/booster fit in the run:
    ``"exact"`` (the seed algorithm, bit-identical to historical results)
    or ``"hist"`` (quantile-binned histogram kernel, substantially faster
    at the study's ensemble shapes with statistically equivalent output;
    see :mod:`repro.ml.tree`).  Propagated into the FRA, SHAP, horizons
    and improvement model parameters unless a stage's params already pin
    a splitter explicitly."""

    profile: bool = False
    """Opt-in resource profiling (:mod:`repro.obs.profile`): annotate
    the run's stage spans — parent and worker side — with CPU time,
    tracemalloc peaks, max-RSS and GC passes.  Pure observation: it
    never changes results, so like ``n_jobs`` / ``verbose`` it is
    excluded from config fingerprints and cache keys.
    ``REPRO_PROFILE=1`` enables it without touching the config (CLI:
    ``repro run --profile``)."""

    verbose: bool = False
    n_jobs: int | None = None
    """Scenario fan-out width: each (period, window) scenario — feature
    selection, horizon importances and the improvement studies — runs as
    one work unit on its own worker.  ``None`` resolves ``REPRO_JOBS`` →
    all cores; ``1`` forces the serial path.  Every scenario is seeded
    independently, so results are identical for any value."""

    task_timeout: float | None = None
    """Per-scenario deadline (seconds) under the parallel fan-out:
    a scenario still running after this long is presumed hung, its
    worker pool is torn down, and the scenario surfaces as a
    :class:`~repro.parallel.WorkerCrash` (other scenarios' results are
    recovered).  ``None`` resolves ``REPRO_TASK_TIMEOUT`` → no
    deadline.  Pure execution shape — like ``n_jobs`` it never enters
    config fingerprints or cache keys.  (CLI: ``--task-timeout``.)"""

    task_retries: int | None = None
    """Pool-rebuild budget when workers die (OOM kills, segfaults):
    how many times :class:`~repro.parallel.ParallelMap` may rebuild a
    broken pool and resubmit surviving scenarios before giving up.
    ``None`` resolves ``REPRO_TASK_RETRIES`` → 16.  Execution shape
    only, excluded from fingerprints.  (CLI: ``--task-retries``.)"""

    # ----- resilience ---------------------------------------------------
    fault_plan: FaultPlan | None = None
    """Deterministic source-degradation schedule applied while the
    dataset is assembled (see :mod:`repro.resilience.faults`).  The
    same ``(simulation.seed, fault_plan)`` always produces bit-identical
    corrupted data, for any ``n_jobs``."""

    degradation: str = "abort"
    """What to do about a source that stays bad: ``"abort"`` (raise),
    ``"drop-category"`` (proceed on surviving categories) or ``"fill"``
    (repair corrupted windows with a forward-fill).  Anything except
    ``"abort"`` routes dataset assembly through
    :func:`repro.resilience.resilient_raw_dataset`."""

    on_error: str = "raise"
    """Scenario failure isolation: ``"raise"`` aborts the run on the
    first failed scenario (historical behaviour); ``"capture"`` records
    a structured :class:`ScenarioFailure` and keeps the other scenarios'
    results.  It never changes a successful scenario's result, so it is
    excluded from fingerprints: a ``--keep-going`` rerun resumes a
    killed strict run from the cache."""

    validate_inputs: bool = True
    """Pre-flight :func:`repro.frame.validate_frame` check on the raw
    feature matrix before any model fitting (a check only; excluded
    from fingerprints)."""

    strict_validation: bool = False
    """Escalate pre-flight validation issues from warnings to an
    immediate ``ValueError`` (a check only; excluded from
    fingerprints)."""

    source_retry: RetryPolicy = RetryPolicy(base_delay=0.1, max_delay=2.0)
    """Backoff schedule for transient source failures during resilient
    dataset assembly."""

    # ------------------------------------------------------------------
    @classmethod
    def fast(cls, seed: int = 20240701) -> "ExperimentConfig":
        """Small-but-complete preset for tests and smoke runs."""
        return cls(
            simulation=SimulationConfig(
                start="2016-06-01", end="2020-12-31", seed=seed,
                n_assets=105,
            ),
            fra=FRAConfig(
                target_size=40,
                rf_params={"n_estimators": 8, "max_depth": 8,
                           "max_features": "sqrt", "min_samples_leaf": 2},
                gb_params={"n_estimators": 15, "max_depth": 3,
                           "learning_rate": 0.15, "max_features": "sqrt",
                           "subsample": 0.8, "reg_lambda": 1.0},
                pfi_repeats=1,
                pfi_max_rows=150,
            ),
            shap=SHAPConfig(
                gb_params={"n_estimators": 10, "max_depth": 3,
                           "learning_rate": 0.15, "subsample": 0.8,
                           "reg_lambda": 1.0},
                max_rows=40,
            ),
            improvement_rf=ImprovementConfig(
                model="rf",
                param_grid={"n_estimators": [10], "max_depth": [10],
                            "max_features": ["sqrt"]},
                cv_folds=3,
            ),
            improvement_gb=ImprovementConfig(
                model="gb",
                param_grid={"n_estimators": [20], "max_depth": [3]},
                cv_folds=3,
            ),
            top_k=30,
            windows=(7, 90),
            rf_importance_params={"n_estimators": 10, "max_depth": 10,
                                  "max_features": "sqrt",
                                  "min_samples_leaf": 2},
        )

    @classmethod
    def bench(cls, seed: int = 20240701,
              verbose: bool = False) -> "ExperimentConfig":
        """Benchmark preset: the paper's full 10-scenario grid with
        lighter ensembles, sized to finish in minutes."""
        return cls(
            simulation=SimulationConfig(seed=seed),
            fra=FRAConfig(
                rf_params={"n_estimators": 10, "max_depth": 9,
                           "max_features": "sqrt", "min_samples_leaf": 2},
                gb_params={"n_estimators": 20, "max_depth": 3,
                           "learning_rate": 0.15, "max_features": "sqrt",
                           "subsample": 0.8, "reg_lambda": 1.0},
                pfi_repeats=1,
                pfi_max_rows=250,
            ),
            shap=SHAPConfig(
                gb_params={"n_estimators": 15, "max_depth": 3,
                           "learning_rate": 0.15, "subsample": 0.8,
                           "reg_lambda": 1.0},
                max_rows=60,
            ),
            improvement_rf=ImprovementConfig(
                model="rf",
                param_grid={"n_estimators": [15], "max_depth": [12],
                            "max_features": ["sqrt"]},
                cv_folds=3,
            ),
            improvement_gb=ImprovementConfig(
                model="gb",
                param_grid={"n_estimators": [30], "max_depth": [3]},
                cv_folds=3,
            ),
            rf_importance_params={"n_estimators": 15, "max_depth": 12,
                                  "max_features": "sqrt",
                                  "min_samples_leaf": 2},
            verbose=verbose,
        )

    @classmethod
    def default(cls, seed: int = 20240701,
                verbose: bool = False) -> "ExperimentConfig":
        """The benchmark preset: all scenarios, moderate model sizes."""
        return cls(
            simulation=SimulationConfig(seed=seed),
            improvement_rf=ImprovementConfig(
                model="rf",
                param_grid={"n_estimators": [25], "max_depth": [10, 16],
                            "max_features": ["sqrt"]},
                cv_folds=3,
            ),
            improvement_gb=ImprovementConfig(
                model="gb",
                param_grid={"n_estimators": [60], "max_depth": [3, 5]},
                cv_folds=3,
            ),
            verbose=verbose,
        )

    @classmethod
    def paper(cls, seed: int = 20240701,
              verbose: bool = True) -> "ExperimentConfig":
        """Full-fidelity preset (hours): the paper's 5-fold grids."""
        base = cls.default(seed=seed, verbose=verbose)
        return replace(
            base,
            fra=FRAConfig(
                rf_params={"n_estimators": 60, "max_depth": 14,
                           "max_features": "sqrt", "min_samples_leaf": 2},
                gb_params={"n_estimators": 120, "max_depth": 5,
                           "learning_rate": 0.08, "max_features": "sqrt",
                           "subsample": 0.8, "reg_lambda": 1.0},
                pfi_repeats=3,
                pfi_max_rows=800,
            ),
            shap=SHAPConfig(max_rows=300),
            improvement_rf=ImprovementConfig(model="rf", cv_folds=5),
            improvement_gb=ImprovementConfig(model="gb", cv_folds=5),
        )


_SPLITTERS = ("exact", "hist")

#: Execution-shape fields and their normal values.  None of them can
#: change a successful scenario's result (determinism and bit-identity
#: contracts), so :func:`run_fingerprint` resets them before hashing.
_EXECUTION_SHAPE = {
    "n_jobs": None,
    "verbose": False,
    "profile": False,
    "task_timeout": None,
    "task_retries": None,
    "on_error": "raise",
    "validate_inputs": True,
    "strict_validation": False,
}


def run_fingerprint(config: ExperimentConfig) -> str:
    """The config fingerprint that keys the cache and the run ledger.

    Execution-shape fields are normalised away first, so a run killed
    at ``--jobs 4`` resumes from its cache at ``--jobs 1``, a
    ``--keep-going`` rerun reuses a strict run's scenarios, and a
    profiled run's ledger record links to its unprofiled twin.
    """
    return config_fingerprint(replace(config, **_EXECUTION_SHAPE))


def _scenario_task_keys(config: ExperimentConfig, digests: dict,
                        scenario_keys) -> dict[str, str]:
    """Scenario key → cache address of that scenario's task result.

    Each scenario is addressed by its own period's digest, so tasks in
    untouched periods survive a dataset extension.  The simulation
    config is dropped from the address: everything it can change about
    a scenario is already in the period digest, so an extended run
    (new simulation end, same in-period bytes) re-serves every cached
    task.
    """
    fingerprint = run_fingerprint(
        replace(config, simulation=SimulationConfig())
    )
    return {
        key: task_key(fingerprint, digests[key.rsplit("_", 1)[0]], key)
        for key in scenario_keys
    }


def _params_with_splitter(params: dict, splitter: str) -> dict:
    """``params`` with the run splitter injected (explicit pins win)."""
    if "splitter" in params:
        return params
    return {**params, "splitter": splitter}


def _apply_splitter(config: ExperimentConfig) -> ExperimentConfig:
    """Expand ``config.splitter`` into every stage's model parameters.

    ``"exact"`` is the estimators' own default, so the config passes
    through untouched (keeping fingerprints and historical behaviour
    stable).  For ``"hist"`` the splitter lands in the FRA/SHAP/horizons
    param dicts and as a single-value axis of the improvement grids —
    tree-based families only; MLP and stacking estimators take no
    splitter.  Idempotent: params that already pin one are left alone.
    """
    splitter = config.splitter
    if splitter == "exact":
        return config
    fra = replace(
        config.fra,
        rf_params=_params_with_splitter(config.fra.rf_params, splitter),
        gb_params=_params_with_splitter(config.fra.gb_params, splitter),
    )
    shap = replace(
        config.shap,
        gb_params=_params_with_splitter(config.shap.gb_params, splitter),
    )
    improvements = {}
    for label, imp in (("improvement_rf", config.improvement_rf),
                       ("improvement_gb", config.improvement_gb)):
        if imp.model in ("rf", "gb"):
            grid = imp.resolved_grid()
            if "splitter" not in grid:
                imp = replace(
                    imp, param_grid={**grid, "splitter": [splitter]}
                )
        improvements[label] = imp
    return replace(
        config,
        fra=fra,
        shap=shap,
        rf_importance_params=_params_with_splitter(
            config.rf_importance_params, splitter
        ),
        **improvements,
    )


@dataclass
class ScenarioArtifacts:
    """Everything computed for one scenario."""

    scenario: Scenario
    selection: SelectionResult
    rf_importance: dict[str, float]
    """Fine-tuned-RF importance of every final-vector feature (§4.2)."""


@dataclass(frozen=True)
class ScenarioFailure:
    """Structured record of one scenario that failed mid-run.

    Produced when ``ExperimentConfig.on_error == "capture"``: instead of
    killing the whole fan-out, the failing scenario's exception (with
    its worker-side traceback) lands here and every other scenario's
    results survive.
    """

    key: str
    error_type: str
    message: str
    traceback: str = ""

    def __str__(self) -> str:
        return f"{self.key}: {self.error_type}: {self.message}"


@dataclass
class ExperimentResults:
    """The full study's outputs, with per-table accessors."""

    config: ExperimentConfig
    raw: RawDataset
    artifacts: dict[str, ScenarioArtifacts]
    improvements_rf: list[ScenarioImprovement]
    improvements_gb: list[ScenarioImprovement]
    runtime_seconds: float = 0.0
    run_summary: RunSummary = field(default_factory=RunSummary)
    """Per-run telemetry: every span plus the metrics snapshot."""

    failures: dict[str, ScenarioFailure] = field(default_factory=dict)
    """Scenario key → failure record (``on_error="capture"`` runs)."""

    degradation: DegradationReport | None = None
    """What the resilience layer did to the inputs (None = the plain,
    non-resilient assembly path was used)."""

    @property
    def complete(self) -> bool:
        """True when every scheduled scenario produced artifacts."""
        return not self.failures

    # ----- Table 1 ------------------------------------------------------
    def table1_vector_sizes(self) -> dict[str, int]:
        """Scenario key → final feature-vector length."""
        return {
            key: art.selection.n_features
            for key, art in self.artifacts.items()
        }

    # ----- §3.2 validation ------------------------------------------------
    def mean_shap_overlap(self) -> float:
        """Average |SHAP top-100 ∩ FRA survivors| across scenarios."""
        overlaps = [
            art.selection.overlap_top100 for art in self.artifacts.values()
        ]
        return sum(overlaps) / len(overlaps)

    # ----- Figures 3-4 -----------------------------------------------------
    def contributions(self, period: str
                      ) -> dict[int, dict[DataCategory, float]]:
        """{window: {category: contribution factor}} for one period."""
        out = {}
        for art in self.artifacts.values():
            sc = art.scenario
            if sc.period == period:
                out[sc.window] = contribution_factors(
                    sc, art.selection.final_features
                )
        return dict(sorted(out.items()))

    # ----- Tables 3-4 ---------------------------------------------------------
    def horizon_groups(self, period: str
                       ) -> tuple[HorizonGroup, HorizonGroup]:
        """(short-term, long-term) merged importance groups."""
        short, long_ = [], []
        for art in self.artifacts.values():
            sc = art.scenario
            if sc.period != period:
                continue
            if sc.window in SHORT_TERM_WINDOWS:
                short.append(art.rf_importance)
            elif sc.window in LONG_TERM_WINDOWS:
                long_.append(art.rf_importance)
        if not short or not long_:
            raise ValueError(
                f"period {period!r} lacks scenarios in both horizon groups"
            )
        return (
            merge_group("Short-term", short),
            merge_group("Long-term", long_),
        )

    def table3_top_features(self, period: str, k: int = 5
                            ) -> dict[str, list[str]]:
        """Table 3: top-k features per horizon group."""
        short, long_ = self.horizon_groups(period)
        return {
            "Short-term": top_features(short, k),
            "Long-term": top_features(long_, k),
        }

    def table4_unique_features(self, period: str, k: int = 20
                               ) -> dict[str, list[str]]:
        """Table 4: top-k group-unique features."""
        short, long_ = self.horizon_groups(period)
        return {
            "Short-term": unique_features(short, long_, k),
            "Long-term": unique_features(long_, short, k),
        }

    # ----- Tables 5-6 and §4.3 -------------------------------------------------
    def table5_improvement_by_window(self, period: str,
                                     model: str = "rf"
                                     ) -> dict[int, float]:
        """Table 5: mean improvement per window."""
        return average_by_window(self._improvements(model), period)

    def table6_improvement_by_category(self, period: str,
                                       model: str = "rf"
                                       ) -> dict[DataCategory, float]:
        """Table 6: mean improvement per category."""
        return average_by_category(self._improvements(model), period)

    def overall_improvement(self, period: str, model: str = "rf") -> float:
        """The §4.3 all-scenario average improvement."""
        return overall_average(self._improvements(model), period)

    def _improvements(self, model: str) -> list[ScenarioImprovement]:
        if model == "rf":
            return self.improvements_rf
        if model == "gb":
            if not self.improvements_gb:
                raise ValueError("the run skipped the GB validation pass")
            return self.improvements_gb
        raise ValueError(f"unknown model family {model!r}")


#: Pre-flight sanity rules for the raw feature matrix (§3.1.2's cleaning
#: contract expressed as invariants): no effectively-empty columns, no
#: infinities, and close prices are non-negative.
_PREFLIGHT_RULES = (
    ColumnRule("*", max_nan_fraction=0.98, require_finite=True),
    ColumnRule("*_Close", min_value=0.0),
)


def _preflight(raw: RawDataset, config: ExperimentConfig,
               log, metrics: MetricsRegistry) -> None:
    """Validate the assembled feature matrix before any model fitting.

    Issues are warnings by default; ``config.strict_validation`` turns
    them into an immediate ``ValueError`` so bad data never reaches the
    (much more expensive) selection and improvement stages.
    """
    with span("pipeline.preflight", columns=raw.features.n_cols):
        report = validate_frame(raw.features, list(_PREFLIGHT_RULES))
        metrics.counter("preflight.issues").inc(len(report.issues))
        if report.issues:
            log.warning(
                "preflight.issues",
                n_issues=len(report.issues),
                first=str(report.issues[0]),
                strict=config.strict_validation,
            )
        if config.strict_validation:
            report.raise_if_failed()


def _warm_scenario_worker() -> None:
    """Worker-pool warmup: pull in the fit/predict stack (tree kernels,
    compiled-ensemble node tables, selection, improvement) before the
    first chunk lands, so stage latency measures work, not imports."""
    from ..ml import compiled, forest, importance  # noqa: F401
    from . import fra, horizons, improvement, selection  # noqa: F401


def _scenario_task(item: tuple, config: ExperimentConfig,
                   cache: CacheStore | None = None,
                   task_keys: dict | None = None
                   ) -> tuple[str, ScenarioArtifacts,
                              ScenarioImprovement,
                              ScenarioImprovement | None]:
    """Everything the study computes for one scenario (one work unit).

    Runs identically inline (serial pipeline) or in a worker process:
    spans/metrics flow into whatever tracer/registry is current, which
    under a :class:`~repro.parallel.ParallelMap` worker is a
    worker-local pair that gets merged back into the parent run.

    ``cache`` is the run's :class:`~repro.cache.CacheStore` and
    ``task_keys`` maps scenario key → content address for the whole
    task result — the pipeline's one unit of reuse.  The parent already
    served cache hits, so this side only stores — as soon as the
    scenario finishes, which is what lets a killed run resume from the
    cache.
    """
    key, scenario = item
    slog = get_logger("pipeline").bind(scenario=key)
    # use_profiling travels with the pickled config, so worker processes
    # profile whenever the parent run does (any start method); the
    # resulting attrs ride the span records merged back by ParallelMap.
    profile = config.profile or resolve_profiling()
    with use_profiling(profile), \
            profiled_span("pipeline.scenario", scenario=key):
        slog.info("selection.start", candidates=scenario.n_features)
        selection = select_final_features(
            scenario.X, scenario.y, scenario.feature_names,
            fra_config=config.fra, shap_config=config.shap,
            top_k=config.top_k,
        )
        slog.info("selection.done", final=selection.n_features,
                  shap_overlap=selection.overlap_top100)
        importance = rf_feature_importance(
            scenario, selection.final_features,
            rf_params=config.rf_importance_params,
        )
        artifact = ScenarioArtifacts(
            scenario=scenario,
            selection=selection,
            rf_importance=importance,
        )
        slog.info("improvement.start", model="rf")
        improvement_rf = scenario_improvements(
            scenario, selection.final_features, config.improvement_rf,
        )
        improvement_gb = None
        if config.run_gb_validation:
            slog.info("improvement.start", model="gb")
            improvement_gb = scenario_improvements(
                scenario, selection.final_features, config.improvement_gb,
            )
    result = key, artifact, improvement_rf, improvement_gb
    if cache is not None and task_keys is not None and key in task_keys:
        cache.put(task_keys[key], result)
    return result


def run_experiment(config: ExperimentConfig | None = None,
                   raw: RawDataset | None = None,
                   tracer: Tracer | None = None,
                   metrics: MetricsRegistry | None = None,
                   cache_dir: str | None = None,
                   ledger_path: str | None = None
                   ) -> ExperimentResults:
    """Execute the full study; see the module docstring for the stages.

    Every stage runs inside a span of ``tracer`` (a fresh one per run by
    default) and records into ``metrics``; both end up on the returned
    results' :class:`~repro.obs.RunSummary`.  ``config.verbose=True`` is
    an alias for INFO-level console logging (unless the application
    already configured :mod:`repro.obs` logging explicitly).

    ``config.n_jobs`` (CLI: ``repro run --jobs N``) fans the scenarios
    out over worker processes; worker telemetry is merged back, so the
    run summary accounts for all work regardless of where it ran.

    Resilience hooks (all off by default, see
    :mod:`repro.resilience`):

    * ``config.fault_plan`` / ``config.degradation`` route dataset
      assembly through :func:`~repro.resilience.resilient_raw_dataset`;
      the returned results carry the resulting
      :class:`~repro.resilience.DegradationReport`.
    * ``config.on_error="capture"`` isolates scenario failures into
      ``results.failures`` instead of aborting the run.
    * To resume a killed run, rerun it with the same ``cache_dir``:
      every scenario it finished was cached as it completed and is read
      back; only the rest are computed.

    ``cache_dir`` (CLI: ``repro run --cache-dir``) enables the
    content-addressed artifact cache (:mod:`repro.cache`).  The scenario
    task is its one unit of reuse: the raw dataset, the engineered
    scenario frames and each scenario's full task result are memoised
    on disk, keyed by sha256 digests of everything that determines them
    — config fingerprints (fault plans and degradation policies
    included, so chaos runs never alias clean runs) and raw data bytes.
    Model fits and compiled ensembles are never cached on their own; a
    task hit skips them all.  A warm re-run of the same config
    short-circuits to cache reads; ``cache.hits`` / ``cache.misses``
    counters land in the run summary, and
    ``experiment.scenarios_cached`` counts the scenarios served from
    the cache.

    ``ledger_path`` (CLI: ``repro run --ledger``, or the
    ``REPRO_LEDGER`` environment variable via the CLI) appends one
    :class:`~repro.obs.RunRecord` to the append-only run ledger when
    the run finishes: config fingerprint, cache lineage keys, metrics
    snapshot, per-stage aggregates (with resource columns when
    ``config.profile`` is on), host info and ``git describe``.  Ledger
    failures are logged, never raised — a finished run always returns.
    """
    config = config if config is not None else ExperimentConfig.default()
    if config.splitter not in _SPLITTERS:
        raise ValueError(
            f"splitter must be one of {_SPLITTERS}, got {config.splitter!r}"
        )
    config = _apply_splitter(config)
    if config.on_error not in ("raise", "capture"):
        raise ValueError(
            f"on_error must be 'raise' or 'capture', got {config.on_error!r}"
        )
    if config.degradation not in DEGRADATION_POLICIES:
        raise ValueError(
            f"degradation must be one of {DEGRADATION_POLICIES}, "
            f"got {config.degradation!r}"
        )
    # Fail fast on malformed supervision knobs (the resolvers raise)
    # rather than hours later at the scenario fan-out.
    resolve_task_timeout(config.task_timeout)
    resolve_task_retries(config.task_retries)
    started = time.perf_counter()
    started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    tracer = tracer if tracer is not None else Tracer()
    metrics = metrics if metrics is not None else MetricsRegistry()
    if config.verbose and not logging_configured():
        configure_logging(level="info")
    log = get_logger("pipeline")
    jobs = resolve_n_jobs(config.n_jobs)
    store = CacheStore(cache_dir) if cache_dir is not None else None
    profile = config.profile or resolve_profiling()
    dkey = None

    with use_tracer(tracer), use_metrics(metrics), \
            use_profiling(profile), profiled_span("experiment.run"):
        # The run is one dependency-aware task graph: dataset →
        # preflight → scenarios → per-scenario tasks.  Nodes carrying a
        # cache key are satisfied straight from the artifact store, and
        # the scenario wave is scheduled onto a persistent worker pool
        # whose shared dataset carries the matrices zero-copy.
        graph = TaskGraph()
        scenario_cache_hits = [0]

        def _cache_get(node_key, cache_key):
            if store is None:
                return False, None
            value = store.get(cache_key)
            if value is None:
                return False, None
            if node_key == "dataset":
                log.info("dataset.cached", seed=config.simulation.seed)
            elif node_key.startswith("scenario:"):
                scenario_cache_hits[0] += 1
            return True, value

        def _cache_put(node_key, cache_key, value):
            if store is not None:
                store.put(cache_key, value)

        degradation_report: DegradationReport | None = None
        provided_raw = raw
        if raw is None and store is not None:
            dkey = dataset_key(config.simulation, config.fault_plan,
                               config.degradation)

        def _dataset_stage():
            if provided_raw is not None:
                return provided_raw, None
            resilient = (config.fault_plan is not None
                         or config.degradation != "abort")
            log.info("dataset.generate", seed=config.simulation.seed,
                     resilient=resilient)
            if resilient:
                return resilient_raw_dataset(
                    config.simulation,
                    plan=config.fault_plan,
                    policy=config.degradation,
                    retry=config.source_retry,
                )
            return generate_raw_dataset(config.simulation), None

        graph.add("dataset", _dataset_stage, cache_key=dkey,
                  inline=True)
        graph.run(cache_get=_cache_get, cache_put=_cache_put)
        raw, degradation_report = graph.results["dataset"]

        def _preflight_stage():
            if config.validate_inputs:
                _preflight(raw, config, log, metrics)

        graph.add("preflight", _preflight_stage, deps=("dataset",),
                  inline=True)
        graph.run()

        # Range-granular digests tie every downstream cache entry to
        # the input bytes each period can actually see — covering
        # callers that pass their own ``raw``, and leaving every key
        # unchanged when rows are appended *after* a period's end (the
        # :mod:`repro.incremental` update path, which is what turns a
        # daily refresh into cache reads plus a handful of tail tasks).
        digests = (period_digests(raw, config.periods)
                   if store is not None else None)
        skey = None
        if store is not None:
            skey = scenarios_key(
                tuple(digests[p] for p in config.periods),
                config.periods, config.windows,
            )

        def _scenarios_stage():
            return build_all_scenarios(
                raw, periods=config.periods, windows=config.windows
            )

        graph.add("scenarios", _scenarios_stage, deps=("preflight",),
                  cache_key=skey, inline=True)
        log.info("scenarios.build", periods=",".join(config.periods),
                 windows=",".join(str(w) for w in config.windows),
                 jobs=jobs)
        with tracer.span("pipeline.scenarios"):
            graph.run(cache_get=_cache_get, cache_put=_cache_put)
        scenarios = graph.results["scenarios"]
        metrics.gauge("experiment.scenarios").set(len(scenarios))

        task_keys: dict[str, str] = {}
        if store is not None:
            task_keys = _scenario_task_keys(config, digests, scenarios)

        # The cache kwargs ride along only when a store is active, so
        # cacheless runs call the task with its historical signature.
        task_kwargs = {"config": config}
        if store is not None:
            task_kwargs.update(cache=store, task_keys=task_keys)
        # With a deadline configured (config or $REPRO_TASK_TIMEOUT),
        # one scenario per chunk so the clock measures a single
        # scenario, not a batch of them.
        deadline = resolve_task_timeout(config.task_timeout)
        mapper = ParallelMap(
            jobs,
            timeout=deadline,
            max_retries=config.task_retries,
            chunk_size=1 if deadline is not None else None,
        )
        # One persistent pool serves the whole fan-out.  Its shared
        # dataset publishes each scenario's matrices once; workers
        # attach instead of unpickling them per chunk.  Lazy: if every
        # node cache-hits, no process is forked.
        pool = None
        if jobs > 1 and len(scenarios) > 1 and not in_worker():
            pool = WorkerPool(n_jobs=jobs,
                              warmup=_warm_scenario_worker)
        for key, scenario in scenarios.items():
            shipped = scenario
            if pool is not None:
                shipped = replace(
                    scenario,
                    X=pool.dataset.share(scenario.X),
                    y=pool.dataset.share(scenario.y),
                )
            graph.add(
                f"scenario:{key}",
                partial(_scenario_task, (key, shipped), **task_kwargs),
                deps=("scenarios",),
                cache_key=task_keys.get(key),
                store_result=False,  # the worker already cache.put()s
            )
        try:
            pool_scope = (use_pool(pool) if pool is not None
                          else nullcontext())
            with pool_scope:
                graph.run(
                    mapper=mapper,
                    cache_get=_cache_get,
                    cache_put=_cache_put,
                    return_exceptions=(config.on_error == "capture"),
                )
        finally:
            if pool is not None:
                pool.close()
        if scenario_cache_hits[0]:
            metrics.counter("experiment.scenarios_cached").inc(
                scenario_cache_hits[0]
            )
            log.info("scenario.cached", hits=scenario_cache_hits[0],
                     remaining=len(scenarios) - scenario_cache_hits[0])

        by_key: dict[str, tuple] = {}
        failures: dict[str, ScenarioFailure] = {}
        for node_key, failure in graph.failures.items():
            if not node_key.startswith("scenario:"):
                continue
            key = node_key.split(":", 1)[1]
            failures[key] = ScenarioFailure(
                key=key,
                error_type=failure.error_type,
                message=failure.message,
                traceback=failure.traceback,
            )
            metrics.counter("experiment.scenario_failures").inc()
            log.error("scenario.failed", scenario=key,
                      error=failure.error_type,
                      message=failure.message)
        for key in scenarios:
            node_key = f"scenario:{key}"
            if node_key in graph.results:
                by_key[key] = graph.results[node_key]

        artifacts: dict[str, ScenarioArtifacts] = {}
        improvements_rf: list[ScenarioImprovement] = []
        improvements_gb: list[ScenarioImprovement] = []
        for key in scenarios:  # canonical order, independent of n_jobs
            if key not in by_key:
                continue
            _, artifact, improvement_rf, improvement_gb = by_key[key]
            artifacts[key] = artifact
            improvements_rf.append(improvement_rf)
            if improvement_gb is not None:
                improvements_gb.append(improvement_gb)

    runtime = time.perf_counter() - started
    log.info("experiment.done", scenarios=len(artifacts),
             failed=len(failures), runtime_s=runtime)
    if ledger_path is not None:
        snapshot = metrics.snapshot()
        cache_info = {
            name.split(".", 1)[1]: value
            for name, value in snapshot["counters"].items()
            if name.startswith("cache.")
        }
        if dkey is not None:
            cache_info["dataset_key"] = dkey
        if store is not None and digests is not None:
            cache_info["dataset_digest"] = frame_digest(raw.features)
            for period, digest in digests.items():
                cache_info[f"period_digest_{period}"] = digest
        record = RunRecord(
            kind="run",
            status="ok" if not failures else "partial",
            started_at=started_at,
            duration_s=round(runtime, 6),
            fingerprint=run_fingerprint(config),
            seed=config.simulation.seed,
            labels={
                "periods": ",".join(config.periods),
                "windows": ",".join(str(w) for w in config.windows),
                "splitter": config.splitter,
                "jobs": jobs,
            },
            cache=cache_info,
            stages=stage_rows(tracer.spans),
            metrics=snapshot,
            host=host_info(),
            git=git_describe(),
            extra={"scenarios": len(artifacts),
                   "failures": sorted(failures)},
        )
        try:
            RunLedger(ledger_path).append(record)
        except OSError as exc:
            # The experiment finished; a broken ledger must not
            # retroactively fail it.
            log.warning("ledger.append_failed", path=ledger_path,
                        error=str(exc))
    return ExperimentResults(
        config=config,
        raw=raw,
        artifacts=artifacts,
        improvements_rf=improvements_rf,
        improvements_gb=improvements_gb,
        runtime_seconds=runtime,
        run_summary=RunSummary(spans=tracer.spans,
                               metrics=metrics.snapshot()),
        failures=failures,
        degradation=degradation_report,
    )
