"""Pipeline-level resilience: failure isolation, resume from the cache,
pre-flight validation, and fault determinism across worker counts.

The configs here are deliberately tiny (one window, no GB pass) so each
full ``run_experiment`` call stays in the seconds range.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro import ExperimentConfig, run_experiment
from repro.core.pipeline import ScenarioFailure, _preflight
from repro.obs import MetricsRegistry, Tracer, get_logger, use_metrics, \
    use_tracer
from repro.resilience import random_fault_plan
from repro.synth import generate_raw_dataset

_ORIGINAL_TASK = pipeline_module._scenario_task

#: Scenario the injected-failure wrapper kills (first in build order).
FAIL_KEY = "2017_7"


def _failing_task(item, config, **kwargs):
    key, _scenario = item
    if key == FAIL_KEY:
        raise RuntimeError(f"injected failure for {key}")
    return _ORIGINAL_TASK(item, config, **kwargs)


@pytest.fixture(scope="module")
def tiny_config():
    config = ExperimentConfig.fast()
    return dataclasses.replace(
        config,
        simulation=dataclasses.replace(
            config.simulation, end="2019-12-31"
        ),
        windows=(7,),
        run_gb_validation=False,
        n_jobs=1,
    )


@pytest.fixture(scope="module")
def tiny_raw(tiny_config):
    return generate_raw_dataset(tiny_config.simulation)


@pytest.fixture(scope="module")
def fault_plan():
    return random_fault_plan(
        11, ["sentiment", "macro", "onchain_btc"]
    )


@pytest.fixture(scope="module")
def faulted_config(tiny_config, fault_plan):
    return dataclasses.replace(
        tiny_config, fault_plan=fault_plan, degradation="fill"
    )


@pytest.fixture(scope="module")
def faulted_serial_results(faulted_config):
    """One uninterrupted serial faulted run, shared by several tests."""
    return run_experiment(faulted_config)


class TestArgumentValidation:
    def test_bad_on_error_rejected(self, tiny_config):
        config = dataclasses.replace(tiny_config, on_error="retry")
        with pytest.raises(ValueError, match="on_error"):
            run_experiment(config)

    def test_bad_degradation_rejected(self, tiny_config):
        config = dataclasses.replace(tiny_config, degradation="hope")
        with pytest.raises(ValueError, match="degradation"):
            run_experiment(config)


class TestFailureIsolation:
    def test_capture_keeps_other_scenarios(self, monkeypatch,
                                           tiny_config, tiny_raw):
        monkeypatch.setattr(pipeline_module, "_scenario_task",
                            _failing_task)
        config = dataclasses.replace(tiny_config, on_error="capture")
        results = run_experiment(config, raw=tiny_raw)
        assert set(results.failures) == {FAIL_KEY}
        failure = results.failures[FAIL_KEY]
        assert isinstance(failure, ScenarioFailure)
        assert failure.error_type == "RuntimeError"
        assert "injected failure" in failure.message
        assert "injected failure" in failure.traceback
        assert set(results.artifacts) == {"2019_7"}
        assert len(results.improvements_rf) == 1
        assert not results.complete
        counters = results.run_summary.metrics["counters"]
        assert counters["experiment.scenario_failures"] == 1

    def test_capture_across_process_workers(self, monkeypatch,
                                            tiny_config, tiny_raw):
        monkeypatch.setattr(pipeline_module, "_scenario_task",
                            _failing_task)
        config = dataclasses.replace(
            tiny_config, on_error="capture", n_jobs=2
        )
        results = run_experiment(config, raw=tiny_raw)
        assert set(results.failures) == {FAIL_KEY}
        assert "injected failure" in results.failures[FAIL_KEY].traceback
        assert set(results.artifacts) == {"2019_7"}

    def test_default_raise_aborts_the_run(self, monkeypatch,
                                          tiny_config, tiny_raw):
        monkeypatch.setattr(pipeline_module, "_scenario_task",
                            _failing_task)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiment(tiny_config, raw=tiny_raw)

    def test_clean_run_is_complete(self, faulted_serial_results):
        assert faulted_serial_results.complete
        assert faulted_serial_results.failures == {}


class TestDegradedRun:
    def test_degradation_report_attached(self, faulted_serial_results):
        report = faulted_serial_results.degradation
        assert report is not None
        assert report.policy == "fill"
        assert report.total_faults() > 0

    def test_fault_counters_in_run_summary(self, faulted_serial_results):
        counters = faulted_serial_results.run_summary.metrics["counters"]
        fault_counters = [name for name in counters
                          if name.startswith("resilience.fault.")]
        assert fault_counters
        assert counters.get("resilience.filled_values", 0) > 0

    def test_plain_run_has_no_degradation_report(
            self, tiny_config, tiny_raw, faulted_serial_results):
        # raw passed in → resilience assembly never ran
        assert faulted_serial_results.degradation is not None
        results = run_experiment(tiny_config, raw=tiny_raw)
        assert results.degradation is None


class TestFaultDeterminismAcrossJobs:
    def test_results_identical_for_any_n_jobs(
            self, faulted_config, faulted_serial_results):
        parallel = run_experiment(
            dataclasses.replace(faulted_config, n_jobs=2)
        )
        np.testing.assert_array_equal(
            parallel.raw.features.to_matrix(),
            faulted_serial_results.raw.features.to_matrix(),
        )
        assert parallel.improvements_rf == \
            faulted_serial_results.improvements_rf
        assert set(parallel.artifacts) == \
            set(faulted_serial_results.artifacts)
        for key, artifact in parallel.artifacts.items():
            reference = faulted_serial_results.artifacts[key]
            assert artifact.selection.final_features == \
                reference.selection.final_features
            assert artifact.rf_importance == reference.rf_importance


def _failing_task_second(item, config, **kwargs):
    """Complete the first scenario, die on the second — a deterministic
    stand-in for a mid-run kill (scenario one's result is already in the
    cache when the 'kill' happens)."""
    key, _scenario = item
    if key == "2019_7":
        raise RuntimeError(f"injected failure for {key}")
    return _ORIGINAL_TASK(item, config, **kwargs)


def _scenarios_cached(results) -> int:
    counters = results.run_summary.metrics["counters"]
    return counters.get("experiment.scenarios_cached", 0)


@pytest.fixture(scope="module")
def killed_then_resumed(tmp_path_factory, faulted_config):
    """A run killed on its second scenario, then rerun with the same
    cache: ``(cache_dir, rerun results)``."""
    cache_dir = str(tmp_path_factory.mktemp("resume") / "cache")
    patch = pytest.MonkeyPatch()
    patch.setattr(pipeline_module, "_scenario_task", _failing_task_second)
    try:
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiment(faulted_config, cache_dir=cache_dir)
    finally:
        patch.undo()
    return cache_dir, run_experiment(faulted_config, cache_dir=cache_dir)


class TestCheckpointResume:
    """Resume is "rerun with the same cache": every scenario a killed
    run finished was cached as it completed."""

    def test_kill_and_resume_matches_uninterrupted(
            self, killed_then_resumed, faulted_serial_results):
        _cache_dir, resumed = killed_then_resumed
        # only the scenario the kill interrupted is recomputed
        assert _scenarios_cached(resumed) == 1
        assert resumed.complete
        assert set(resumed.artifacts) == {"2017_7", "2019_7"}
        assert resumed.table1_vector_sizes() == \
            faulted_serial_results.table1_vector_sizes()
        assert resumed.improvements_rf == \
            faulted_serial_results.improvements_rf
        for key, artifact in resumed.artifacts.items():
            reference = faulted_serial_results.artifacts[key]
            assert artifact.selection.final_features == \
                reference.selection.final_features
            assert artifact.rf_importance == reference.rf_importance

    def test_resume_tolerates_jobs_changes(self, killed_then_resumed,
                                           faulted_config):
        cache_dir, resumed = killed_then_resumed
        rerun = run_experiment(
            dataclasses.replace(faulted_config, n_jobs=2),
            cache_dir=cache_dir,
        )
        assert _scenarios_cached(rerun) == 2
        assert rerun.improvements_rf == resumed.improvements_rf

    def test_resume_under_keep_going(self, killed_then_resumed,
                                     faulted_config):
        cache_dir, resumed = killed_then_resumed
        rerun = run_experiment(
            dataclasses.replace(faulted_config, on_error="capture"),
            cache_dir=cache_dir,
        )
        assert _scenarios_cached(rerun) == 2
        assert rerun.improvements_rf == resumed.improvements_rf

    def test_resume_with_different_config_recomputes(
            self, killed_then_resumed, faulted_config):
        cache_dir, _resumed = killed_then_resumed
        other = dataclasses.replace(faulted_config, top_k=20)
        rerun = run_experiment(other, cache_dir=cache_dir)
        assert _scenarios_cached(rerun) == 0
        assert rerun.complete


class TestPreflight:
    def _bad_raw(self, tiny_raw):
        column = tiny_raw.features.columns[0]
        poisoned = np.array(tiny_raw.features[column], copy=True)
        poisoned[5] = np.inf
        features = tiny_raw.features.with_column(column, poisoned)
        return dataclasses.replace(tiny_raw, features=features)

    def test_strict_validation_raises_before_any_fitting(
            self, tiny_config, tiny_raw):
        config = dataclasses.replace(tiny_config, strict_validation=True)
        with pytest.raises(ValueError, match="validation failed"):
            run_experiment(config, raw=self._bad_raw(tiny_raw))

    def test_warn_mode_counts_but_does_not_raise(self, tiny_config,
                                                 tiny_raw):
        config = dataclasses.replace(tiny_config,
                                     strict_validation=False)
        metrics = MetricsRegistry()
        tracer = Tracer()
        with use_metrics(metrics), use_tracer(tracer):
            _preflight(self._bad_raw(tiny_raw), config,
                       get_logger("test"), metrics)
        assert metrics.snapshot()["counters"]["preflight.issues"] >= 1

    def test_clean_raw_has_zero_issues(self, faulted_serial_results):
        counters = faulted_serial_results.run_summary.metrics["counters"]
        # fill policy repaired the dataset before preflight saw it, and
        # the preflight rules tolerate the NaNs that remain
        assert "preflight.issues" in counters
        names = [s.name for s in faulted_serial_results.run_summary.spans]
        assert "pipeline.preflight" in names

    def test_validation_can_be_disabled(self, tiny_config, tiny_raw):
        config = dataclasses.replace(
            tiny_config, validate_inputs=False, strict_validation=True
        )
        # bad data + strict, but validation off → no preflight error
        results = run_experiment(config, raw=tiny_raw)
        names = [s.name for s in results.run_summary.spans]
        assert "pipeline.preflight" not in names
