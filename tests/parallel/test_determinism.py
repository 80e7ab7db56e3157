"""Bit-identical results wherever the work runs — the layer's contract.

Parallelism happens in one place, the pipeline's per-scenario fan-out,
so every estimator a scenario runs may execute either in the parent
(``n_jobs=1``) or inside a pool worker, under worker-local obs sinks
and the nested-map guard.  These tests compute each stage both ways
and compare with ``==`` on the raw floats: no tolerances.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.core.fra import FRAConfig, fra_reduce
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.core.selection import SHAPConfig
from repro.core.improvement import ImprovementConfig
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.importance import permutation_importance
from repro.ml.model_selection import GridSearchCV, KFold
from repro.ml.shap import shap_importance
from repro.parallel import ParallelMap
from repro.synth.config import SimulationConfig


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(90, 12))
    y = X[:, 0] * 2.0 - X[:, 3] + 0.1 * rng.normal(size=90)
    return X, y


def _in_workers(fn):
    """``fn()`` computed by each of two fan-out worker processes."""
    return ParallelMap(2).map(_call, [fn, fn])


def _call(fn):
    return fn()


def _forest(X, y):
    return RandomForestRegressor(
        n_estimators=9, max_depth=6, max_features="sqrt", random_state=3,
    ).fit(X, y)


def _forest_outputs(X, y):
    model = _forest(X, y)
    return model.predict(X), model.feature_importances_


def _pfi(X, y):
    return permutation_importance(
        _forest(X, y), X, y, n_repeats=3, random_state=11
    )


def _grid(X, y):
    search = GridSearchCV(
        RandomForestRegressor(random_state=0),
        {"n_estimators": [5, 9], "max_depth": [4, 7]},
        cv=KFold(3, shuffle=True, random_state=0), refit=False,
    ).fit(X, y)
    return (search.best_params_, search.best_score_,
            [c["mean_score"] for c in search.cv_results_])


def _shap(X, y):
    model = GradientBoostingRegressor(
        n_estimators=8, max_depth=3, random_state=0
    ).fit(X, y)
    return shap_importance(model, X, max_samples=30, random_state=0)


def _fra(X, y):
    names = [f"f{i}" for i in range(X.shape[1])]
    result = fra_reduce(X, y, names, FRAConfig(
        target_size=6, pfi_repeats=2, pfi_max_rows=60,
        rf_params={"n_estimators": 6, "max_depth": 5,
                   "max_features": "sqrt", "min_samples_leaf": 2},
        gb_params={"n_estimators": 8, "max_depth": 3,
                   "learning_rate": 0.2, "max_features": "sqrt",
                   "subsample": 0.8, "reg_lambda": 1.0},
    ))
    return result.selected, result.importances, result.history


class TestForestDeterminism:
    def test_predictions_bit_identical(self, data):
        X, y = data
        serial, _ = _forest_outputs(X, y)
        for predictions, _ in _in_workers(partial(_forest_outputs, X, y)):
            assert np.array_equal(serial, predictions)

    def test_importances_bit_identical(self, data):
        X, y = data
        _, serial = _forest_outputs(X, y)
        for _, importances in _in_workers(partial(_forest_outputs, X, y)):
            assert np.array_equal(serial, importances)


class TestPFIDeterminism:
    def test_values_bit_identical(self, data):
        X, y = data
        serial = _pfi(X, y)
        for values in _in_workers(partial(_pfi, X, y)):
            assert np.array_equal(serial, values)


class TestGridSearchDeterminism:
    def test_winner_and_scores_identical(self, data):
        X, y = data
        serial = _grid(X, y)
        for fanned in _in_workers(partial(_grid, X, y)):
            assert fanned == serial


class TestSHAPDeterminism:
    def test_importance_bit_identical(self, data):
        X, y = data
        serial = _shap(X, y)
        for values in _in_workers(partial(_shap, X, y)):
            assert np.array_equal(serial, values)


class TestFRADeterminism:
    def test_selected_features_identical(self, data):
        X, y = data
        serial = _fra(X, y)
        for fanned in _in_workers(partial(_fra, X, y)):
            assert fanned == serial


def _tiny_pipeline_config(n_jobs):
    """A complete but minimal experiment: one period, one window."""
    return ExperimentConfig(
        simulation=SimulationConfig(
            start="2018-06-01", end="2020-06-30", seed=5, n_assets=105,
        ),
        fra=FRAConfig(
            target_size=15, pfi_repeats=1, pfi_max_rows=80,
            rf_params={"n_estimators": 5, "max_depth": 6,
                       "max_features": "sqrt", "min_samples_leaf": 2},
            gb_params={"n_estimators": 8, "max_depth": 3,
                       "learning_rate": 0.2, "max_features": "sqrt",
                       "subsample": 0.8, "reg_lambda": 1.0},
        ),
        shap=SHAPConfig(
            gb_params={"n_estimators": 6, "max_depth": 3,
                       "learning_rate": 0.2, "subsample": 0.8,
                       "reg_lambda": 1.0},
            max_rows=12,
        ),
        improvement_rf=ImprovementConfig(
            model="rf",
            param_grid={"n_estimators": [6], "max_depth": [6],
                        "max_features": ["sqrt"]},
            cv_folds=3,
        ),
        top_k=10,
        periods=("2019",),
        windows=(7,),
        run_gb_validation=False,
        rf_importance_params={"n_estimators": 6, "max_depth": 6,
                              "max_features": "sqrt",
                              "min_samples_leaf": 2},
        n_jobs=n_jobs,
    )


class TestPipelineDeterminism:
    def test_full_run_identical_across_jobs(self):
        serial = run_experiment(_tiny_pipeline_config(1))
        parallel = run_experiment(_tiny_pipeline_config(2))

        assert serial.table1_vector_sizes() == \
            parallel.table1_vector_sizes()
        assert serial.mean_shap_overlap() == parallel.mean_shap_overlap()
        assert serial.table5_improvement_by_window("2019") == \
            parallel.table5_improvement_by_window("2019")
        key = next(iter(serial.artifacts))
        assert serial.artifacts[key].selection.final_features == \
            parallel.artifacts[key].selection.final_features
        assert serial.artifacts[key].rf_importance == \
            parallel.artifacts[key].rf_importance

        # Worker telemetry merges back: same span multiset, single root,
        # every parent resolvable.
        names = sorted(s.name for s in serial.run_summary.spans)
        assert names == sorted(
            s.name for s in parallel.run_summary.spans
        )
        roots = [s for s in parallel.run_summary.spans
                 if s.parent_id is None]
        assert [s.name for s in roots] == ["experiment.run"]
        ids = {s.span_id for s in parallel.run_summary.spans}
        assert all(s.parent_id in ids for s in parallel.run_summary.spans
                   if s.parent_id is not None)

    def test_config_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        config = _tiny_pipeline_config(None)
        results = run_experiment(dataclasses.replace(config, n_jobs=None))
        assert results.table1_vector_sizes()
