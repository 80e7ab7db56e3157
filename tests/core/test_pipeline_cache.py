"""Pipeline-level artifact caching and splitter propagation.

The expensive assertions share three module-scoped runs of a trimmed
one-scenario experiment: uncached, cold-cache and warm-cache. The
headline contract is that all three are bit-identical — the cache may
only change *when* work happens, never its result.
"""

import dataclasses
import shutil

import pytest

from repro.cache import CacheStore
from repro.core.pipeline import (
    ExperimentConfig,
    _apply_splitter,
    run_experiment,
)


@pytest.fixture(scope="module")
def mini_config():
    config = ExperimentConfig.fast()
    return dataclasses.replace(
        config,
        simulation=dataclasses.replace(config.simulation,
                                       end="2019-12-31"),
        periods=("2017",),
        windows=(7,),
        run_gb_validation=False,
        n_jobs=1,
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact-cache")


@pytest.fixture(scope="module")
def uncached(mini_config):
    return run_experiment(mini_config)


@pytest.fixture(scope="module")
def cold(mini_config, cache_dir):
    return run_experiment(mini_config, cache_dir=str(cache_dir))


@pytest.fixture(scope="module")
def warm_run(mini_config, cache_dir, cold, record_cache_reads):
    with record_cache_reads() as reads:
        results = run_experiment(mini_config, cache_dir=str(cache_dir))
    return results, reads


@pytest.fixture(scope="module")
def warm(warm_run):
    return warm_run[0]


def _signature(results):
    """Everything the paper's tables read, hashably."""
    out = {}
    for key, art in results.artifacts.items():
        out[key] = (
            tuple(art.selection.final_features),
            art.selection.overlap_top100,
            tuple(sorted(art.rf_importance.items())),
        )
    out["improvements"] = tuple(
        (imp.period, imp.window, imp.diverse_mse,
         tuple(sorted((c.value, m) for c, m in imp.category_mse.items())))
        for imp in results.improvements_rf
    )
    return out


class TestCachedRunEquivalence:
    def test_cold_equals_uncached(self, uncached, cold):
        assert _signature(cold) == _signature(uncached)

    def test_warm_equals_uncached(self, uncached, warm):
        assert _signature(warm) == _signature(uncached)

    def test_cold_run_populates_the_store(self, cold, cache_dir):
        counters = cold.run_summary.metrics["counters"]
        assert counters["cache.writes"] > 0
        assert counters["cache.misses"] > 0
        assert "cache.hits" not in counters
        assert CacheStore(cache_dir).entry_count() > 0

    def test_cold_run_stores_one_entry_per_task(self, cold, cache_dir):
        # The scenario task is the one unit of reuse: a cold run writes
        # the dataset and one result per scenario, and nothing finer
        # (no scenario frames, no per-model fits, no compiled ensembles).
        expected = 1 + len(cold.artifacts)
        counters = cold.run_summary.metrics["counters"]
        assert counters["cache.writes"] == expected
        assert CacheStore(cache_dir).entry_count() == expected

    def test_warm_run_serves_scenarios_from_cache(self, warm):
        counters = warm.run_summary.metrics["counters"]
        assert counters["experiment.scenarios_cached"] == 1
        assert counters["cache.hits"] == 2  # dataset + task
        assert "cache.misses" not in counters
        assert "cache.writes" not in counters

    def test_warm_run_reads_dataset_and_tasks(
            self, warm_run, cache_entry_keys):
        # A cached task result carries everything the report reads, so
        # a warm run reads the dataset and every task entry once, and
        # nothing else.
        results, reads = warm_run
        keys = cache_entry_keys(results.config, results.raw)
        assert reads == [keys.dataset, *keys.tasks.values()]

    def test_config_change_invalidates_tasks_not_inputs(
            self, mini_config, cache_dir, warm, tmp_path):
        # A different top_k must re-run the scenario task, but the
        # dataset keeps hitting — layered keys invalidate only what
        # actually changed.  The run gets a copy of the store so the
        # shared one keeps only the cold entries.
        copy = tmp_path / "cache"
        shutil.copytree(cache_dir, copy)
        changed = dataclasses.replace(mini_config, top_k=25)
        results = run_experiment(changed, cache_dir=str(copy))
        counters = results.run_summary.metrics["counters"]
        assert "experiment.scenarios_cached" not in counters
        assert counters["cache.hits"] == 1  # the dataset
        assert counters["cache.writes"] == 1  # the new task result


class TestSplitterConfig:
    def test_invalid_splitter_rejected(self, mini_config):
        bad = dataclasses.replace(mini_config, splitter="gpu")
        with pytest.raises(ValueError, match="splitter"):
            run_experiment(bad)

    def test_exact_passes_through_unchanged(self, mini_config):
        assert _apply_splitter(mini_config) is mini_config

    def test_hist_lands_in_every_stage(self, mini_config):
        config = _apply_splitter(
            dataclasses.replace(mini_config, splitter="hist")
        )
        assert config.fra.rf_params["splitter"] == "hist"
        assert config.fra.gb_params["splitter"] == "hist"
        assert config.shap.gb_params["splitter"] == "hist"
        assert config.rf_importance_params["splitter"] == "hist"
        assert config.improvement_rf.param_grid["splitter"] == ["hist"]
        assert config.improvement_gb.param_grid["splitter"] == ["hist"]

    def test_explicit_pin_wins(self, mini_config):
        pinned = dataclasses.replace(
            mini_config,
            splitter="hist",
            rf_importance_params={**mini_config.rf_importance_params,
                                  "splitter": "exact"},
        )
        config = _apply_splitter(pinned)
        assert config.rf_importance_params["splitter"] == "exact"
        assert config.fra.rf_params["splitter"] == "hist"

    def test_idempotent(self, mini_config):
        once = _apply_splitter(
            dataclasses.replace(mini_config, splitter="hist")
        )
        assert _apply_splitter(once) == once

    def test_non_tree_families_untouched(self):
        config = dataclasses.replace(
            ExperimentConfig.fast(),
            splitter="hist",
            improvement_rf=dataclasses.replace(
                ExperimentConfig.fast().improvement_rf, model="mlp",
                param_grid=None,
            ),
        )
        applied = _apply_splitter(config)
        assert applied.improvement_rf.param_grid is None
