"""A scenario task's cache entry holds what the task computed, not its
inputs.

One cold ``fast``-preset study fills a cache; warm reruns at one and two
jobs, a chained one-day update and a faulted run then read it back or
add to it.  Every entry stays small, a cached update reads exactly its
task entries, and the matrices each task fitted on are rebuilt byte for
byte from the run's own dataset with ``build_scenario``.  The study
periods are shortened (monkeypatch) to end at the simulation's last day,
as the ``default`` preset's periods do, so the appended days land
outside every period and the updates are served from the cache.
"""

import dataclasses
import os
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.pipeline as pipeline
import repro.core.scenarios as scenarios
from repro.cache import CacheStore
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.core.scenarios import ScenarioInfo, build_scenario
from repro.incremental import update_experiment
from repro.resilience import random_fault_plan

#: The most one task entry may take on disk: results, not matrices.
ENTRY_LIMIT = 64 * 1024


@pytest.fixture(scope="module")
def study(tmp_path_factory, record_cache_reads):
    config = dataclasses.replace(ExperimentConfig.fast(), n_jobs=2)
    built = []  # every build_all_scenarios result, in call order
    real_build = pipeline.build_all_scenarios

    def build_spy(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    mp = pytest.MonkeyPatch()
    for period, (start, _) in list(scenarios.PERIODS.items()):
        mp.setitem(scenarios.PERIODS, period,
                   (start, config.simulation.end))
    mp.setattr(pipeline, "build_all_scenarios", build_spy)
    try:
        cache = str(tmp_path_factory.mktemp("task-entries") / "cache")
        runs = {"cold": run_experiment(config, cache_dir=cache)}
        for jobs in (1, 2):
            runs[f"warm-{jobs}"] = run_experiment(
                dataclasses.replace(config, n_jobs=jobs), cache_dir=cache)
        first = update_experiment(config, days=1, cache_dir=cache)
        with record_cache_reads() as chained_reads:
            chained = update_experiment(first.config, days=1,
                                        raw=first.results.raw,
                                        cache_dir=cache)
        runs["chained"] = chained.results
        cached_builds = len(built) - 1
        faulted = dataclasses.replace(
            config,
            fault_plan=random_fault_plan(
                11, ["sentiment", "macro", "onchain_btc"]
            ),
            degradation="fill",
            periods=("2019",),
            windows=(7,),
        )
        runs["faulted"] = run_experiment(faulted, cache_dir=cache)
        # The scenarios each run's tasks were fitted on: the cold run's
        # for every clean run, which only reads the cold run's entries.
        fitted = {label: built[0] for label in runs}
        fitted["faulted"] = built[-1]
        yield SimpleNamespace(
            cache=cache, runs=runs, fitted=fitted, chained=chained,
            chained_reads=chained_reads, cached_builds=cached_builds,
        )
    finally:
        mp.undo()


class TestReadBudget:
    def test_cold_run_writes_the_dataset_and_one_entry_per_task(
            self, study):
        cold = study.runs["cold"]
        counters = cold.run_summary.metrics["counters"]
        assert counters["cache.writes"] == 1 + len(cold.artifacts) == 5

    def test_chained_update_reads_only_its_task_entries(
            self, study, cache_entry_keys):
        results = study.chained.results
        assert study.chained.dataset_reused
        assert study.chained.scenarios_cached == 4
        tasks = list(cache_entry_keys(results.config,
                                      results.raw).tasks.values())
        assert study.chained_reads == tasks
        store = CacheStore(study.cache)
        sizes = [os.path.getsize(store._path_for(key)) for key in tasks]
        assert all(size < ENTRY_LIMIT for size in sizes), sizes
        counters = results.run_summary.metrics["counters"]
        assert counters["cache.hits"] == len(tasks)
        assert counters["cache.bytes_read"] == sum(sizes)

    def test_no_cached_run_builds_a_scenario(self, study):
        assert study.cached_builds == 0


@pytest.mark.parametrize(
    "label", ["cold", "warm-1", "warm-2", "chained", "faulted"])
class TestRebuiltScenarios:
    def test_artifacts_carry_no_matrices(self, study, label):
        for art in study.runs[label].artifacts.values():
            assert type(art.scenario) is ScenarioInfo

    def test_rebuild_is_byte_equal_to_the_fitted_scenario(self, study,
                                                          label):
        results = study.runs[label]
        fitted = study.fitted[label]
        assert set(results.artifacts) == set(fitted)
        for key, art in results.artifacts.items():
            info = art.scenario
            rebuilt = build_scenario(results.raw, info.period, info.window)
            expected = fitted[key]
            for name in ("X", "y"):
                got, want = getattr(rebuilt, name), getattr(expected, name)
                assert got.dtype == want.dtype == np.float64
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (key, name)
            assert rebuilt.info == expected.info == info
            assert rebuilt.cleaning_report == info.cleaning_report
