"""run_fingerprint: the config digest that keys the cache and the ledger.

Execution-shape fields must never move a fingerprint or a scenario task
key — a killed run resumes from its cache whatever flags the rerun
uses — while every field that changes results must move both.
"""

import dataclasses
from functools import lru_cache

import pytest

import repro.core.pipeline as pipeline_module
from repro import ExperimentConfig
from repro.cache import config_fingerprint
from repro.core.pipeline import _scenario_task_keys, run_fingerprint
from repro.core.scenarios import period_digests
from repro.resilience import random_fault_plan
from repro.synth import generate_raw_dataset

BASE = ExperimentConfig.fast()
SCENARIOS = [f"{p}_{w}" for p in BASE.periods for w in BASE.windows]

#: Fields that can change how a run executes but never a successful
#: scenario's result, with a non-default value for each.
EXECUTION_SHAPE = {
    "n_jobs": 4,
    "verbose": True,
    "task_timeout": 30.0,
    "task_retries": 2,
    "on_error": "capture",
    "validate_inputs": False,
    "strict_validation": True,
}

RESULT_FIELDS = {
    "top_k": lambda c: dataclasses.replace(c, top_k=20),
    "splitter": lambda c: dataclasses.replace(c, splitter="hist"),
    "simulation.seed": lambda c: dataclasses.replace(
        c, simulation=dataclasses.replace(c.simulation, seed=7)
    ),
    "fault_plan": lambda c: dataclasses.replace(
        c, fault_plan=random_fault_plan(3, ["macro"])
    ),
}


@lru_cache(maxsize=None)
def _digests(seed):
    simulation = dataclasses.replace(BASE.simulation, seed=seed)
    return period_digests(generate_raw_dataset(simulation), BASE.periods)


def _task_keys(config):
    """Task keys as the pipeline derives them: from the config and the
    period digests of the data that config generates (only the seed
    varies across these tests)."""
    return _scenario_task_keys(config, _digests(config.simulation.seed),
                               SCENARIOS)


class TestFingerprint:
    def test_stable_for_equal_configs(self):
        a = ExperimentConfig.fast()
        b = ExperimentConfig.fast()
        assert config_fingerprint(a) == config_fingerprint(b)
        assert run_fingerprint(a) == run_fingerprint(b)

    def test_differs_across_configs(self):
        a = ExperimentConfig.fast(seed=1)
        b = ExperimentConfig.fast(seed=2)
        assert config_fingerprint(a) != config_fingerprint(b)
        assert run_fingerprint(a) != run_fingerprint(b)

    def test_every_execution_shape_field_is_covered(self):
        assert set(pipeline_module._EXECUTION_SHAPE) == set(EXECUTION_SHAPE)

    def test_worker_count_lives_only_at_the_top_level(self):
        # _EXECUTION_SHAPE normalises top-level fields only, so a worker
        # count nested in a sub-config would leak into repr(config)
        # and split the cache between runs with identical results.
        def nested_fields(obj, path):
            for field in dataclasses.fields(obj):
                value = getattr(obj, field.name)
                yield f"{path}.{field.name}"
                items = value if isinstance(value, (list, tuple)) else [value]
                for item in items:
                    if dataclasses.is_dataclass(item):
                        yield from nested_fields(item, f"{path}.{field.name}")

        found = {
            name for config in (ExperimentConfig(), BASE)
            for name in nested_fields(config, "config")
            if name.endswith(".n_jobs")
        }
        assert found == {"config.n_jobs"}


class TestExecutionShapeIsIgnored:
    @pytest.mark.parametrize("name", sorted(EXECUTION_SHAPE))
    def test_fingerprint_and_task_keys_unchanged(self, name):
        changed = dataclasses.replace(BASE, **{name: EXECUTION_SHAPE[name]})
        assert changed != BASE
        assert run_fingerprint(changed) == run_fingerprint(BASE)
        assert _task_keys(changed) == _task_keys(BASE)


class TestResultFieldsMoveKeys:
    @pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
    def test_fingerprint_and_task_keys_change(self, name):
        changed = RESULT_FIELDS[name](BASE)
        assert run_fingerprint(changed) != run_fingerprint(BASE)
        base_keys = _task_keys(BASE)
        changed_keys = _task_keys(changed)
        for scenario in SCENARIOS:
            assert changed_keys[scenario] != base_keys[scenario]
