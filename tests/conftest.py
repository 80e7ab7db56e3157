"""Repository-wide shared fixtures.

The small simulated dataset is used by test modules across packages
(synth generators, frame validation, core pipeline pieces); hosting it
here keeps it session-scoped and built exactly once.  The cache-read
helpers serve the pipeline and incremental-update tests, which both
check which store entries a run reads.
"""

import contextlib
from types import SimpleNamespace

import pytest

from repro.cache import CacheStore, dataset_key
from repro.core.pipeline import _scenario_task_keys
from repro.core.scenarios import period_digests, scenario_key
from repro.synth import SimulationConfig, generate_raw_dataset


@pytest.fixture(scope="session")
def small_config():
    """Two simulated years — enough structure, fast to generate."""
    return SimulationConfig(
        start="2018-01-01", end="2019-12-31", seed=123, n_assets=110,
    )


@pytest.fixture(scope="session")
def small_raw(small_config):
    return generate_raw_dataset(small_config)


@pytest.fixture(scope="session")
def record_cache_reads():
    """Context-manager factory yielding the list of keys every
    ``CacheStore.get`` inside it asked for, in call order."""

    @contextlib.contextmanager
    def record():
        keys = []
        real_get = CacheStore.get

        def get(self, key, default=None):
            keys.append(key)
            return real_get(self, key, default)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CacheStore, "get", get)
            yield keys

    return record


@pytest.fixture(scope="session")
def cache_entry_keys():
    """``keys(config, raw)``: the store addresses a run of ``config``
    over ``raw`` uses — ``dataset`` and ``tasks`` (scenario key →
    address, in canonical order)."""

    def keys(config, raw):
        digests = period_digests(raw, config.periods)
        return SimpleNamespace(
            dataset=dataset_key(config.simulation, config.fault_plan,
                                config.degradation),
            tasks=_scenario_task_keys(config, digests, [
                scenario_key(period, window)
                for period in config.periods for window in config.windows
            ]),
        )

    return keys
