"""End-to-end ``update_experiment``: splice, cache re-serve, ledger chain.

The expensive fixtures run once per module: a cold experiment into a
fresh cache + ledger, a 2-day incremental update against them, and a
cold rerun of the extended configuration as the bit-identity
reference. The study period is shortened (monkeypatch) so it ends at
the parent simulation's last day — the property the ``default`` preset
has naturally — making the appended days land outside the period and
the range-granular cache keys re-serve every scenario.
"""

import dataclasses
import shutil
import weakref
from types import SimpleNamespace

import pytest

import repro.cache.keys as keys
import repro.core.scenarios as scenarios
import repro.frame.validation as validation
from repro.cache import CacheStore, dataset_key
from repro.core.pipeline import (
    _PREFLIGHT_RULES,
    ExperimentConfig,
    run_experiment,
    run_fingerprint,
)
from repro.frame import validate_frame
from repro.incremental import update_experiment
from repro.obs import RunLedger, render_record
from repro.synth import generate_raw_dataset
from repro.synth.config import SimulationConfig

DAYS = 2


def _config():
    return dataclasses.replace(
        ExperimentConfig.fast(),
        simulation=SimulationConfig(start="2016-06-01", end="2017-12-31",
                                    seed=9, n_assets=105),
        periods=("2017",), windows=(7, 30),
        n_jobs=1, verbose=False,
    )


def _improvement_rows(results):
    rows = []
    for model in ("rf", "gb"):
        for imp in getattr(results, f"improvements_{model}"):
            rows.append((
                model, imp.period, imp.window, imp.diverse_mse,
                tuple(sorted(
                    (str(cat), mse) for cat, mse in imp.category_mse.items()
                )),
            ))
    return sorted(rows)


@pytest.fixture(scope="module")
def study(tmp_path_factory, record_cache_reads):
    mp = pytest.MonkeyPatch()
    mp.setitem(scenarios.PERIODS, "2017", ("2017-01-01", "2017-12-31"))
    try:
        tmp = tmp_path_factory.mktemp("incremental")
        cache = str(tmp / "cache")
        ledger = str(tmp / "runs.jsonl")
        config = _config()
        cold = run_experiment(config, cache_dir=cache, ledger_path=ledger)
        with record_cache_reads() as update_reads:
            update = update_experiment(config, days=DAYS, cache_dir=cache,
                                       ledger_path=ledger)
        reference = run_experiment(update.config)
        yield SimpleNamespace(
            config=config, cache=cache, ledger=ledger,
            cold=cold, update=update, update_reads=update_reads,
            reference=reference,
        )
    finally:
        mp.undo()


class TestUpdateEndToEnd:
    def test_dataset_spliced_from_cache(self, study):
        assert study.update.dataset_reused
        assert study.update.days == DAYS

    def test_every_scenario_served_from_cache(self, study):
        assert study.update.scenarios_total == 2
        assert study.update.scenarios_cached == 2

    def test_bit_identical_to_cold_rerun(self, study):
        assert (_improvement_rows(study.update.results)
                == _improvement_rows(study.reference))

    def test_much_cheaper_than_cold(self, study):
        # Loose factor: the update reads two cached artifacts instead
        # of fitting two scenarios, so even noisy hosts clear 5x.
        assert (study.update.runtime_seconds
                < study.cold.runtime_seconds / 5)

    def test_extended_config_end_moved(self, study):
        assert study.update.config.simulation.end == "2018-01-02"

    def test_update_reads_the_parent_dataset_and_each_task(
            self, study, cache_entry_keys):
        # The parent dataset entry (no ``raw`` was passed), then one
        # read per task entry, and nothing else.
        parent = cache_entry_keys(study.config, study.cold.raw)
        extended = cache_entry_keys(study.update.results.config,
                                    study.update.results.raw)
        assert extended.tasks == parent.tasks
        assert study.update_reads == [parent.dataset,
                                      *extended.tasks.values()]
        counters = study.update.results.run_summary.metrics["counters"]
        assert counters["cache.hits"] == 3
        assert "cache.misses" not in counters

    def test_update_with_caller_dataset(self, study, record_cache_reads,
                                        cache_entry_keys):
        parent = generate_raw_dataset(study.config.simulation)
        with record_cache_reads() as reads:
            update = update_experiment(study.config, days=DAYS, raw=parent,
                                       cache_dir=study.cache)
        assert update.dataset_reused
        assert update.scenarios_cached == 2
        keys = cache_entry_keys(update.results.config, update.results.raw)
        assert reads == list(keys.tasks.values())


class TestChainedUpdate:
    """A second update fed the first update's in-memory dataset: the
    row-range digests and the column summary of the unchanged prefix of
    the features (and the digests of the crypto100 target) ride along
    ``append_rows``, so nothing is hashed again and the pre-flight
    validation scans only the appended row."""

    @pytest.fixture(scope="class")
    def chain(self, study):
        hashed, scanned = [], []
        real_digest, real_scan = keys.frame_digest, validation._scan

        def spy_digest(frame):
            hashed.append(frame.columns)
            return real_digest(frame)

        def spy_scan(columns, start, stop):
            scanned.append((len(columns), stop - start))
            return real_scan(columns, start, stop)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(keys, "frame_digest", spy_digest)
            mp.setattr(validation, "_scan", spy_scan)
            update = update_experiment(
                study.update.config, days=1, raw=study.update.results.raw,
                cache_dir=study.cache,
            )
        reference = run_experiment(update.config)
        return SimpleNamespace(update=update, hashed=hashed,
                               scanned=scanned, reference=reference)

    def test_features_never_hashed(self, chain):
        # The crypto100 target is extended with the dataset too, so
        # neither frame is hashed again.
        assert chain.hashed == []

    def test_preflight_scans_only_the_appended_row(self, chain):
        features = chain.update.results.raw.features
        assert chain.scanned == [(features.n_cols, 1)]
        assert (validate_frame(features, list(_PREFLIGHT_RULES))
                == validate_frame(chain.reference.raw.features,
                                  list(_PREFLIGHT_RULES)))

    def test_every_scenario_served_from_cache(self, chain):
        assert chain.update.dataset_reused
        assert chain.update.scenarios_cached == 2

    def test_bit_identical_to_cold_rerun(self, chain):
        assert chain.update.config.simulation.end == "2018-01-03"
        assert (chain.update.results.raw.features
                == chain.reference.raw.features)
        assert (_improvement_rows(chain.update.results)
                == _improvement_rows(chain.reference))
        assert (scenarios.period_digests(chain.update.results.raw)
                == scenarios.period_digests(chain.reference.raw))


class TestParentThisSimulatorCannotResume:
    """A parent dataset without a carry, or with a carry of another
    simulator format, is treated like a missing parent: the extended
    dataset is generated cold, with the same results."""

    @pytest.mark.parametrize("make_parent", [
        lambda parent: dataclasses.replace(parent, carry=None),
        lambda parent: dataclasses.replace(parent, carry=dataclasses.replace(
            parent.carry, format=parent.carry.format - 1)),
    ], ids=["no-carry", "other-format"])
    def test_updates_cold_with_the_same_results(self, study, tmp_path,
                                                make_parent):
        cache = tmp_path / "cache"
        shutil.copytree(study.cache, cache)
        store = CacheStore(cache)
        key = dataset_key(study.config.simulation, study.config.fault_plan,
                          study.config.degradation)
        parent, report = store.get(key)
        store.put(key, (make_parent(parent), report))

        update = update_experiment(study.config, days=DAYS,
                                   cache_dir=str(cache))
        assert not update.dataset_reused
        assert update.scenarios_cached == 2
        assert (_improvement_rows(update.results)
                == _improvement_rows(study.update.results))
        assert (update.results.raw.features
                == study.update.results.raw.features)


class TestPartialCache:
    """A run whose task entries do not all hit: only the damaged
    scenario is recomputed, on scenarios built from the dataset as a
    cold run builds them."""

    @pytest.mark.parametrize("damage", ["deleted", "corrupt"])
    def test_one_bad_task_entry_is_recomputed_alone(
            self, study, tmp_path, damage, record_cache_reads,
            cache_entry_keys):
        cache = tmp_path / "cache"
        shutil.copytree(study.cache, cache)
        config = study.update.results.config
        raw = study.update.results.raw
        keys = cache_entry_keys(config, raw)
        kept, victim = keys.tasks.values()
        path = CacheStore(cache)._path_for(victim)
        if damage == "deleted":
            path.unlink()
        else:
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))
        with record_cache_reads() as reads:
            results = run_experiment(config, raw=raw, cache_dir=str(cache))
        counters = results.run_summary.metrics["counters"]
        assert reads == [kept, victim]
        assert counters["experiment.scenarios_cached"] == 1
        assert counters["cache.hits"] == 1  # the kept task
        assert counters["cache.writes"] == 1  # the recomputed task
        if damage == "corrupt":
            assert counters["cache.corrupt"] == 1
            assert "cache.misses" not in counters
            assert (cache / "quarantine" / path.name).exists()
        else:
            assert counters["cache.misses"] == 1
        assert CacheStore(cache).get(victim) is not None
        assert (_improvement_rows(results)
                == _improvement_rows(study.reference))


class TestLedgerChain:
    def test_kinds(self, study):
        kinds = [r.kind for r in RunLedger(study.ledger).records()]
        assert kinds == ["run", "update"]

    def test_parent_linkage(self, study):
        records = RunLedger(study.ledger).records()
        run, update = records
        assert update.extra["parent"] == run_fingerprint(study.config)
        assert update.extra["parent"] == run.fingerprint
        assert update.extra["parent_run_id"] == run.run_id
        assert study.update.parent_run_id == run.run_id

    def test_update_record_contents(self, study):
        record = RunLedger(study.ledger).records()[-1]
        assert record.extra["days"] == DAYS
        assert record.extra["dataset_reused"] is True
        assert record.extra["scenarios_cached"] == 2
        assert record.status == "ok"

    def test_render_shows_parent(self, study):
        record = RunLedger(study.ledger).records()[-1]
        rendered = render_record(record)
        assert "parent" in rendered
        assert record.extra["parent_run_id"] in rendered


class TestUpdateFallbacks:
    """Dataset-path decisions, with the experiment itself stubbed out."""

    @pytest.fixture()
    def stub(self, monkeypatch):
        calls = {}

        def fake_run(config, raw=None, **kwargs):
            calls["config"] = config
            calls["raw"] = raw
            return SimpleNamespace(
                run_summary=SimpleNamespace(metrics={"counters": {}}),
                artifacts={}, failures=[], runtime_seconds=0.0,
            )

        monkeypatch.setattr(
            "repro.incremental.update.run_experiment", fake_run
        )
        return calls

    def test_no_cache_no_raw_runs_cold(self, stub):
        update = update_experiment(_config(), days=1)
        assert not update.dataset_reused
        assert stub["raw"] is None

    def test_resilient_config_refuses_splice(self, stub, small_config):
        from repro.resilience import FaultPlan

        config = dataclasses.replace(
            _config(), fault_plan=FaultPlan(seed=1),
        )
        parent = generate_raw_dataset(config.simulation)
        update = update_experiment(config, days=1, raw=parent)
        assert not update.dataset_reused
        assert stub["raw"] is None

    def test_caller_dataset_spliced(self, stub):
        config = _config()
        parent = generate_raw_dataset(config.simulation)
        update = update_experiment(config, days=3, raw=parent)
        assert update.dataset_reused
        assert stub["raw"].features.n_rows == parent.features.n_rows + 3
        assert stub["config"].simulation == update.config.simulation

    def test_mismatched_caller_dataset_rejected(self, stub, small_raw):
        with pytest.raises(ValueError, match="does not match"):
            update_experiment(_config(), days=1, raw=small_raw)

    def test_parent_released_before_the_run(self, monkeypatch):
        class Parent:
            pass

        refs = {}

        def fake_parent(config, raw, store, log):
            parent = Parent()
            refs["parent"] = weakref.ref(parent)
            return parent

        def fake_run(config, raw=None, **kwargs):
            refs["alive_during_run"] = refs["parent"]() is not None
            return SimpleNamespace(
                run_summary=SimpleNamespace(metrics={"counters": {}}),
                artifacts={}, failures=[], runtime_seconds=0.0,
            )

        monkeypatch.setattr(
            "repro.incremental.update._parent_dataset", fake_parent)
        monkeypatch.setattr(
            "repro.incremental.update.extend_raw_dataset",
            lambda parent, days: "extended")
        monkeypatch.setattr(
            "repro.incremental.update.run_experiment", fake_run)
        update = update_experiment(_config(), days=1)
        assert update.dataset_reused
        assert refs["alive_during_run"] is False

    def test_rejects_nonpositive_days(self, stub):
        with pytest.raises(ValueError, match="days"):
            update_experiment(_config(), days=0)
