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
from types import SimpleNamespace

import pytest

import repro.core.scenarios as scenarios
from repro.core.pipeline import (
    ExperimentConfig,
    run_experiment,
    run_fingerprint,
)
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
def study(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setitem(scenarios.PERIODS, "2017", ("2017-01-01", "2017-12-31"))
    try:
        tmp = tmp_path_factory.mktemp("incremental")
        cache = str(tmp / "cache")
        ledger = str(tmp / "runs.jsonl")
        config = _config()
        cold = run_experiment(config, cache_dir=cache, ledger_path=ledger)
        update = update_experiment(config, days=DAYS, cache_dir=cache,
                                   ledger_path=ledger)
        reference = run_experiment(update.config)
        yield SimpleNamespace(
            config=config, cache=cache, ledger=ledger,
            cold=cold, update=update, reference=reference,
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

    def test_update_with_caller_dataset(self, study):
        parent = generate_raw_dataset(study.config.simulation)
        update = update_experiment(study.config, days=DAYS, raw=parent,
                                   cache_dir=study.cache)
        assert update.dataset_reused
        assert update.scenarios_cached == 2


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

    def test_rejects_nonpositive_days(self, stub):
        with pytest.raises(ValueError, match="days"):
            update_experiment(_config(), days=0)
