"""End-to-end ledger wiring: cold and warm runs leave linked records.

The acceptance demo from the observability tentpole, as a test: a cold
and a cache-warm ``run_experiment`` against one config append two
ledger records that share a fingerprint and dataset key, the warm
record shows the cache hits, and ``render_history``/``render_record``
surface both with per-stage wall time, CPU time and max-RSS.
"""

import dataclasses

import pytest

from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.obs import RunLedger, render_history, render_record
from repro.resilience import FaultPlan, run_chaos


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
def ledger_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ledger") / "runs.jsonl"


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ledger-cache")


@pytest.fixture(scope="module")
def cold_and_warm(mini_config, cache_dir, ledger_path):
    cold = run_experiment(mini_config, cache_dir=str(cache_dir),
                          ledger_path=str(ledger_path))
    warm = run_experiment(mini_config, cache_dir=str(cache_dir),
                          ledger_path=str(ledger_path))
    return cold, warm


class TestRunLedgerIntegration:
    def test_both_runs_append_linked_records(self, cold_and_warm,
                                             ledger_path):
        records = RunLedger(ledger_path).records()
        assert len(records) == 2
        cold, warm = records
        assert cold.kind == "run" and warm.kind == "run"
        assert cold.fingerprint == warm.fingerprint
        assert cold.cache["dataset_key"] == warm.cache["dataset_key"]
        assert cold.run_id != warm.run_id

    def test_cache_lineage_is_the_period_digests(self, cold_and_warm,
                                                 ledger_path):
        for record in RunLedger(ledger_path).records():
            assert "period_digest_2017" in record.cache
            assert "dataset_digest" not in record.cache

    def test_warm_record_shows_cache_hits(self, cold_and_warm,
                                          ledger_path):
        cold, warm = RunLedger(ledger_path).records()
        assert cold.cache.get("hits", 0) == 0
        assert warm.cache["hits"] > 0

    def test_records_carry_stages_and_host(self, cold_and_warm,
                                           ledger_path):
        record = RunLedger(ledger_path).latest()
        assert "experiment.run" in record.stages
        assert record.stages["experiment.run"]["total_s"] > 0
        assert record.host["python"]
        assert record.status == "ok"
        assert record.duration_s == pytest.approx(
            cold_and_warm[1].runtime_seconds, abs=1.0)

    def test_history_renders_both_runs(self, cold_and_warm,
                                       ledger_path):
        records = RunLedger(ledger_path).records()
        text = render_history(records)
        for record in records:
            assert record.run_id[:8] in text
        assert "hits" in text

    def test_record_renders_stage_table(self, cold_and_warm,
                                        ledger_path):
        record = RunLedger(ledger_path).latest()
        text = render_record(record)
        assert "experiment.run" in text
        assert "fingerprint" in text
        cold = RunLedger(ledger_path).records()[0]
        assert len(cold.slowest) == 10
        assert cold.slowest[0]["name"] == "experiment.run"
        assert "slowest 10 spans:" in render_record(cold)


class TestProfiledRunLedger:
    def test_profiled_run_records_peak_memory(self, cold_and_warm,
                                              ledger_path):
        # Every run measures its root span; no flag or setting needed.
        record = RunLedger(ledger_path).records()[0]
        stages = record.stages["experiment.run"]
        assert stages["max_rss_kb"] > 0
        assert stages["cpu_s"] >= 0.0
        assert "max-rss" in render_record(record)


@pytest.fixture(scope="module")
def chaos_ledger(mini_config, tmp_path_factory):
    ledger_path = tmp_path_factory.mktemp("chaos") / "runs.jsonl"
    plan = FaultPlan(seed=11, events=())
    run_chaos(mini_config, plan, ledger_path=str(ledger_path))
    return ledger_path


class TestChaosLedger:
    def test_chaos_run_appends_a_chaos_record(self, chaos_ledger):
        record = RunLedger(chaos_ledger).latest()
        assert record.kind == "chaos"
        assert record.labels["policy"]
        assert "clean_runtime_s" in record.extra

    def test_chaos_record_has_stages_of_both_runs(self, chaos_ledger):
        # The clean and the faulted run trace into one tracer.
        record = RunLedger(chaos_ledger).latest()
        root = record.stages["experiment.run"]
        assert root["count"] == 2
        assert root["max_rss_kb"] > 0
        assert record.slowest[0]["name"] == "experiment.run"

    def test_chaos_record_renders_stage_table(self, chaos_ledger):
        text = render_record(RunLedger(chaos_ledger).latest())
        header = next(line for line in text.splitlines()
                      if line.startswith("stage "))
        # the markdown pipe table shared with the run report
        assert [cell.strip() for cell in header.split("|")] == ["stage", "count", "total", "self",
                                  "mean", "max", "cpu", "max-rss"]
        assert "counters:" in text

    def test_chaos_history_shows_peak_rss(self, chaos_ledger):
        history = render_history(RunLedger(chaos_ledger).records())
        peak_rss = history.splitlines()[2].split()[-1]
        assert peak_rss != "-"
