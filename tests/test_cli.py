"""Tests for the command-line interface."""

import pytest

from repro.categories import DataCategory
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self, tmp_path):
        args = build_parser().parse_args(
            ["simulate", "--out", str(tmp_path), "--seed", "5"]
        )
        assert args.command == "simulate"
        assert args.seed == 5
        assert not args.include_eth

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.preset == "fast"
        assert args.report is None
        # one report, printed and written by --report (it is markdown)
        assert not hasattr(args, "markdown")

    def test_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--preset", "huge"])

    def test_run_observability_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--log-level", "debug", "--log-json",
             "--ledger", str(tmp_path / "runs.jsonl")]
        )
        assert args.log_level == "debug"
        assert args.log_json
        assert args.ledger.name == "runs.jsonl"

    def test_run_observability_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.log_level is None
        assert not args.log_json
        assert args.ledger is None

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--log-level", "loud"])

    @pytest.mark.parametrize("argv, message", [
        (["run", "--jobs", "0"], "n_jobs must not be 0"),
        (["update", "--jobs", "0"], "n_jobs must not be 0"),
        (["chaos", "--jobs", "0"], "n_jobs must not be 0"),
        (["run", "--task-timeout", "-1"], "timeout must be > 0 seconds"),
        (["run", "--task-timeout", "0"], "timeout must be > 0 seconds"),
        (["run", "--task-retries", "-1"], "max_retries must be >= 0"),
    ])
    def test_bad_execution_flags_are_usage_errors(self, argv, message,
                                                  capsys):
        # The resolver's rule and message, reported by argparse: exit
        # code 2 and one usage line, never a traceback.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_good_execution_flags_pass_through_as_given(self):
        args = build_parser().parse_args(
            ["run", "--jobs", "-1", "--task-timeout", "2.5",
             "--task-retries", "0"]
        )
        assert args.jobs == -1
        assert args.task_timeout == 2.5
        assert args.task_retries == 0

    def test_trace_summary_args(self, tmp_path):
        # The command is gone: 'report --run' renders the run's stage
        # table, slowest spans and counters from its ledger record.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace-summary", str(tmp_path / "t.jsonl")]
            )

    def test_run_resilience_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--keep-going", "--fault-plan", str(tmp_path / "p.json"),
             "--degradation", "fill"]
        )
        assert args.keep_going
        assert args.fault_plan.name == "p.json"
        assert args.degradation == "fill"

    def test_run_resilience_defaults(self):
        args = build_parser().parse_args(["run"])
        assert not args.keep_going
        assert args.fault_plan is None
        assert args.degradation is None

    def test_bad_degradation_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--degradation", "hope"])

    def test_chaos_args(self, tmp_path):
        args = build_parser().parse_args(
            ["chaos", "--chaos-seed", "9", "--save-plan",
             str(tmp_path / "p.json"), "--degradation", "drop-category"]
        )
        assert args.command == "chaos"
        assert args.chaos_seed == 9
        assert args.save_plan.name == "p.json"
        assert args.degradation == "drop-category"

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.preset == "fast"
        assert args.degradation == "fill"
        assert args.plan is None


class TestSimulateCommand:
    def test_writes_csv_bundle(self, tmp_path, capsys, monkeypatch):
        self._patch_small(monkeypatch)
        code = main(["simulate", "--out", str(tmp_path), "--seed", "3"])
        assert code == 0
        assert (tmp_path / "features.csv").exists()
        assert (tmp_path / "crypto100.csv").exists()
        assert (tmp_path / "categories.csv").exists()
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_roundtrip_readable(self, tmp_path, monkeypatch):
        self._patch_small(monkeypatch)
        main(["simulate", "--out", str(tmp_path)])
        from repro.frame import read_csv

        features = read_csv(tmp_path / "features.csv")
        assert features.n_cols > 100
        index = read_csv(tmp_path / "crypto100.csv")
        assert "crypto100" in index.columns

    def test_include_eth_flag(self, tmp_path, monkeypatch):
        self._patch_small(monkeypatch)
        main(["simulate", "--out", str(tmp_path), "--include-eth"])
        text = (tmp_path / "categories.csv").read_text()
        assert "onchain_eth" in text

    def test_market_preset_flag(self, tmp_path, monkeypatch):
        self._patch_small(monkeypatch)
        code = main(["simulate", "--out", str(tmp_path),
                     "--market", "short_history"])
        assert code == 0
        from repro.frame import read_csv

        features = read_csv(tmp_path / "features.csv")
        # the short-history preset starts in 2020
        assert features.index[0].year >= 2020

    def test_bad_market_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--out", str(tmp_path),
                  "--market", "moonshot"])

    @staticmethod
    def _patch_small(monkeypatch):
        """Shrink the simulation window so CLI tests stay fast.

        The simulate command goes through the market presets, so the
        patch wraps each preset factory with a smaller window/universe;
        the index command constructs SimulationConfig directly, so that
        name is wrapped too.
        """
        import dataclasses

        import repro.cli as cli

        original_presets = dict(cli.MARKET_PRESETS)

        def shrink(config):
            start = max(config.start, "2018-01-01")
            return dataclasses.replace(
                config, start=start, end="2020-06-30", n_assets=105,
            )

        patched = {
            name: (lambda seed=20240701, _f=factory: shrink(_f(seed=seed)))
            for name, factory in original_presets.items()
        }
        monkeypatch.setattr(cli, "MARKET_PRESETS", patched)

        original_config = cli.SimulationConfig

        def small(*args, **kwargs):
            kwargs.setdefault("start", "2018-01-01")
            kwargs.setdefault("end", "2019-06-30")
            kwargs.setdefault("n_assets", 105)
            return original_config(*args, **kwargs)

        monkeypatch.setattr(cli, "SimulationConfig", small)


def _ledger_with_run(path, counters=None):
    """A ledger holding one record built from a fake-clock trace."""
    from repro.obs import (RunLedger, RunRecord, Tracer, slowest_rows,
                           stage_rows)

    class Clock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            self.now += 0.5
            return self.now

    tracer = Tracer(clock=Clock())
    with tracer.span("experiment.run"):
        with tracer.span("fra.reduce", scenario="2017_7"):
            with tracer.span("fra.iteration", iteration=0):
                pass
        with tracer.span("improvement.scenario", scenario="2017_7"):
            pass
    record = RunRecord(
        kind="run",
        stages=stage_rows(tracer.spans),
        slowest=slowest_rows(tracer.spans, n=2),
        metrics={"counters": dict(counters or {})},
    )
    return RunLedger(path).append(record)


class TestTraceSummaryCommand:
    """The run's trace summary, now ``report --run`` over its ledger
    record."""

    def test_renders_table_and_slowest(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        record = _ledger_with_run(path)
        code = main(["report", str(path), "--run", record.run_id])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment.run" in out
        assert "fra.iteration" in out
        assert "slowest 2 spans" in out
        assert "scenario=2017_7" in out

    def test_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["report", str(path), "--run", "any"])
        assert code == 1
        assert "no ledger records" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "nope.jsonl"),
                     "--run", "any"])
        assert code == 1
        assert "no ledger records" in capsys.readouterr().out

    def test_corrupt_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        code = main(["report", str(path), "--run", "any"])
        assert code == 1
        assert "no ledger records" in capsys.readouterr().out


class TestTraceSummaryCounters:
    def test_counters_rendered_outside_stage_table(self, tmp_path,
                                                   capsys):
        path = tmp_path / "runs.jsonl"
        record = _ledger_with_run(path, counters={
            "resilience.category.dropped": 1,
            "predict.compiled_rows": 4800,
        })
        code = main(["report", str(path), "--run", record.run_id])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        counters = lines.index("counters:")
        assert lines[counters + 1].split() == ["predict.compiled_rows",
                                               "4800"]
        assert lines[counters + 2].split() == [
            "resilience.category.dropped", "1"]
        # the counters come after the stage table and the slowest list
        assert counters > lines.index("slowest 2 spans:")


class _Captured(Exception):
    """Sentinel raised by stubs after recording the call — lets the
    tests check how ``main`` wires flags into ``run_experiment`` without
    paying for (or rendering) a real run."""


class TestRunResilienceWiring:
    @staticmethod
    def _capture(monkeypatch, store):
        import repro.cli as cli

        def stub(config, cache_dir=None, ledger_path=None):
            store.update(config=config, cache_dir=cache_dir)
            raise _Captured

        monkeypatch.setattr(cli, "run_experiment", stub)

    def test_flags_reach_run_experiment(self, tmp_path, monkeypatch):
        from repro.resilience import random_fault_plan

        plan_path = random_fault_plan(3, ["macro"]).save(
            tmp_path / "plan.json")
        store = {}
        self._capture(monkeypatch, store)
        with pytest.raises(_Captured):
            main(["run", "--cache-dir", str(tmp_path / "cache"),
                  "--keep-going", "--fault-plan", str(plan_path),
                  "--degradation", "fill", "--quiet"])
        config = store["config"]
        assert config.on_error == "capture"
        assert config.degradation == "fill"
        assert config.fault_plan is not None
        assert len(config.fault_plan.events) > 0
        assert store["cache_dir"].endswith("cache")

    @pytest.mark.parametrize("flag", ["--checkpoint-dir", "--resume",
                                      "--predictor", "--trace"])
    def test_retired_flags_rejected(self, tmp_path, flag):
        # Resume is "rerun with the same --cache-dir"; compiled
        # inference is the only predict path; the ledger record
        # ('--ledger', then 'report --run') replaced the span trace.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag, str(tmp_path)])


class TestRunReport:
    def test_report_file_is_what_was_printed(self, tmp_path, monkeypatch,
                                             capsys):
        import repro.cli as cli
        from repro.core.pipeline import (
            ExperimentConfig,
            ExperimentResults,
            ScenarioFailure,
        )

        def stub(config, **kwargs):
            # A --keep-going run in which every scenario failed.
            return ExperimentResults(
                config=config, raw=None, artifacts={},
                improvements_rf=[], improvements_gb=[],
                failures={"2017_7": ScenarioFailure("2017_7", "OSError",
                                                    "disk full")},
            )

        monkeypatch.setattr(cli, "run_experiment", stub)
        path = tmp_path / "r.md"
        code = main(["run", "--keep-going", "--no-cache", "--quiet",
                     "--report", str(path)])
        assert code == 1  # incomplete, like `repro update`
        report = path.read_text()
        assert "- 2017_7: OSError: disk full" in report
        assert capsys.readouterr().out == (
            f"{report}\nreport written to {path}\n"
        )


class TestChaosCommand:
    @staticmethod
    def _stub_chaos(monkeypatch, store):
        import repro.cli as cli
        from repro.resilience import CategoryDegradation, ChaosReport

        def stub(config, plan, policy="fill", ledger_path=None):
            store.update(config=config, plan=plan, policy=policy)
            return ChaosReport(
                plan=plan, policy=policy,
                rows=[CategoryDegradation("diverse", 1.0, 1.25)],
                n_scenarios_compared=2,
            )

        monkeypatch.setattr(cli, "run_chaos", stub)

    def test_prints_table_and_saves_plan(self, tmp_path, monkeypatch,
                                         capsys):
        store = {}
        self._stub_chaos(monkeypatch, store)
        plan_path = tmp_path / "plan.json"
        code = main(["chaos", "--chaos-seed", "7", "--save-plan",
                     str(plan_path), "--quiet"])
        assert code == 0
        assert plan_path.exists()
        out = capsys.readouterr().out
        assert "fault plan written to" in out
        assert "+25.0%" in out
        assert store["policy"] == "fill"
        assert len(store["plan"].events) > 0

    @pytest.mark.parametrize("seed", ["7", "11"])
    def test_random_plan_only_hits_simulated_categories(
            self, monkeypatch, capsys, seed):
        # No preset simulates ETH, so no drawn event may land on it.
        store = {}
        self._stub_chaos(monkeypatch, store)
        assert main(["chaos", "--chaos-seed", seed, "--quiet"]) == 0
        assert not store["config"].simulation.include_eth
        hit = {event.category for event in store["plan"].events}
        assert "onchain_eth" not in hit
        assert hit <= {c.value for c in DataCategory} - {"onchain_eth"}

    def test_loads_existing_plan(self, tmp_path, monkeypatch, capsys):
        from repro.resilience import random_fault_plan

        plan = random_fault_plan(5, ["sentiment"])
        plan_path = plan.save(tmp_path / "plan.json")
        store = {}
        self._stub_chaos(monkeypatch, store)
        code = main(["chaos", "--plan", str(plan_path), "--quiet",
                     "--degradation", "drop-category"])
        assert code == 0
        assert store["policy"] == "drop-category"
        assert store["plan"].seed == plan.seed
        assert len(store["plan"].events) == len(plan.events)

    def test_report_file_written(self, tmp_path, monkeypatch, capsys):
        self._stub_chaos(monkeypatch, {})
        report_path = tmp_path / "chaos.txt"
        code = main(["chaos", "--report", str(report_path), "--quiet"])
        assert code == 0
        assert "clean MSE" in report_path.read_text()


class TestIndexCommand:
    def test_prints_analysis(self, capsys, monkeypatch):
        TestSimulateCommand._patch_small(monkeypatch)
        code = main(["index", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best scaling power" in out
        assert "top-100 market share" in out


class TestPredictorWiring:
    def test_trace_summary_shows_predict_counters(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        record = _ledger_with_run(path, counters={
            "predict.compiled_calls": 12, "predict.compiled_rows": 4800,
            "cache.hits": 2,
        })
        code = main(["report", str(path), "--run", record.run_id])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "predict.compiled_calls" in out
        assert "predict.compiled_rows" in out
        assert "4800" in out
        assert "cache.hits" in out


class TestUpdateCommand:
    def test_parser_args(self, tmp_path):
        args = build_parser().parse_args(
            ["update", "--days", "3", "--cache-dir",
             str(tmp_path / "cache"), "--ledger",
             str(tmp_path / "runs.jsonl"), "--quiet"]
        )
        assert args.command == "update"
        assert args.days == 3
        assert args.preset == "fast"
        assert args.cache_dir.name == "cache"
        assert args.ledger.name == "runs.jsonl"

    def test_parser_defaults(self):
        args = build_parser().parse_args(["update"])
        assert args.days == 1
        assert not args.no_cache
        assert args.report is None

    def test_parser_rejects_nonpositive_days(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["update", "--days", "0"])

    @staticmethod
    def _capture(monkeypatch, store):
        import repro.incremental

        def stub(config, days=1, cache_dir=None, ledger_path=None):
            store.update(config=config, days=days, cache_dir=cache_dir,
                         ledger_path=ledger_path)
            raise _Captured

        monkeypatch.setattr(repro.incremental, "update_experiment", stub)

    def test_flags_reach_update_experiment(self, tmp_path, monkeypatch):
        store = {}
        self._capture(monkeypatch, store)
        with pytest.raises(_Captured):
            main(["update", "--days", "5", "--cache-dir",
                  str(tmp_path / "cache"), "--ledger",
                  str(tmp_path / "runs.jsonl"), "--jobs", "1",
                  "--quiet"])
        assert store["days"] == 5
        assert store["cache_dir"].endswith("cache")
        assert store["ledger_path"].endswith("runs.jsonl")
        assert store["config"].n_jobs == 1
        assert store["config"].verbose is False

    def test_no_cache_warns_cold(self, monkeypatch, capsys):
        store = {}
        self._capture(monkeypatch, store)
        with pytest.raises(_Captured):
            main(["update", "--no-cache", "--quiet"])
        assert store["cache_dir"] is None
        assert "runs cold" in capsys.readouterr().out

    def test_exit_code_follows_completeness(self, monkeypatch, capsys):
        import repro.cli as cli
        import repro.incremental
        from types import SimpleNamespace

        from repro.incremental import UpdateResult

        def stub(config, days=1, **kwargs):
            import dataclasses as dc

            from repro.synth.extend import extended_config

            extended = dc.replace(
                config,
                simulation=extended_config(config.simulation, days),
            )
            return UpdateResult(
                results=SimpleNamespace(runtime_seconds=1.5,
                                        complete=False),
                config=extended, days=days, dataset_reused=True,
                scenarios_cached=2, scenarios_total=4,
            )

        monkeypatch.setattr(repro.incremental, "update_experiment", stub)
        monkeypatch.setattr(cli, "render_report",
                            lambda results: "stub report")
        code = main(["update", "--no-cache", "--quiet"])
        assert code == 1
        out = capsys.readouterr().out
        assert "+1 day(s)" in out
        assert "spliced from parent" in out
        assert "2/4 served from cache" in out
        assert "stub report" in out
