"""Tests for the command-line interface."""

import pytest

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
        assert args.markdown is None

    def test_run_markdown_arg(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--markdown", str(tmp_path / "r.md")]
        )
        assert args.markdown.name == "r.md"

    def test_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--preset", "huge"])

    def test_run_observability_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--log-level", "debug", "--log-json",
             "--trace", str(tmp_path / "t.jsonl")]
        )
        assert args.log_level == "debug"
        assert args.log_json
        assert args.trace.name == "t.jsonl"

    def test_run_observability_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.log_level is None
        assert not args.log_json
        assert args.trace is None

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
        args = build_parser().parse_args(
            ["trace-summary", str(tmp_path / "t.jsonl"), "--top", "3"]
        )
        assert args.command == "trace-summary"
        assert args.top == 3

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


class TestTraceSummaryCommand:
    @staticmethod
    def _write_trace(path):
        from repro.obs import Tracer, write_jsonl

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
        return write_jsonl(tracer.spans, path)

    def test_renders_table_and_slowest(self, tmp_path, capsys):
        path = self._write_trace(tmp_path / "t.jsonl")
        code = main(["trace-summary", str(path), "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment.run" in out
        assert "fra.iteration" in out
        assert "slowest 2 spans" in out
        assert "scenario=2017_7" in out

    def test_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["trace-summary", str(path)])
        assert code == 1
        assert "no spans" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["trace-summary", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "not found" in capsys.readouterr().out

    def test_corrupt_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        code = main(["trace-summary", str(path)])
        assert code == 1
        assert "not a span trace" in capsys.readouterr().out


class _Captured(Exception):
    """Sentinel raised by stubs after recording the call — lets the
    tests check how ``main`` wires flags into ``run_experiment`` without
    paying for (or rendering) a real run."""


class TestRunResilienceWiring:
    @staticmethod
    def _capture(monkeypatch, store):
        import repro.cli as cli

        def stub(config, cache_dir=None):
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
                                      "--predictor"])
    def test_retired_flags_rejected(self, tmp_path, flag):
        # Resume is "rerun with the same --cache-dir"; compiled
        # inference is the only predict path.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag, str(tmp_path)])


class TestChaosCommand:
    @staticmethod
    def _stub_chaos(monkeypatch, store):
        import repro.cli as cli
        from repro.resilience import CategoryDegradation, ChaosReport

        def stub(config, plan, policy="fill"):
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


class TestTraceSummaryCounters:
    @staticmethod
    def _write_trace_with_counters(path):
        from repro.obs import Tracer, write_jsonl
        from repro.obs.trace import Span

        class Clock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                self.now += 0.5
                return self.now

        tracer = Tracer(clock=Clock())
        with tracer.span("experiment.run"):
            pass
        spans = list(tracer.spans)
        spans.append(Span(
            name="run.metrics", start=spans[0].start,
            end=spans[0].start,
            attrs={"counters": {"resilience.retry": 3,
                                "predict.compiled_rows": 4800}},
        ))
        return write_jsonl(spans, path)

    def test_counters_rendered_outside_stage_table(self, tmp_path,
                                                   capsys):
        path = self._write_trace_with_counters(tmp_path / "t.jsonl")
        code = main(["trace-summary", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "resilience.retry" in out
        assert "3" in out
        assert "predict.compiled_rows" in out
        assert "4800" in out
        # the synthetic carrier never shows up as a timing stage
        assert "run.metrics" not in out
        assert "1 spans" in out

    def test_counters_only_trace_fails_cleanly(self, tmp_path, capsys):
        from repro.obs import write_jsonl
        from repro.obs.trace import Span

        spans = [Span(name="run.metrics", start=0.0, end=0.0,
                      attrs={"counters": {"a": 1}})]
        path = write_jsonl(spans, tmp_path / "t.jsonl")
        code = main(["trace-summary", str(path)])
        assert code == 1
        assert "no timing spans" in capsys.readouterr().out


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
        from repro.obs import Tracer, write_jsonl
        from repro.obs.trace import Span

        tracer = Tracer()
        with tracer.span("experiment.run"):
            pass
        spans = list(tracer.spans)
        spans.append(Span(
            name="run.metrics", start=spans[0].start, end=spans[0].start,
            attrs={"counters": {"predict.compiled_calls": 12,
                                "predict.compiled_rows": 4800,
                                "cache.hits": 2}},
        ))
        path = write_jsonl(spans, tmp_path / "t.jsonl")
        code = main(["trace-summary", str(path)])
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
        monkeypatch.setattr(cli, "_render_full_report",
                            lambda results: "stub report")
        code = main(["update", "--no-cache", "--quiet"])
        assert code == 1
        out = capsys.readouterr().out
        assert "+1 day(s)" in out
        assert "spliced from parent" in out
        assert "2/4 served from cache" in out
        assert "stub report" in out
