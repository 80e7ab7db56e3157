"""CLI wiring for the observability commands: report, bench, --ledger.

Same approach as ``tests/test_cli.py``: parser assertions are direct,
command-handler tests stub the expensive entry points and check exit
codes plus rendered output.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import RunLedger, RunRecord


def _record(**kwargs) -> RunRecord:
    defaults = dict(kind="run", started_at="2026-08-08T00:00:00Z")
    defaults.update(kwargs)
    return RunRecord(**defaults)


def _bench_dir(directory, speedup=2.0):
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"schema": 1,
               "benchmarks": {"tree_fit": {"speedup_hist": speedup,
                                           "hist_s": 0.01}}}
    (directory / "BENCH_kernels.json").write_text(json.dumps(payload))
    return directory


class TestParser:
    def test_report_args(self, tmp_path):
        args = build_parser().parse_args(
            ["report", str(tmp_path / "runs.jsonl"), "--last", "5",
             "--kind", "run"])
        assert args.command == "report"
        assert args.last == 5 and args.kind == "run"

    def test_report_compare(self):
        args = build_parser().parse_args(
            ["report", "runs.jsonl", "--compare", "aaa", "bbb"])
        assert args.compare == ["aaa", "bbb"]

    def test_bench_args(self, tmp_path):
        args = build_parser().parse_args(
            ["bench", "check", "--results", str(tmp_path),
             "--tolerance", "0.4", "--verbose"])
        assert args.action == "check"
        assert args.tolerance == 0.4 and args.verbose

    def test_run_ledger_and_profile_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--ledger", str(tmp_path / "runs.jsonl")])
        assert str(args.ledger).endswith("runs.jsonl")
        # Every run measures CPU and max-RSS; the switch is gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--profile"])

    def test_run_ledger_default_is_unset(self):
        # Env resolution ($REPRO_LEDGER) happens at command time, not
        # at parse time — the parser default stays None.
        assert build_parser().parse_args(["run"]).ledger is None


class _Captured(Exception):
    """Raised by stubs after recording the call."""


class TestRunLedgerWiring:
    @staticmethod
    def _capture(monkeypatch, store):
        import repro.cli as cli

        def stub(config, **kwargs):
            store.update(config=config, **kwargs)
            raise _Captured

        monkeypatch.setattr(cli, "run_experiment", stub)

    def test_ledger_and_profile_reach_run_experiment(
            self, tmp_path, monkeypatch):
        store = {}
        self._capture(monkeypatch, store)
        with pytest.raises(_Captured):
            main(["run", "--ledger", str(tmp_path / "runs.jsonl"),
                  "--quiet"])
        assert store["ledger_path"].endswith("runs.jsonl")
        # No profiling setting travels with the config any more.
        assert not hasattr(store["config"], "profile")

    def test_env_ledger_reaches_run_experiment(self, tmp_path,
                                               monkeypatch):
        store = {}
        self._capture(monkeypatch, store)
        monkeypatch.setenv("REPRO_LEDGER",
                           str(tmp_path / "env.jsonl"))
        with pytest.raises(_Captured):
            main(["run", "--quiet"])
        assert store["ledger_path"].endswith("env.jsonl")

    def test_without_flags_no_ledger_is_requested(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        store = {}
        self._capture(monkeypatch, store)
        with pytest.raises(_Captured):
            main(["run", "--quiet"])
        assert store["ledger_path"] is None
        assert store["cache_dir"] is None


class TestReportCommand:
    def test_history_lists_records(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        first = ledger.append(_record(duration_s=20.0))
        second = ledger.append(_record(duration_s=2.0,
                                       cache={"hits": 4}))
        assert main(["report", str(ledger.path)]) == 0
        out = capsys.readouterr().out
        assert first.run_id[:8] in out and second.run_id[:8] in out
        assert "4 hits" in out

    def test_single_run_view(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        record = ledger.append(_record(
            fingerprint="cfg",
            stages={"experiment.run": {"count": 1, "total_s": 3.0,
                                       "self_s": 3.0, "max_s": 3.0}}))
        assert main(["report", str(ledger.path), "--run",
                     record.run_id[:6]]) == 0
        out = capsys.readouterr().out
        assert "experiment.run" in out and "fingerprint cfg" in out

    def test_unknown_run_id_fails(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(_record())
        assert main(["report", str(ledger.path), "--run",
                     "nope"]) == 1
        assert "no record" in capsys.readouterr().out

    def test_compare_two_runs(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        cold = ledger.append(_record(duration_s=20.0))
        warm = ledger.append(_record(duration_s=2.0))
        assert main(["report", str(ledger.path), "--compare",
                     cold.run_id, warm.run_id]) == 0
        assert "0.10x" in capsys.readouterr().out

    def test_missing_ledger_fails_cleanly(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 1
        assert main(["report"]) == 1

    def test_corrupt_lines_are_reported_not_fatal(self, tmp_path,
                                                  capsys):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        record = ledger.append(_record())
        with ledger.path.open("a") as handle:
            handle.write("garbage\n")
        assert main(["report", str(ledger.path)]) == 0
        out = capsys.readouterr().out
        assert record.run_id[:8] in out
        assert "skipped" in out


class TestBenchCommand:
    def test_identical_dirs_pass(self, tmp_path, capsys):
        fresh = _bench_dir(tmp_path / "fresh")
        base = _bench_dir(tmp_path / "base")
        code = main(["bench", "check", "--results", str(fresh),
                     "--baseline", str(base)])
        assert code == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_regression_fails_with_exit_one(self, tmp_path, capsys):
        fresh = _bench_dir(tmp_path / "fresh", speedup=0.5)
        base = _bench_dir(tmp_path / "base", speedup=2.0)
        code = main(["bench", "check", "--results", str(fresh),
                     "--baseline", str(base)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "speedup_hist" in out

    def test_tolerance_flag_loosens_the_gate(self, tmp_path):
        fresh = _bench_dir(tmp_path / "fresh", speedup=1.2)
        base = _bench_dir(tmp_path / "base", speedup=2.0)
        assert main(["bench", "check", "--results", str(fresh),
                     "--baseline", str(base)]) == 1
        assert main(["bench", "check", "--results", str(fresh),
                     "--baseline", str(base),
                     "--tolerance", "0.5"]) == 0

    def test_empty_baseline_dir_is_a_usage_error(self, tmp_path,
                                                 capsys):
        fresh = _bench_dir(tmp_path / "fresh")
        empty = tmp_path / "base"
        empty.mkdir()
        code = main(["bench", "check", "--results", str(fresh),
                     "--baseline", str(empty)])
        assert code == 2

    def test_results_dir_defaults_to_env(self, tmp_path, capsys,
                                         monkeypatch):
        fresh = _bench_dir(tmp_path / "fresh")
        base = _bench_dir(tmp_path / "base")
        monkeypatch.setenv("REPRO_BENCH_DIR", str(fresh))
        assert main(["bench", "check", "--baseline",
                     str(base)]) == 0

    def test_missing_results_dir_fails_cleanly(self, monkeypatch,
                                               capsys):
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        assert main(["bench", "check"]) == 1
        assert "REPRO_BENCH_DIR" in capsys.readouterr().out
