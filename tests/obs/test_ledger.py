"""The run ledger: durable appends, fault tolerance, query/compare.

Contracts under test: every append is one fsynced line and survives a
concurrent/killed writer as at most one torn tail line (which readers
skip); records round-trip losslessly; query/latest/compare link runs of
one configuration through their fingerprint and cache keys; renderers
produce the history and per-stage tables behind ``repro report``.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.obs import (
    RunLedger,
    RunRecord,
    Span,
    Tracer,
    aggregate_spans,
    build_record,
    compare_records,
    git_describe,
    host_info,
    render_compare,
    render_history,
    render_record,
    slowest_rows,
    span,
    stage_rows,
    use_tracer,
)


def _record(**kwargs) -> RunRecord:
    defaults = dict(kind="run", started_at="2026-08-08T00:00:00Z")
    defaults.update(kwargs)
    return RunRecord(**defaults)


class TestRunRecord:
    def test_round_trips_through_dict(self):
        record = _record(
            status="partial", duration_s=12.5, fingerprint="abc",
            seed=7, labels={"preset": "fast"},
            cache={"hits": 4, "dataset_key": "k1"},
            stages={"stage.a": {"count": 1, "total_s": 1.0,
                                "self_s": 1.0, "max_s": 1.0}},
            metrics={"counters": {"cache.hits": 4}},
            host={"python": "3.12"}, git="abc123",
            extra={"scenarios": 4},
        )
        clone = RunRecord.from_dict(record.to_dict())
        assert clone == record

    def test_from_dict_parses_retired_resume_fields(self):
        # Ledger lines written before resume moved to the artifact
        # cache carry ``resumed`` / ``checkpoint``; they still load.
        payload = _record(fingerprint="cfg").to_dict()
        payload.update(resumed=True, checkpoint={"dir": "ckpt"})
        record = RunRecord.from_dict(payload)
        assert record.fingerprint == "cfg"
        assert "resumed" not in record.to_dict()
        assert "checkpoint" not in record.to_dict()

    def test_from_dict_parses_retired_dataset_digest(self):
        # Older run records carry a whole-dataset ``dataset_digest`` in
        # their cache lineage; they still load, key and all.
        payload = _record().to_dict()
        payload["cache"] = {"dataset_key": "k1", "dataset_digest": "d1"}
        record = RunRecord.from_dict(payload)
        assert record.cache["dataset_digest"] == "d1"

    def test_from_dict_tolerates_missing_fields(self):
        minimal = RunRecord.from_dict({"kind": "run"})
        assert minimal.status == "ok"
        assert minimal.labels == {} and minimal.stages == {}
        assert minimal.fingerprint is None

    def test_run_ids_are_distinct(self):
        assert _record().run_id != _record().run_id

    def test_started_now_stamps_utc(self):
        record = RunRecord.started_now("bench")
        assert record.started_at.endswith("Z")
        assert record.kind == "bench"

    def test_started_now_backdates_by_duration(self):
        import time

        record = RunRecord.started_now("run", duration_s=7200.0)
        stamp = time.strptime(record.started_at, "%Y-%m-%dT%H:%M:%SZ")
        began = time.time() - 7200.0
        assert abs(time.mktime(stamp) - time.mktime(
            time.gmtime(began))) <= 2


class TestBuildRecord:
    def _spans(self):
        return [
            Span(name="fra.reduce", start=1.0, end=3.0, span_id=2,
                 parent_id=1),
            Span(name="experiment.run", start=0.0, end=4.0, span_id=1,
                 attrs={"cpu_s": 3.5, "max_rss_kb": 2048}),
        ]

    def test_fills_stages_cache_host_and_git(self):
        metrics = {"counters": {"cache.hits": 3, "cache.misses": 1,
                                "fra.iterations": 9}}
        record = build_record(
            "run", self._spans(), metrics, duration_s=4.0,
            fingerprint="fp", seed=7, labels={"jobs": 1},
            cache={"dataset_key": "dk"}, extra={"scenarios": 2},
        )
        assert record.kind == "run" and record.status == "ok"
        assert record.started_at.endswith("Z")
        assert record.cache == {"hits": 3, "misses": 1,
                                "dataset_key": "dk"}
        assert record.stages["experiment.run"]["max_rss_kb"] == 2048
        assert record.stages["fra.reduce"]["total_s"] == 2.0
        assert record.slowest[0]["name"] == "experiment.run"
        assert record.metrics == metrics
        assert record.host["python"]
        assert record.git == git_describe()
        assert (record.fingerprint, record.seed) == ("fp", 7)
        assert record.labels == {"jobs": 1}
        assert record.extra == {"scenarios": 2}

    def test_json_keys_unchanged(self):
        record = build_record("bench", labels={"suite": "x"})
        assert set(record.to_dict()) == {
            "run_id", "kind", "status", "started_at", "duration_s",
            "fingerprint", "seed", "labels", "cache", "stages",
            "slowest", "metrics", "host", "git", "extra",
        }
        assert record.stages == {} and record.slowest == []
        assert record.cache == {} and record.metrics == {}


class TestRunLedgerAppend:
    def test_append_then_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        first = ledger.append(_record(fingerprint="f1"))
        second = ledger.append(_record(fingerprint="f2"))
        records = ledger.records()
        assert [r.run_id for r in records] == [first.run_id,
                                               second.run_id]
        assert len(ledger) == 2

    def test_creates_parent_directories(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "nested" / "runs.jsonl")
        ledger.append(_record())
        assert len(ledger.records()) == 1

    def test_each_record_is_one_json_line(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(_record())
        ledger.append(_record())
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_try_append_logs_instead_of_raising(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        ledger = RunLedger(blocker / "runs.jsonl")
        with pytest.raises(OSError):
            ledger.append(_record())
        assert ledger.try_append(_record()) is False
        good = RunLedger(tmp_path / "runs.jsonl")
        assert good.try_append(_record()) is True
        assert len(good) == 1

    def test_missing_file_reads_as_empty(self, tmp_path):
        ledger = RunLedger(tmp_path / "absent.jsonl")
        assert ledger.records() == []
        assert ledger.latest() is None


class TestAppendUnderFault:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        kept = ledger.append(_record(fingerprint="keep"))
        with ledger.path.open("a") as handle:
            handle.write('{"kind": "run", "status": "ok", "trunca')
        records, skipped = ledger.scan()
        assert skipped == 1
        assert [r.run_id for r in records] == [kept.run_id]

    def test_corrupt_middle_line_does_not_hide_later_records(
            self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        first = ledger.append(_record())
        with ledger.path.open("a") as handle:
            handle.write("not json at all\n")
        second = ledger.append(_record())
        records, skipped = ledger.scan()
        assert skipped == 1
        assert [r.run_id for r in records] == [first.run_id,
                                               second.run_id]

    def test_killed_writer_leaves_ledger_parseable(self, tmp_path):
        # A subprocess appends real records, then is SIGKILLed while
        # spinning mid-append; whatever landed must parse cleanly.
        ledger_path = tmp_path / "runs.jsonl"
        script = textwrap.dedent("""
            import os, sys
            sys.path.insert(0, {src!r})
            from repro.obs import RunLedger, RunRecord
            ledger = RunLedger({path!r})
            for i in range(3):
                ledger.append(RunRecord(kind="run",
                                        labels={{"i": i}}))
            print("ready", flush=True)
            # Tear the tail: a partial line with no newline, then spin
            # until the parent kills us.
            fd = os.open({path!r}, os.O_WRONLY | os.O_APPEND)
            os.write(fd, b'{{"kind": "run", "labels"')
            print("torn", flush=True)
            while True:
                pass
        """).format(src=str(Path("src").resolve()),
                    path=str(ledger_path))
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            assert proc.stdout.readline().strip() == "torn"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        records, skipped = RunLedger(ledger_path).scan()
        assert len(records) == 3
        assert skipped == 1
        assert [r.labels["i"] for r in records] == [0, 1, 2]

    def test_resume_appends_linked_record(self, tmp_path):
        # The cold run and the resumed run share a fingerprint — that
        # is the link 'repro report' groups by.
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(_record(fingerprint="cfg", status="partial"))
        ledger.append(_record(fingerprint="cfg"))
        linked = ledger.query(fingerprint="cfg")
        assert [r.status for r in linked] == ["partial", "ok"]


class TestQuery:
    @pytest.fixture()
    def ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(_record(kind="run", fingerprint="a"))
        ledger.append(_record(kind="chaos", fingerprint="a",
                              status="partial"))
        ledger.append(_record(kind="run", fingerprint="b"))
        return ledger

    def test_filter_by_kind_and_fingerprint(self, ledger):
        assert len(ledger.query(kind="run")) == 2
        assert len(ledger.query(fingerprint="a")) == 2
        assert len(ledger.query(kind="run", fingerprint="a")) == 1

    def test_filter_by_status(self, ledger):
        assert len(ledger.query(status="partial")) == 1

    def test_limit_keeps_newest(self, ledger):
        newest = ledger.query(limit=1)
        assert len(newest) == 1
        assert newest[0].fingerprint == "b"

    def test_limit_must_be_positive(self, ledger):
        with pytest.raises(ValueError):
            ledger.query(limit=0)

    def test_latest_and_get_by_prefix(self, ledger):
        latest = ledger.latest(kind="run")
        assert latest.fingerprint == "b"
        assert ledger.get(latest.run_id[:6]).run_id == latest.run_id
        assert ledger.get("nonexistent") is None


class TestCompareAndRender:
    def _pair(self):
        cold = _record(
            duration_s=20.0, fingerprint="cfg",
            cache={"hits": 0, "dataset_key": "k1"},
            stages={"pipeline.scenario": {"count": 4, "total_s": 16.0,
                                          "self_s": 15.0, "max_s": 5.0,
                                          "cpu_s": 14.0,
                                          "max_rss_kb": 4096.0},
                    "synth.dataset": {"count": 1, "total_s": 2.0,
                                      "self_s": 2.0, "max_s": 2.0}},
        )
        warm = _record(
            duration_s=2.0, fingerprint="cfg",
            cache={"hits": 4, "dataset_key": "k1"},
            stages={"pipeline.scenario": {"count": 4, "total_s": 0.4,
                                          "self_s": 0.4, "max_s": 0.2}},
        )
        return cold, warm

    def test_compare_records_ratios(self):
        cold, warm = self._pair()
        comparison = compare_records(cold, warm)
        assert comparison["duration"]["ratio"] == pytest.approx(0.1)
        scenario = comparison["stages"]["pipeline.scenario"]
        assert scenario["ratio"] == pytest.approx(0.025)
        # A stage only the cold run exercised has no ratio.
        assert comparison["stages"]["synth.dataset"]["ratio"] is None

    def test_render_history_lists_every_record(self):
        cold, warm = self._pair()
        text = render_history([cold, warm])
        assert cold.run_id[:8] in text and warm.run_id[:8] in text
        assert "4 hits" in text
        assert "peak-rss" in text     # memory column in the history

    def test_render_history_empty(self):
        assert "empty" in render_history([])

    def test_render_record_shows_stage_and_memory_columns(self):
        cold, _ = self._pair()
        text = render_record(cold)
        assert "pipeline.scenario" in text
        assert "max-rss" in text and "4.0MB" in text
        assert "14.0s" in text                   # cpu column
        assert "4.00s" in text                   # mean: 16 s / 4
        assert "fingerprint cfg" in text
        assert "dataset_key=k1" in text

    def test_render_record_without_profile_attrs(self):
        _, warm = self._pair()
        text = render_record(warm)
        assert "pipeline.scenario" in text
        assert "max-rss" not in text

    def test_render_compare(self):
        cold, warm = self._pair()
        text = render_compare(cold, warm)
        assert "0.10x" in text
        assert "pipeline.scenario" in text


class TestStageRows:
    def test_aggregates_spans_with_profile_attrs(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("stage.a") as record:
                record.attrs["max_rss_kb"] = 512.0
                record.attrs["cpu_s"] = 0.5
            with span("stage.a") as record:
                record.attrs["max_rss_kb"] = 1024.0
                record.attrs["cpu_s"] = 0.25
        rows = stage_rows(tracer.spans)
        assert rows["stage.a"]["count"] == 2
        assert rows["stage.a"]["max_rss_kb"] == 1024.0   # max
        assert rows["stage.a"]["cpu_s"] == pytest.approx(0.75)  # sum

    def test_plain_spans_keep_wall_time_fields_only(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("stage.a"):
                pass
        rows = stage_rows(tracer.spans)
        assert set(rows["stage.a"]) == {"count", "total_s", "self_s",
                                        "max_s"}

    def test_rows_are_a_projection_of_aggregate_spans(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("stage.outer") as record:
                record.attrs["cpu_s"] = 0.5
                with span("stage.inner"):
                    pass
        stats = aggregate_spans(tracer.spans)
        rows = stage_rows(tracer.spans)
        assert list(rows) == list(stats)
        for name, row in rows.items():
            assert row == {key: stats[name][key] for key in row}
        assert rows["stage.outer"]["cpu_s"] == 0.5


class TestSlowestRows:
    def test_longest_first_with_attrs(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("stage.a", scenario="2017_7"):
                with span("stage.b", iteration=2):
                    pass
        rows = slowest_rows(tracer.spans, n=1)
        assert rows == [{"name": "stage.a",
                         "duration_s": rows[0]["duration_s"],
                         "attrs": {"scenario": "2017_7"}}]
        assert [row["name"] for row in slowest_rows(tracer.spans)] == [
            "stage.a", "stage.b"]
        assert slowest_rows([]) == []

    def test_round_trip_through_the_ledger(self, tmp_path):
        rows = [{"name": "experiment.run", "duration_s": 2.5,
                 "attrs": {"scenario": "2017_7", "path": Path("k")}}]
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(_record(slowest=rows))
        # an attr JSON cannot encode is kept as its text
        assert ledger.latest().slowest == [
            {**rows[0], "attrs": {"scenario": "2017_7", "path": "k"}}]
        # Records written before the field existed load with none.
        payload = _record().to_dict()
        del payload["slowest"]
        assert RunRecord.from_dict(payload).slowest == []


class TestHostAndGit:
    def test_host_info_fields(self):
        info = host_info()
        assert info["python"] and info["platform"]
        assert info["pid"] == os.getpid()

    def test_git_describe_in_this_repo(self):
        # The repo under test is a git checkout, so this returns a
        # non-empty single-line description.
        described = git_describe(Path(__file__).resolve().parent)
        assert described is None or "\n" not in described

    def test_git_describe_degrades_to_none(self, tmp_path):
        assert git_describe(tmp_path) is None
