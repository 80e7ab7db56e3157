"""The perf-regression gate: BENCH loading, classification, rendering.

Contracts under test: every committed BENCH artefact parses with the
one shared loader; speedup ratios gate with tolerance while absolute
seconds stay informational; boolean invariants fail on True→False;
missing coverage fails, while new coverage (a fresh-only benchmark or
metric) is informational; the directory-level check pairs only suites
present on both sides.
"""

import json
from pathlib import Path

import pytest

from repro.obs import (
    check_bench_dirs,
    compare_benchmarks,
    load_bench,
    load_bench_dir,
    render_bench_check,
)

REPO = Path(__file__).resolve().parent.parent.parent
BASELINES = REPO / "benchmarks" / "results"


def _write(directory: Path, suite: str, benchmarks: dict,
           **meta) -> Path:
    payload = {"schema": 1, **meta, "benchmarks": benchmarks}
    path = directory / f"BENCH_{suite}.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadBench:
    def test_every_committed_artefact_parses(self):
        suites = load_bench_dir(BASELINES)
        assert {"kernels", "incremental", "obs"} <= set(suites)
        for suite, payload in suites.items():
            assert payload["schema"] == 1, suite
            assert isinstance(payload["benchmarks"], dict), suite
            assert payload["benchmarks"], suite

    def test_rejects_missing_benchmarks_key(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"schema": 1}')
        with pytest.raises(ValueError, match="benchmarks"):
            load_bench(path)

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"schema": 99, "benchmarks": {}}')
        with pytest.raises(ValueError, match="schema"):
            load_bench(path)


class TestCompareBenchmarks:
    def test_ratio_within_tolerance_passes(self):
        deltas = compare_benchmarks(
            {"b": {"speedup_hist": 2.0}}, {"b": {"speedup_hist": 1.6}},
            ratio_tolerance=0.25,
        )
        [delta] = deltas
        assert delta.status == "ok" and not delta.failed

    def test_ratio_below_tolerance_fails(self):
        deltas = compare_benchmarks(
            {"b": {"speedup_hist": 2.0}}, {"b": {"speedup_hist": 1.4}},
            ratio_tolerance=0.25,
        )
        [delta] = deltas
        assert delta.status == "fail"

    def test_improved_ratio_passes(self):
        [delta] = compare_benchmarks(
            {"b": {"speedup_warm": 2.0}}, {"b": {"speedup_warm": 9.0}},
        )
        assert delta.status == "ok"

    def test_seconds_are_informational_even_when_slower(self):
        [delta] = compare_benchmarks(
            {"b": {"cold_s": 1.0}}, {"b": {"cold_s": 50.0}},
        )
        assert delta.status == "info" and not delta.gating

    def test_bool_regression_fails_without_tolerance(self):
        [delta] = compare_benchmarks(
            {"b": {"identical": True}}, {"b": {"identical": False}},
        )
        assert delta.status == "fail"

    def test_bool_staying_true_passes(self):
        [delta] = compare_benchmarks(
            {"b": {"deterministic": True}}, {"b": {"deterministic": True}},
        )
        assert delta.status == "ok"

    def test_missing_benchmark_fails(self):
        [delta] = compare_benchmarks(
            {"gone": {"speedup_hist": 2.0}}, {},
        )
        assert delta.status == "missing" and delta.failed

    def test_missing_gating_metric_fails(self):
        [delta] = compare_benchmarks(
            {"b": {"speedup_hist": 2.0}}, {"b": {}},
        )
        assert delta.status == "missing"

    def test_new_fresh_benchmark_is_informational(self):
        deltas = compare_benchmarks({}, {"new": {"speedup_x": 3.0}})
        [delta] = deltas
        assert delta.status == "info"

    def test_new_fresh_metric_is_informational(self):
        # Even a speedup_* name: without a baseline it cannot gate.
        deltas = compare_benchmarks(
            {"b": {"speedup_hist": 2.0}},
            {"b": {"speedup_hist": 2.0, "minflt_exact": 328,
                   "speedup_new": 0.1}},
        )
        by_metric = {d.metric: d for d in deltas}
        assert by_metric["speedup_hist"].status == "ok"
        for metric, value in (("minflt_exact", 328), ("speedup_new", 0.1)):
            delta = by_metric[metric]
            assert delta.status == "info" and not delta.gating
            assert delta.fresh == value and delta.baseline is None
            assert delta.note == "new metric (no baseline)"

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            compare_benchmarks({}, {}, ratio_tolerance=1.5)


class TestCheckBenchDirs:
    def test_identical_dirs_pass(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        _write(fresh, "kernels",
               {"tree_fit": {"speedup_hist": 2.0, "hist_s": 0.01}})
        base = tmp_path / "base"
        base.mkdir()
        _write(base, "kernels",
               {"tree_fit": {"speedup_hist": 2.0, "hist_s": 0.02}})
        deltas, ok = check_bench_dirs(fresh, base)
        assert ok

    def test_committed_baselines_pass_against_themselves(self):
        deltas, ok = check_bench_dirs(BASELINES, BASELINES)
        assert ok, render_bench_check(deltas)
        assert any(delta.gating for delta in deltas)

    def test_perturbed_ratio_fails_the_gate(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for path in BASELINES.glob("BENCH_*.json"):
            (fresh / path.name).write_text(path.read_text())
        payload = json.loads((fresh / "BENCH_kernels.json").read_text())
        payload["benchmarks"]["forest_fit"]["speedup_hist"] = 0.1
        (fresh / "BENCH_kernels.json").write_text(json.dumps(payload))
        deltas, ok = check_bench_dirs(fresh, BASELINES)
        assert not ok
        failed = [d for d in deltas if d.failed]
        assert [(d.suite, d.benchmark, d.metric) for d in failed] == [
            ("kernels", "forest_fit", "speedup_hist")
        ]

    def test_suite_missing_from_fresh_is_informational(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        _write(fresh, "kernels", {"b": {"speedup_hist": 2.0}})
        base = tmp_path / "base"
        base.mkdir()
        _write(base, "kernels", {"b": {"speedup_hist": 2.0}})
        _write(base, "parallel", {"b": {"speedup_vs_serial": 1.0}})
        deltas, ok = check_bench_dirs(fresh, base)
        assert ok
        notes = [d for d in deltas if d.benchmark == "*"]
        assert any("not run" in d.note for d in notes)

    def test_empty_baseline_dir_raises(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        empty = tmp_path / "base"
        empty.mkdir()
        with pytest.raises(ValueError, match="no BENCH"):
            check_bench_dirs(fresh, empty)


class TestRender:
    def test_failures_listed_first_with_verdict(self):
        deltas = compare_benchmarks(
            {"b": {"speedup_hist": 2.0, "identical": True}},
            {"b": {"speedup_hist": 0.5, "identical": True}},
        )
        text = render_bench_check(deltas)
        assert text.splitlines()[0].startswith("FAIL")
        assert text.endswith("RESULT: FAIL")

    def test_pass_verdict(self):
        deltas = compare_benchmarks(
            {"b": {"speedup_hist": 2.0}}, {"b": {"speedup_hist": 2.0}},
        )
        text = render_bench_check(deltas)
        assert text.endswith("RESULT: PASS")

    def test_verbose_lists_informational_rows(self):
        deltas = compare_benchmarks(
            {"b": {"cold_s": 1.0}}, {"b": {"cold_s": 2.0}},
        )
        assert "cold_s" not in render_bench_check(deltas)
        assert "cold_s" in render_bench_check(deltas, verbose=True)
