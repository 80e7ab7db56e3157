"""Tests of the pipeline benchmark harness itself.

Run from the repository root (``--confcutdir`` keeps the session hook in
``benchmarks/conftest.py``, which rewrites ``BENCH_obs.json``, out)::

    python -m pytest benchmarks/pipeline --confcutdir=benchmarks/pipeline \
        -p no:cacheprovider
"""

from __future__ import annotations

import enum
import json
import math
import multiprocessing
import shutil
import subprocess
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

import compare
import fidelity
import rep
import run
import trace

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Percentile rule


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (60, 83), (100, 90), (120, 91), (1000, 99)])
def test_tail_percentile_values(n, expected):
    assert run.tail_percentile(n) == expected


@pytest.mark.parametrize("n", range(20, 400, 7))
def test_tail_percentile_is_highest_with_ten_beyond(n):
    values = list(range(n))
    p = run.tail_percentile(n)

    def beyond(q):
        return sum(v > run.percentile(values, q) for v in values)

    assert beyond(p) >= 10
    assert p == 99 or beyond(p + 1) < 10


# ----------------------------------------------------------------------
# Span analysis


def _span(name, start, end, span_id, parent, pid):
    return {"name": name, "start": start, "end": end, "id": span_id,
            "parent": parent, "pid": pid}


def test_union_length_merges_overlaps():
    assert trace.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert trace.union_length([]) == 0


def test_self_time_subtracts_union_of_children_across_pids():
    spans = [
        _span("parallel.map", 0.0, 10.0, "1.1", None, 1),
        _span("core.fra", 1.0, 5.0, "2.1", "1.1", 2),
        _span("core.fra", 3.0, 8.0, "3.1", "1.1", 3),
        _span("core.fra", 7.0, 9.0, "2.2", "1.1", 2),
        # Runs past its parent: only the overlap counts.
        _span("core.fra", 9.5, 12.0, "3.2", "1.1", 3),
    ]
    selfs = trace.self_times(spans)
    assert selfs["1.1"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert selfs["2.1"] == pytest.approx(4.0)


def test_layer_metrics_fan_out_and_inline_maps():
    spans = [
        _span("pipeline.run", 0.0, 10.0, "1.1", None, 1),
        _span("parallel.map", 1.0, 9.0, "1.2", "1.1", 1),
        _span("core.selection", 1.0, 8.0, "2.1", "1.2", 2),
        _span("core.selection", 1.0, 5.0, "3.1", "1.2", 3),
        # An inline map inside a worker belongs to its caller.
        _span("parallel.map", 2.0, 4.0, "2.2", "2.1", 2),
        _span("ml.forest.fit", 2.0, 3.0, "2.3", "2.2", 2),
    ]
    m = trace.layer_metrics(spans, {"cache.hits": 3, "cache.misses": 1},
                            overhead_pct=2.5)
    assert m["parallel.map_wall_s"] == pytest.approx(8.0)
    assert m["parallel.worker_busy_s"] == pytest.approx(11.0)
    assert m["parallel.fanout_efficiency"] == pytest.approx(11.0 / 16.0)
    assert m["parallel.tail_s"] == pytest.approx(9.0 - 5.0)
    assert m["core.selection.self_s"] == pytest.approx(7.0 - 1.0 + 4.0)
    assert m["pipeline.unattributed_share"] == pytest.approx(2.0 / 10.0)
    assert m["cache.hit_ratio"] == 0.75
    assert m["trace.overhead_pct"] == 2.5


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(trace.layer_metrics([], {}, 0.0)) == names


# ----------------------------------------------------------------------
# Rebinding wrappers


@pytest.fixture
def fake_modules(monkeypatch):
    """``repro._bench_src`` defines f and a class; two modules alias f."""
    src = types.ModuleType("repro._bench_src")

    def f(x):
        return x + 1

    class Model:
        def fit(self, x):
            return x * 2

    src.f, src.Model = f, Model
    user = types.ModuleType("repro._bench_user")
    user.g = f
    other = types.ModuleType("repro._bench_other")
    other.f = f
    for module in (src, user, other):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return src, user, other


def test_install_rebinds_every_alias_and_undoes(fake_modules, tmp_path):
    src, user, other = fake_modules
    original = src.f
    original_fit = src.Model.__dict__["fit"]
    undo = trace.install(tmp_path, targets=(
        ("layer.f", "repro._bench_src:f"),
        ("layer.fit", "repro._bench_src:Model.fit"),
    ))
    try:
        assert user.g(1) == 2 and other.f(2) == 3 and src.f(3) == 4
        assert src.Model().fit(4) == 8
    finally:
        undo()
    assert src.f is user.g is other.f is original
    assert src.Model.__dict__["fit"] is original_fit
    names = [s["name"] for s in trace.load_spans(tmp_path)]
    assert names == ["layer.f"] * 3 + ["layer.fit"]


def test_forked_worker_spans_name_the_parent_span(fake_modules, tmp_path):
    src, user, _ = fake_modules

    def fan_out():
        child = multiprocessing.get_context("fork").Process(
            target=lambda: user.g(0))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0

    src.fan_out = fan_out
    undo = trace.install(tmp_path, targets=(
        ("outer", "repro._bench_src:fan_out"),
        ("inner", "repro._bench_src:f"),
    ))
    try:
        src.fan_out()
    finally:
        undo()
    spans = {s["name"]: s for s in trace.load_spans(tmp_path)}
    assert spans["inner"]["pid"] != spans["outer"]["pid"]
    assert spans["inner"]["parent"] == spans["outer"]["id"]


# ----------------------------------------------------------------------
# Output digest


class _Cat(enum.Enum):
    TECH = "technical"
    MACRO = "macro"


def _fake_results(mse=0.5, order=1):
    importance = {"a": 0.25, "b": 0.75}
    if order < 0:
        importance = dict(reversed(list(importance.items())))
    art = SimpleNamespace(selection=SimpleNamespace(final_features=["a", "b"]),
                          rf_importance=importance)
    imp = SimpleNamespace(period="2017", window=7, diverse_mse=mse,
                          category_mse={_Cat.TECH: 0.6, _Cat.MACRO: 0.7})
    return SimpleNamespace(
        artifacts={"2017_7": art},
        table1_vector_sizes=lambda: {"2017_7": 2},
        improvements_rf=[imp], improvements_gb=[imp])


def test_digest_is_stable_and_float_exact():
    base = rep.results_digest(_fake_results())
    assert rep.results_digest(_fake_results()) == base
    assert rep.results_digest(_fake_results(order=-1)) == base
    nudged = _fake_results(mse=math.nextafter(0.5, 1.0))
    assert rep.results_digest(nudged) != base


# ----------------------------------------------------------------------
# Comparison


@pytest.mark.parametrize("base, new, better, verdict", [
    ([10, 10.1, 9.9], [10.2, 10.3, 10.1], "lower", "same"),
    ([10, 10.1, 9.9], [11.5, 11.6, 11.4], "lower", "worse"),
    ([10, 10.1, 9.9], [8.5, 8.6, 8.4], "lower", "better"),
    ([10, 10.1, 9.9], [8.5, 8.6, 8.4], "higher", "worse"),
    ([8, 10, 12, 14], [10, 11, 12, 13], "lower", "unresolved"),
    # Wide spread, but every new sample beats every base sample.
    ([10, 12, 14, 16], [6, 7, 8, 9], "lower", "better"),
])
def test_compare_classification(base, new, better, verdict):
    assert compare.classify(base, new, 0.1, better) == verdict


def test_spread_uses_inclusive_quartiles():
    # The exclusive method would put Q1 and Q3 at 1 and 3: the range.
    assert run.iqr_share([1.0, 2.0, 3.0]) == pytest.approx(0.5)
    assert run.iqr_share([2.0]) is None


def test_compare_single_samples_are_unresolved():
    # One sample per side has no spread, however far the medians moved.
    assert compare.classify([10.0], [10.1], 0.1, "lower") == "unresolved"
    assert compare.classify([10.0], [20.0], 0.1, "lower") == "unresolved"


def test_compare_spread_is_run_to_run_with_several_runs():
    def result(samples):
        return {"workloads": {"w": {"end_to_end": {"run_s": {
            "value": sorted(samples)[1], "samples": samples}}}}}

    spec = {"end_to_end": [{"name": "run_s", "unit": "s", "bound": 0.1,
                            "better": "lower"}]}
    noisy = [[1.0, 2.0, 3.0], [1.1, 2.05, 3.2], [0.9, 1.95, 2.8]]
    # One run per side: the wide within-run spread leaves it unresolved.
    rows = compare.compare([result(noisy[0])], [result(noisy[1])], spec)
    assert rows[0][-1] == "unresolved"
    # Several runs per side: their medians agree within the bound.
    rows = compare.compare([result(s) for s in noisy],
                           [result(s) for s in reversed(noisy)], spec)
    assert rows[0][2] == rows[0][3] == 2.0
    assert rows[0][-1] == "same"


# ----------------------------------------------------------------------
# Fidelity to the preset


def test_fidelity_rows_apply_tolerance_and_bin_equality():
    preset = {m: 0.30 for m in fidelity.SHARES}
    preset["ml.tree.bins_per_fit"] = 1.0
    bench = dict(preset)
    bench["core.fra.share"] = 0.30 + fidelity.TOLERANCE / 2
    bench["core.improvement.share"] = 0.30 - 2 * fidelity.TOLERANCE
    outside = {m for m, _, _, ok in fidelity.rows(preset, bench) if not ok}
    assert outside == {"core.improvement.share"}
    bench = {**preset, "ml.tree.bins_per_fit": 2.0}
    outside = {m for m, _, _, ok in fidelity.rows(preset, bench) if not ok}
    assert outside == {"ml.tree.bins_per_fit"}


# ----------------------------------------------------------------------
# The command itself


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["study_parallel", "daily_update"])
def test_smoke_run_tiny(workload, tmp_path):
    out = tmp_path / "result.json"
    proc = _run("--workload", workload, "--scale", "tiny", "--seconds", "0",
                "--trace", "1", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}
    doc = json.loads(out.read_text())["workloads"][workload]
    assert set(doc["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["end_to_end"].values())
    layers = last["metrics"]
    if workload == "daily_update":
        assert layers["cache.hit_ratio"]["value"] == 1.0
        assert layers["ml.forest.fits"]["value"] == 0
    else:
        assert layers["parallel.pool_builds"]["value"] == 1
        assert layers["parallel.worker_busy_s"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "benchmarks" / "pipeline",
                    tmp_path / "benchmarks" / "pipeline")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "study_serial", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
