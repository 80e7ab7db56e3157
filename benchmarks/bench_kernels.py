#!/usr/bin/env python
"""Wall-time benchmark for the tree kernels and the artifact cache.

Measures the two tentpole optimisations at the fast-config scale the
test-suite runs every day:

* ``exact`` vs ``hist`` splitter on single trees, random forests and
  gradient boosting (the hist kernel quantile-bins each feature once
  and scores whole tree levels with vectorised histogram passes — see
  :mod:`repro.ml.tree`);
* cold vs warm runs of the cached experiment pipeline
  (``run_experiment(cache_dir=...)``), which on a warm store
  short-circuits the dataset and every scenario task to
  content-addressed reads (a task entry holds the task's results, not
  its scenario matrices, and no scenario is built).

Writes ``benchmarks/results/BENCH_kernels.json`` with the timings, the
speedup ratios, and the host shape (``cpu_count``, ``n_jobs``) — the
kernel speedups are algorithmic, so they hold on a single-core host.
Each fit shape and the cold pipeline run also report their working
memory: ``minflt_*``, the minor page faults of one untimed call, and
``peak_traced_mb_*``, the peak of ``tracemalloc``-traced allocations
above the call's start. Both are informational.

Run directly — intentionally **not** a pytest module, because wall-time
ratios depend on the host and would make flaky assertions::

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    from benchmarks._emit import write_bench
except ImportError:  # run directly: benchmarks/ is sys.path[0]
    from _emit import write_bench

from repro.cache import CacheStore  # noqa: E402
from repro.core.pipeline import ExperimentConfig, run_experiment  # noqa: E402
from repro.ml.boosting import GradientBoostingRegressor  # noqa: E402
from repro.ml.forest import RandomForestRegressor  # noqa: E402
from repro.ml.tree import DecisionTreeRegressor, bin_features  # noqa: E402

REPEATS = 3


def _data(n_rows=700, n_features=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, n_features))
    y = X[:, :5] @ rng.normal(size=5) + 0.2 * rng.normal(size=n_rows)
    return X, y


def _best_of(fn, repeats=REPEATS):
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_traced_mb(fn) -> float:
    """Peak traced allocation of one call of ``fn`` above its start, MB.

    ``tracemalloc`` slows the call, so it is never one that is timed.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round((peak - base) / 1e6, 2)


def _splitter_pair(make_model, X, y):
    """(exact_s, hist_s, hist_mse_ratio) for one estimator shape, plus
    each splitter's page faults and traced peak for one more fit."""
    out = {}
    memory = {}
    for splitter in ("exact", "hist"):
        def fit():
            return make_model(splitter).fit(X, y)

        seconds, model = _best_of(fit)
        residual = y - model.predict(X)
        out[splitter] = (seconds, float(residual @ residual / y.size))
        before = _minflt()
        fit()
        memory[f"minflt_{splitter}"] = _minflt() - before
        memory[f"peak_traced_mb_{splitter}"] = _peak_traced_mb(fit)
    exact_s, exact_mse = out["exact"]
    hist_s, hist_mse = out["hist"]
    return {
        "exact_s": round(exact_s, 4),
        "hist_s": round(hist_s, 4),
        "speedup_hist": round(exact_s / hist_s, 2) if hist_s else None,
        "hist_mse_over_exact": round(hist_mse / exact_mse, 4)
        if exact_mse else None,
        **memory,
    }


def bench_tree_fit():
    X, y = _data()
    return _splitter_pair(
        lambda s: DecisionTreeRegressor(
            max_depth=8, max_features="sqrt", min_samples_leaf=2,
            random_state=0, splitter=s,
        ), X, y,
    )


def bench_forest_fit():
    # The fast-preset FRA forest shape (the pipeline's hottest fit).
    X, y = _data()
    return _splitter_pair(
        lambda s: RandomForestRegressor(
            n_estimators=8, max_depth=8, max_features="sqrt",
            min_samples_leaf=2, random_state=0, splitter=s,
        ), X, y,
    )


def bench_gb_fit():
    # Depth-3 full-feature stages: bins are built once and shared
    # across every stage, where the hist kernel shines.
    X, y = _data()
    return _splitter_pair(
        lambda s: GradientBoostingRegressor(
            n_estimators=15, max_depth=3, learning_rate=0.15,
            subsample=0.8, random_state=0, splitter=s,
        ), X, y,
    )


def bench_bin_features():
    X, _ = _data(n_rows=2000)
    seconds, bins = _best_of(lambda: bin_features(X))
    return {
        "seconds": round(seconds, 4),
        "n_rows": X.shape[0],
        "n_features": X.shape[1],
        "max_code": int(bins.codes.max()),
    }


def bench_pipeline_cached():
    """Cold vs warm cached run of a trimmed fast experiment.

    The timed cold run also counts its minor page faults; a second cold
    run, into its own store, gives the traced peak.
    """
    config = dataclasses.replace(
        ExperimentConfig.fast(),
        periods=("2017",),
        windows=(7, 90),
        run_gb_validation=False,
        n_jobs=1,
    )
    cache_dir = tempfile.mkdtemp(prefix="bench-kernels-cache-")
    traced_dir = tempfile.mkdtemp(prefix="bench-kernels-traced-")
    try:
        before = _minflt()
        start = time.perf_counter()
        cold = run_experiment(config, cache_dir=cache_dir)
        cold_s = time.perf_counter() - start
        minflt_cold = _minflt() - before
        start = time.perf_counter()
        warm = run_experiment(config, cache_dir=cache_dir)
        warm_s = time.perf_counter() - start
        identical = (
            cold.table1_vector_sizes() == warm.table1_vector_sizes()
            and all(
                cold.artifacts[k].selection.final_features
                == warm.artifacts[k].selection.final_features
                for k in cold.artifacts
            )
        )
        store = CacheStore(cache_dir)
        counters = warm.run_summary.metrics["counters"]
        return {
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 3),
            "speedup_warm": round(cold_s / warm_s, 2) if warm_s else None,
            "identical": bool(identical),
            "warm_cache_hits": int(counters.get("cache.hits", 0)),
            "cache_entries": store.entry_count(),
            "cache_bytes": store.size_bytes(),
            "minflt_cold": minflt_cold,
            "peak_traced_mb_cold": _peak_traced_mb(
                lambda: run_experiment(config, cache_dir=traced_dir)),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)


BENCHES = {
    "tree_fit": bench_tree_fit,
    "forest_fit": bench_forest_fit,
    "gb_fit": bench_gb_fit,
    "bin_features": bench_bin_features,
    "pipeline_fast": bench_pipeline_cached,
}


def main() -> int:
    benchmarks = {}
    for name, bench in BENCHES.items():
        result = bench()
        benchmarks[name] = result
        line = "  ".join(
            f"{key}={value}" for key, value in result.items()
        )
        print(f"{name:14s} {line}")
    out = write_bench(
        "kernels", benchmarks,
        cpu_count=os.cpu_count(), n_jobs=1,
        note=("hist-vs-exact and warm-vs-cold ratios are algorithmic "
              "(serial, single process), so they are comparable "
              "across hosts; absolute seconds are not"),
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
