#!/usr/bin/env python
"""Daily-update cost benchmark for :mod:`repro.incremental`.

Measures the tentpole claim behind ``repro update``: once a cold run
has populated the artifact cache, extending the study by one simulated
day costs ≪ 1% of the cold run. Two entries land in
``benchmarks/results/BENCH_incremental.json``:

``daily_update``
    A cold :func:`~repro.core.pipeline.run_experiment` into a fresh
    cache, then :func:`~repro.incremental.update_experiment` with
    ``days=1`` against that cache. ``speedup_daily_vs_cold`` (cold
    seconds / update seconds) gates in the perf-regression job, as do
    the ``identical`` bit (the update's improvement tables equal a
    cold ``n+1``-day rerun's, float for float) and
    ``daily_cost_below_1pct``.

``warm_refit``
    The estimator-level half of the story: a forest grown from 12 to
    24 trees via ``fit(..., warm_start_from=prev)`` versus a cold
    24-tree fit. ``speedup_warm_refit`` gates; ``identical`` asserts
    the warm model predicts byte-for-byte like the cold one, both
    through ``predict`` and through its warm-extended compiled tables.

The study periods are shortened (in-process only) so the default
1-day extension lands *after* the period ends — the same property the
``default`` preset has naturally, at ~50x the runtime. Without it the
fast preset's simulation ends inside both periods and every extension
would (correctly) invalidate the cached scenarios, measuring the
cold path twice.

Run directly — intentionally **not** a pytest module::

    PYTHONPATH=src python benchmarks/bench_incremental.py
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    from benchmarks._emit import write_bench
except ImportError:  # run directly: benchmarks/ is sys.path[0]
    from _emit import write_bench

import repro.core.scenarios as scenarios  # noqa: E402
from repro.core.pipeline import ExperimentConfig, run_experiment  # noqa: E402
from repro.incremental import update_experiment  # noqa: E402
from repro.ml.compiled import ensemble_compiled  # noqa: E402
from repro.ml.forest import RandomForestRegressor  # noqa: E402
from repro.obs import MetricsRegistry, use_metrics  # noqa: E402
from repro.synth.config import SimulationConfig  # noqa: E402

DAYS = 1


def _config() -> ExperimentConfig:
    return dataclasses.replace(
        ExperimentConfig.fast(),
        simulation=SimulationConfig(start="2016-06-01", end="2019-06-30",
                                    seed=11, n_assets=105),
        periods=("2017",), windows=(7, 30),
        n_jobs=1, verbose=False,
    )


def _improvement_rows(results) -> list[tuple]:
    """Every improvement as a comparable (model, period, window, mses)
    row — float-exact, so equality means bit-identity of the study
    outputs."""
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


def bench_daily_update() -> dict:
    """Cold run → 1-day update against the same cache, plus a cold
    ``n+1``-day rerun as the bit-identity reference."""
    # Shorten the study period so it ends at the parent simulation's
    # last day; the appended day then lands outside every period and
    # the range-granular cache keys re-serve the scenarios.
    saved = dict(scenarios.PERIODS)
    scenarios.PERIODS["2017"] = ("2017-01-01", "2019-06-30")
    config = _config()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cache = f"{tmp}/cache"
            start = time.perf_counter()
            run_experiment(config, cache_dir=cache)
            cold_s = time.perf_counter() - start

            start = time.perf_counter()
            update = update_experiment(config, days=DAYS, cache_dir=cache)
            update_s = time.perf_counter() - start

        # The reference: the same extended config run cold, no cache.
        reference = run_experiment(update.config)
    finally:
        scenarios.PERIODS.clear()
        scenarios.PERIODS.update(saved)
    identical = (_improvement_rows(update.results)
                 == _improvement_rows(reference))
    cost = update_s / cold_s if cold_s else float("nan")
    return {
        "cold_s": round(cold_s, 3),
        "update_s": round(update_s, 3),
        "speedup_daily_vs_cold": round(cold_s / update_s, 2)
        if update_s else float("nan"),
        "daily_cost_pct": round(100.0 * cost, 3),
        "daily_cost_below_1pct": bool(cost < 0.01),
        "identical": identical,
        "dataset_reused": update.dataset_reused,
        "scenarios_cached": update.scenarios_cached,
        "scenarios_total": update.scenarios_total,
    }


def bench_warm_refit() -> dict:
    """Forest grown 12 → 24 trees warm versus a cold 24-tree fit."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(900, 40))
    y = X[:, :5] @ rng.normal(size=5) + 0.2 * rng.normal(size=900)
    params = dict(n_estimators=24, max_depth=10, max_features="sqrt",
                  random_state=0)

    prev = RandomForestRegressor(**{**params, "n_estimators": 12}).fit(X, y)
    ensemble_compiled(prev)  # leaves the compiled tables for extension

    start = time.perf_counter()
    cold = RandomForestRegressor(**params).fit(X, y)
    cold_s = time.perf_counter() - start

    registry = MetricsRegistry()
    with use_metrics(registry):
        start = time.perf_counter()
        warm = RandomForestRegressor(**params).fit(
            X, y, warm_start_from=prev
        )
        warm_s = time.perf_counter() - start
        warm_compiled = ensemble_compiled(warm)
    counters = registry.snapshot()["counters"]

    identical = bool(
        np.array_equal(cold.predict(X), warm.predict(X))
        and np.array_equal(ensemble_compiled(cold).predict(X),
                           warm_compiled.predict(X))
    )
    return {
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup_warm_refit": round(cold_s / warm_s, 2)
        if warm_s else float("nan"),
        "identical": identical,
        "warm_reused_members": int(
            counters.get("ml.warm_reused_members", 0)
        ),
        "compile_reused_nodes": int(
            counters.get("predict.compile_reused_nodes", 0)
        ),
    }


def main() -> int:
    benchmarks = {"daily_update": bench_daily_update(),
                  "warm_refit": bench_warm_refit()}
    daily = benchmarks["daily_update"]
    print(f"daily_update  cold={daily['cold_s']:.2f}s  "
          f"update={daily['update_s']:.3f}s  "
          f"speedup={daily['speedup_daily_vs_cold']}x  "
          f"cost={daily['daily_cost_pct']}%  "
          f"identical={daily['identical']}  "
          f"cached={daily['scenarios_cached']}/"
          f"{daily['scenarios_total']}")
    warm = benchmarks["warm_refit"]
    print(f"warm_refit    cold={warm['cold_s']:.3f}s  "
          f"warm={warm['warm_s']:.3f}s  "
          f"speedup={warm['speedup_warm_refit']}x  "
          f"identical={warm['identical']}  "
          f"reused={warm['warm_reused_members']}")
    out = write_bench(
        "incremental", benchmarks,
        cpu_count=os.cpu_count(), days=DAYS,
        note=("speedup_daily_vs_cold divides one cold experiment's "
              "wall-clock by the 1-day incremental update's against "
              "the same artifact cache; both runs share a process and "
              "host, so the ratio is far more portable than either "
              "absolute time. identical compares the update's "
              "improvement tables against a cold n+1-day rerun, float "
              "for float."),
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
