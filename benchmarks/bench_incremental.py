#!/usr/bin/env python
"""Daily-update cost benchmark for :mod:`repro.incremental`.

Measures the tentpole claim behind ``repro update``: once a cold run
has populated the artifact cache, extending the study by one simulated
day costs ≪ 1% of the cold run. One entry lands in
``benchmarks/results/BENCH_incremental.json``:

``daily_update``
    A cold :func:`~repro.core.pipeline.run_experiment` into a fresh
    cache, then :func:`~repro.incremental.update_experiment` with
    ``days=1`` against that cache. ``speedup_daily_vs_cold`` (cold
    seconds / update seconds) gates in the perf-regression job, as do
    the ``identical`` bit (the update's improvement tables equal a
    cold ``n+1``-day rerun's, float for float) and
    ``daily_cost_below_1pct``. Two info-only keys split the update's
    wall-clock, read from the spans its :class:`~repro.obs.Tracer`
    records: ``extend_s`` (``synth.extend``: simulating only the new
    day from the parent dataset's carried state and appending it to the
    features, target, latent arrays and universe) and ``rerun_s``
    (``experiment.run``: the cached rerun of the study). Neither is a
    ``speedup_*`` ratio or a boolean, so neither gates.

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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    from benchmarks._emit import write_bench
except ImportError:  # run directly: benchmarks/ is sys.path[0]
    from _emit import write_bench

import repro.core.scenarios as scenarios  # noqa: E402
from repro.core.pipeline import ExperimentConfig, run_experiment  # noqa: E402
from repro.incremental import update_experiment  # noqa: E402
from repro.obs import Tracer  # noqa: E402
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


def _span_seconds(tracer: Tracer, name: str) -> float:
    """Total duration of the tracer's spans called ``name``."""
    return sum(s.duration for s in tracer.spans if s.name == name)


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

            tracer = Tracer()
            start = time.perf_counter()
            update = update_experiment(config, days=DAYS, cache_dir=cache,
                                       tracer=tracer)
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
        "extend_s": round(_span_seconds(tracer, "synth.extend"), 3),
        "rerun_s": round(_span_seconds(tracer, "experiment.run"), 3),
        "identical": identical,
        "dataset_reused": update.dataset_reused,
        "scenarios_cached": update.scenarios_cached,
        "scenarios_total": update.scenarios_total,
    }


def main() -> int:
    benchmarks = {"daily_update": bench_daily_update()}
    daily = benchmarks["daily_update"]
    print(f"daily_update  cold={daily['cold_s']:.2f}s  "
          f"update={daily['update_s']:.3f}s  "
          f"(extend={daily['extend_s']:.3f}s "
          f"rerun={daily['rerun_s']:.3f}s)  "
          f"speedup={daily['speedup_daily_vs_cold']}x  "
          f"cost={daily['daily_cost_pct']}%  "
          f"identical={daily['identical']}  "
          f"cached={daily['scenarios_cached']}/"
          f"{daily['scenarios_total']}")
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
