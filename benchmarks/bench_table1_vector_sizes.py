"""Table 1 — final feature-vector sizes for all 10 scenarios.

Reads the sizes off the shared full-experiment run and measures one FRA
consensus-scoring pass (the algorithm's inner loop) at realistic width.
"""

import numpy as np

from repro.core.fra import FRAConfig, fra_reduce
from repro.core.reporting import render_table1
from repro.core.scenarios import build_scenario


def test_table1_vector_sizes(benchmark, bench_results, artifact_writer):
    sizes = bench_results.table1_vector_sizes()

    # Measure a small-but-real FRA reduction as the benchmark payload.
    art = next(iter(bench_results.artifacts.values()))
    scenario = build_scenario(bench_results.raw, art.scenario.period,
                              art.scenario.window)
    cols = scenario.feature_names[:60]
    sub = scenario.select_features(cols)
    tiny = FRAConfig(
        target_size=30,
        rf_params={"n_estimators": 5, "max_depth": 6,
                   "max_features": "sqrt"},
        gb_params={"n_estimators": 10, "max_depth": 3,
                   "learning_rate": 0.2},
        pfi_repeats=1, pfi_max_rows=150,
    )
    result = benchmark.pedantic(
        fra_reduce, args=(sub.X, sub.y, sub.feature_names, tiny),
        rounds=1, iterations=1,
    )
    assert len(result.selected) <= 30

    text = (
        f"{render_table1(sizes)}\n\n"
        "Paper shape: every scenario's final vector lands in the 79-100 "
        "range\n(target 100, union of FRA and SHAP top-75).\n"
        f"Reproduced range: {min(sizes.values())}-{max(sizes.values())}"
    )
    artifact_writer("table1_vector_sizes", text)
    for key, n in sizes.items():
        assert 20 <= n <= 150, key
    # FRA must actually reduce: vectors far below the candidate counts.
    for key, art in bench_results.artifacts.items():
        assert sizes[key] < art.scenario.n_features
