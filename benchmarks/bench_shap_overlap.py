"""§3.2 validation — overlap between SHAP's top-100 and FRA's survivors.

The paper reports an average overlap of ~78 features out of <= 100,
reading it as evidence that FRA's survivors really are the important
ones. The reproduction checks that the two independent methods agree on
a clear majority of features, and measures the exact-TreeSHAP ranking
pass itself.
"""

from repro.core.reporting import format_table
from repro.core.scenarios import build_scenario
from repro.core.selection import SHAPConfig, shap_ranking


def test_shap_overlap(benchmark, bench_results, artifact_writer):
    art = next(iter(bench_results.artifacts.values()))
    scenario = build_scenario(bench_results.raw, art.scenario.period,
                              art.scenario.window)
    benchmark.pedantic(
        shap_ranking,
        args=(scenario.X, scenario.y, scenario.feature_names),
        kwargs={"config": SHAPConfig(
            gb_params={"n_estimators": 10, "max_depth": 3,
                       "learning_rate": 0.2, "subsample": 0.8,
                       "reg_lambda": 1.0},
            max_rows=30,
        )},
        rounds=1, iterations=1,
    )

    rows = []
    ratios = []
    for key, art in sorted(bench_results.artifacts.items()):
        n_fra = len(art.selection.fra.selected)
        overlap = art.selection.overlap_top100
        ratios.append(overlap / n_fra)
        rows.append([key, n_fra, overlap, f"{overlap / n_fra:.0%}"])
    mean_overlap = bench_results.mean_shap_overlap()
    text = (
        format_table(
            ["Scenario", "FRA survivors", "∩ SHAP top-100", "agreement"],
            rows,
            title="FRA vs SHAP top-100 overlap (paper: ~78 on average)",
        )
        + f"\n\nmean overlap: {mean_overlap:.1f} features"
        + "\nPaper shape: the two independent importance methods agree "
        "on a clear\nmajority of the surviving features."
    )
    artifact_writer("shap_overlap", text)

    assert mean_overlap > 0
    # agreement on a majority of survivors, on average
    assert sum(ratios) / len(ratios) > 0.5
