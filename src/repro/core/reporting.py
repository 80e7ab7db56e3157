"""Renderers for the paper's tables, figure series and run report.

Every table is a GitHub-flavoured markdown pipe table whose columns are
padded, so the same text reads as an aligned table on a console and
renders as markdown. :func:`render_report` assembles one run's whole
report from the ``render_*`` functions; the benches print those
directly. Everything returns strings; nothing prints or writes files.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from ..categories import CATEGORY_LABELS, DataCategory
from ..obs import format_runtime, stage_rows, stage_table
from ..tables import format_table

if TYPE_CHECKING:
    from .pipeline import ExperimentResults

__all__ = [
    "format_table",
    "render_report",
    "render_table1",
    "render_contributions",
    "render_top_features",
    "render_unique_features",
    "render_improvement_by_window",
    "render_improvement_by_category",
    "render_series",
]


def render_table1(sizes: Mapping[str, int]) -> str:
    """Table 1: final feature-vector size per scenario."""
    rows = [(key, n) for key, n in sizes.items()]
    return format_table(
        ["Scenario", "Number of Features"], rows,
        title="Table 1: Summary of final feature vectors "
              "(year_prediction window)",
    )


def render_contributions(
    per_window: Mapping[int, Mapping[DataCategory, float]],
    period: str,
) -> str:
    """Figures 3/4 as a table: contribution factor per category/window."""
    windows = sorted(per_window)
    categories = sorted(
        {c for factors in per_window.values() for c in factors},
        key=lambda c: c.value,
    )
    rows = []
    for category in categories:
        rows.append(
            [CATEGORY_LABELS[category]]
            + [f"{per_window[w].get(category, 0.0):.3f}" for w in windows]
        )
    return format_table(
        ["Category"] + [f"w={w}" for w in windows],
        rows,
        title=f"Figure {'3' if period == '2017' else '4'}: contribution "
              f"of data sources to the final vector (set {period})",
    )


def render_top_features(table: Mapping[str, Sequence[str]],
                        period: str) -> str:
    """Table 3: top-k features per horizon group."""
    short = list(table["Short-term"])
    long_ = list(table["Long-term"])
    rows = [
        (short[i] if i < len(short) else "",
         long_[i] if i < len(long_) else "")
        for i in range(max(len(short), len(long_)))
    ]
    return format_table(
        ["Short-term", "Long-term"], rows,
        title=f"Table 3 (set {period}): top features by importance",
    )


def render_unique_features(table: Mapping[str, Sequence[str]],
                           period: str) -> str:
    """Table 4: top-k unique features per horizon group."""
    short = list(table["Short-term"])
    long_ = list(table["Long-term"])
    rows = [
        (short[i] if i < len(short) else "",
         long_[i] if i < len(long_) else "")
        for i in range(max(len(short), len(long_)))
    ]
    return format_table(
        ["Short-term", "Long-term"], rows,
        title=f"Table 4 (set {period}): top unique features per horizon",
    )


def render_improvement_by_window(
    by_period: Mapping[str, Mapping[int, float]]
) -> str:
    """Table 5: average MSE decrease by prediction window and period."""
    periods = list(by_period)
    windows = sorted({w for col in by_period.values() for w in col})
    rows = []
    for window in windows:
        rows.append(
            [window]
            + [
                f"{by_period[p][window]:.2f}%" if window in by_period[p]
                else "-"
                for p in periods
            ]
        )
    return format_table(
        ["Prediction Window"] + list(periods), rows,
        title="Table 5: average MSE percentage decrease by window",
    )


def render_improvement_by_category(
    by_period: Mapping[str, Mapping[DataCategory, float]]
) -> str:
    """Table 6: average MSE decrease by data category and period."""
    periods = list(by_period)
    categories = sorted(
        {c for col in by_period.values() for c in col},
        key=lambda c: c.value,
    )
    rows = []
    for category in categories:
        rows.append(
            [CATEGORY_LABELS[category]]
            + [
                f"{by_period[p][category]:.2f}%" if category in by_period[p]
                else "-"
                for p in periods
            ]
        )
    return format_table(
        ["Category"] + list(periods), rows,
        title="Table 6: average MSE percentage decrease by category",
    )


def render_series(name: str, values: Sequence[float],
                  max_points: int = 12) -> str:
    """One-line summary of a numeric series (for figure benches)."""
    values = list(values)
    if not values:
        return f"{name}: (empty)"
    step = max(1, len(values) // max_points)
    sampled = values[::step]
    body = ", ".join(f"{v:.4g}" for v in sampled)
    return (
        f"{name}: n={len(values)} first={values[0]:.4g} "
        f"last={values[-1]:.4g} min={min(values):.4g} "
        f"max={max(values):.4g}\n  samples: [{body}]"
    )


def _render_overall(results: ExperimentResults) -> str:
    """§4.3: the all-scenario average improvement per model and set."""
    rows = []
    for model in ("rf", "gb"):
        for period in results.config.periods:
            try:
                value = results.overall_improvement(period, model)
            except ValueError:  # GB pass skipped, or no such scenarios
                continue
            rows.append((model.upper(), period, f"{value:.2f}%"))
    return format_table(
        ["Model", "Set", "Mean improvement"], rows,
        title="Overall average MSE percentage decrease (§4.3)",
    )


def render_report(results: ExperimentResults) -> str:
    """One run's whole report as a markdown document.

    A header line (seed, periods, windows, runtime); the degradation
    summary and the failed scenarios when there are any; Table 1, the
    FRA/SHAP overlap, Figures 3-4, Tables 3-6 and the §4.3 averages for
    every period of the run; then the per-stage telemetry table of
    ``repro report --run`` and the run's counters. A section that the
    results cannot support (failed scenarios, dropped categories)
    becomes a one-line note instead of raising.
    """
    config = results.config
    periods = list(config.periods)
    sections = [
        f"Reproduction report: seed {config.simulation.seed}, "
        f"periods {', '.join(periods)}, "
        f"windows {', '.join(str(w) for w in config.windows)}, "
        f"runtime {format_runtime(results.runtime_seconds)}"
    ]
    if results.degradation is not None:
        sections.append(f"degraded inputs: {results.degradation.summary()}")
    if results.failures:
        sections.append("\n".join(
            [f"{len(results.failures)} scenario(s) failed "
             f"(results below cover the rest):", ""]
            + [f"- {failure}"
               for _, failure in sorted(results.failures.items())]
        ))

    def section(label: str, make) -> None:
        try:
            sections.append(make())
        except (ValueError, KeyError) as exc:
            sections.append(f"[{label} unavailable on this run: {exc}]")

    def contributions(period: str) -> str:
        per_window = results.contributions(period)
        if not per_window:
            raise ValueError(f"no scenario of set {period} succeeded")
        return render_contributions(per_window, period)

    section("Table 1",
            lambda: render_table1(results.table1_vector_sizes()))
    section("SHAP overlap", lambda: (
        f"Mean FRA/SHAP top-100 overlap: "
        f"{results.mean_shap_overlap():.1f} features"
    ))
    for period in periods:
        section(f"Contributions ({period})",
                lambda period=period: contributions(period))
    for period in periods:
        section(f"Table 3 ({period})", lambda period=period:
                render_top_features(results.table3_top_features(period),
                                    period))
        section(f"Table 4 ({period})", lambda period=period:
                render_unique_features(
                    results.table4_unique_features(period), period))
    section("Table 5", lambda: render_improvement_by_window({
        p: results.table5_improvement_by_window(p) for p in periods
    }))
    section("Table 6", lambda: render_improvement_by_category({
        p: results.table6_improvement_by_category(p) for p in periods
    }))
    sections.append(_render_overall(results))

    summary = results.run_summary
    if summary.spans:
        sections.append(format_table(*stage_table(stage_rows(summary.spans)),
                                     title="Run telemetry"))
    counters = summary.metrics.get("counters", {})
    if counters:
        sections.append(format_table(
            ["counter", "value"],
            [(name, int(counters[name])) for name in sorted(counters)],
            title="Counters",
        ))
    return "\n\n".join(sections)
