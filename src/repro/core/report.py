"""Markdown experiment reports.

``export_markdown`` turns an :class:`~repro.core.pipeline.ExperimentResults`
into a single self-contained markdown document mirroring the paper's
evaluation section — every table and figure series, plus run metadata —
ready to commit next to EXPERIMENTS.md or attach to a CI run.
"""

from __future__ import annotations

from pathlib import Path

from ..categories import CATEGORY_LABELS
from ..obs import format_runtime, stage_breakdown, stage_rows, stage_table
from .pipeline import ExperimentResults

__all__ = ["export_markdown", "write_markdown_report"]


def _md_table(headers, rows) -> str:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def export_markdown(results: ExperimentResults) -> str:
    """Render the full experiment as a markdown document."""
    parts: list[str] = []
    config = results.config
    parts.append("# Reproduction report — data-source diversity study")
    parts.append(
        f"Simulation seed `{config.simulation.seed}`, periods "
        f"{list(config.periods)}, windows {list(config.windows)}, "
        f"runtime {format_runtime(results.runtime_seconds)}."
    )

    # Table 1
    parts.append("## Table 1 — final feature-vector sizes")
    sizes = results.table1_vector_sizes()
    parts.append(_md_table(
        ["Scenario", "Number of features"],
        [(key, n) for key, n in sizes.items()],
    ))
    parts.append(
        f"Mean FRA ∩ SHAP-top-100 overlap: "
        f"**{results.mean_shap_overlap():.1f}** features."
    )

    # Figures 3-4
    for period in results.config.periods:
        fig = "3" if period == "2017" else "4"
        parts.append(
            f"## Figure {fig} — category contribution factors "
            f"(set {period})"
        )
        per_window = results.contributions(period)
        windows = sorted(per_window)
        categories = sorted(
            {c for f in per_window.values() for c in f},
            key=lambda c: c.value,
        )
        rows = [
            [CATEGORY_LABELS[c]]
            + [f"{per_window[w].get(c, 0.0):.3f}" for w in windows]
            for c in categories
        ]
        parts.append(_md_table(
            ["Category"] + [f"w={w}" for w in windows], rows
        ))

    # Tables 3-4
    for period in results.config.periods:
        try:
            top = results.table3_top_features(period)
            unique = results.table4_unique_features(period)
        except ValueError:
            continue  # preset without both horizon groups
        parts.append(f"## Table 3 — top features (set {period})")
        n = max(len(top["Short-term"]), len(top["Long-term"]))
        parts.append(_md_table(
            ["Short-term", "Long-term"],
            [
                (top["Short-term"][i] if i < len(top["Short-term"]) else "",
                 top["Long-term"][i] if i < len(top["Long-term"]) else "")
                for i in range(n)
            ],
        ))
        parts.append(
            f"## Table 4 — top unique features (set {period})"
        )
        n = max(len(unique["Short-term"]), len(unique["Long-term"]))
        parts.append(_md_table(
            ["Short-term only", "Long-term only"],
            [
                (unique["Short-term"][i]
                 if i < len(unique["Short-term"]) else "",
                 unique["Long-term"][i]
                 if i < len(unique["Long-term"]) else "")
                for i in range(n)
            ],
        ))

    # Tables 5-6
    parts.append("## Table 5 — average MSE decrease by window (RF)")
    windows = sorted({
        w for p in results.config.periods
        for w in results.table5_improvement_by_window(p)
    })
    rows = []
    for w in windows:
        row = [w]
        for period in results.config.periods:
            table = results.table5_improvement_by_window(period)
            row.append(f"{table[w]:.2f}%" if w in table else "—")
        rows.append(row)
    parts.append(_md_table(
        ["Window"] + [f"set {p}" for p in results.config.periods], rows
    ))

    parts.append("## Table 6 — average MSE decrease by category (RF)")
    categories = sorted(
        {
            c for p in results.config.periods
            for c in results.table6_improvement_by_category(p)
        },
        key=lambda c: c.value,
    )
    rows = []
    for c in categories:
        row = [CATEGORY_LABELS[c]]
        for period in results.config.periods:
            table = results.table6_improvement_by_category(period)
            row.append(f"{table[c]:.2f}%" if c in table else "—")
        rows.append(row)
    parts.append(_md_table(
        ["Category"] + [f"set {p}" for p in results.config.periods], rows
    ))

    # Overall
    parts.append("## Overall averages (§4.3)")
    rows = []
    for model, label in (("rf", "Random forest"),
                         ("gb", "Gradient boosting")):
        for period in results.config.periods:
            try:
                value = results.overall_improvement(period, model)
            except ValueError:
                continue
            rows.append([label, period, f"{value:.2f}%"])
    parts.append(_md_table(["Model", "Set", "Mean improvement"], rows))

    # Run telemetry: the stage table of ``repro report --run``
    summary = results.run_summary
    if summary.spans:
        parts.append("## Run telemetry")
        parts.append(_md_table(
            ["Stage", "Self time"],
            [(stage, format_runtime(seconds))
             for stage, seconds in stage_breakdown(summary.spans).items()],
        ))
        parts.append(_md_table(*stage_table(stage_rows(summary.spans))))
        counters = summary.metrics.get("counters", {})
        if counters:
            parts.append(_md_table(
                ["Counter", "Value"], sorted(counters.items()),
            ))

    return "\n\n".join(parts) + "\n"


def write_markdown_report(results: ExperimentResults, path) -> Path:
    """Write :func:`export_markdown` output to ``path``; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(export_markdown(results))
    return path
