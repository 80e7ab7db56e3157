"""Per-category contribution factors (Figures 3 and 4).

"...we calculate their contribution by dividing the final number of
features from the category included in the final vector with the
corresponding total number of candidate features in the same category
before the feature selection phase took place." (§4.1)
"""

from __future__ import annotations

from ..categories import DataCategory
from .scenarios import ScenarioInfo

__all__ = ["contribution_factors", "contribution_table"]


def contribution_factors(
    scenario: ScenarioInfo, final_features: list[str]
) -> dict[DataCategory, float]:
    """Contribution factor per category for one scenario.

    A category absent from the scenario's candidates (e.g. USDC in the
    2017 set) is omitted from the result rather than reported as zero,
    since a ratio with a zero denominator is undefined.
    """
    final = set(final_features)
    unknown = final - set(scenario.feature_names)
    if unknown:
        raise ValueError(
            f"final features not in scenario candidates: {sorted(unknown)}"
        )
    out: dict[DataCategory, float] = {}
    for category in DataCategory:
        candidates = scenario.columns_in(category)
        if not candidates:
            continue
        included = sum(1 for name in candidates if name in final)
        out[category] = included / len(candidates)
    return out


def contribution_table(
    per_window: dict[int, dict[DataCategory, float]]
) -> dict[DataCategory, list[float]]:
    """Pivot {window: {category: factor}} into {category: series}.

    The series follows the sorted window order — the x-axis of
    Figures 3-4. Categories missing from a window get 0.0 (the figure
    plots them on the floor).
    """
    windows = sorted(per_window)
    categories = set()
    for factors in per_window.values():
        categories.update(factors)
    return {
        category: [per_window[w].get(category, 0.0) for w in windows]
        for category in sorted(categories, key=lambda c: c.value)
    }
