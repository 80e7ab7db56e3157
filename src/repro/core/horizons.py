"""Short-term vs long-term driving factors (§4.2, Tables 3-4).

The paper merges the final feature vectors of the 1- and 7-day scenarios
into a *Short-term* group and those of the 90- and 180-day scenarios into
a *Long-term* group. Per-feature importance comes from a fine-tuned
random forest trained on each scenario's final vector; features present
in both scenarios of a group get the *average* of their importances.
Table 3 reads off the top-5 per group; Table 4 lists the top-20 features
unique to each group (present in one group, absent from the other).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache import fit_cached
from ..ml.forest import RandomForestRegressor
from ..obs import span
from .scenarios import Scenario

__all__ = [
    "SHORT_TERM_WINDOWS",
    "LONG_TERM_WINDOWS",
    "HorizonGroup",
    "rf_feature_importance",
    "merge_group",
    "top_features",
    "unique_features",
]

#: Prediction windows pooled into each horizon group (§4.2).
SHORT_TERM_WINDOWS = (1, 7)
LONG_TERM_WINDOWS = (90, 180)


@dataclass
class HorizonGroup:
    """Merged feature importances for one horizon group."""

    name: str
    importances: dict[str, float] = field(default_factory=dict)

    def ranked(self) -> list[tuple[str, float]]:
        """(feature, importance) pairs, most important first."""
        return sorted(
            self.importances.items(), key=lambda kv: (-kv[1], kv[0])
        )


def rf_feature_importance(
    scenario: Scenario,
    feature_subset: list[str],
    rf_params: dict | None = None,
    random_state: int = 0,
) -> dict[str, float]:
    """MDI importance of a random forest trained on a feature subset."""
    with span("horizons.rf_importance", scenario=scenario.key,
              n_features=len(feature_subset)):
        sub = scenario.select_features(feature_subset)
        params = rf_params if rf_params is not None else {
            "n_estimators": 30, "max_depth": 12, "max_features": "sqrt",
            "min_samples_leaf": 2,
        }
        model = fit_cached(RandomForestRegressor(
            random_state=random_state, **params
        ), sub.X, sub.y, tag="horizons.rf")
        return dict(zip(sub.feature_names,
                        (float(v) for v in model.feature_importances_)))


def merge_group(name: str,
                per_scenario: list[dict[str, float]]) -> HorizonGroup:
    """Average importances of features appearing in several scenarios."""
    if not per_scenario:
        raise ValueError("need at least one scenario's importances")
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for importances in per_scenario:
        for feature, value in importances.items():
            sums[feature] = sums.get(feature, 0.0) + value
            counts[feature] = counts.get(feature, 0) + 1
    merged = {f: sums[f] / counts[f] for f in sums}
    return HorizonGroup(name=name, importances=merged)


def top_features(group: HorizonGroup, k: int = 5) -> list[str]:
    """The group's ``k`` most important features (Table 3 rows)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [feature for feature, _ in group.ranked()[:k]]


def unique_features(group: HorizonGroup, other: HorizonGroup,
                    k: int = 20) -> list[str]:
    """Top-``k`` features of ``group`` that do not appear in ``other``
    (Table 4 columns)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    exclusive = [
        (feature, value)
        for feature, value in group.ranked()
        if feature not in other.importances
    ]
    return [feature for feature, _ in exclusive[:k]]
