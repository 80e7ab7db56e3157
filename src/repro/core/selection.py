"""SHAP validation and the final feature vector (§3.2, last paragraph).

The paper validates FRA with SHAP: it computes SHapley Additive
exPlanation values for the *original* (pre-reduction) feature set,
measures the overlap between SHAP's top-100 and FRA's survivors (~78 on
average), and builds the final per-scenario feature vector as the union
of the top-75 features from each method (Table 1 reports the resulting
sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cache import fit_cached
from ..ml.boosting import GradientBoostingRegressor
from ..ml.shap import shap_importance
from ..obs import current_metrics, span
from .fra import FRAConfig, FRAResult, fra_reduce

__all__ = [
    "SHAPConfig",
    "SelectionResult",
    "shap_ranking",
    "select_final_features",
]


@dataclass(frozen=True)
class SHAPConfig:
    """Configuration for the SHAP importance pass.

    SHAP values are computed with exact TreeSHAP over a gradient-boosted
    model (the paper uses its XGB estimator); ``max_rows`` bounds the
    explained sample for tractability.
    """

    gb_params: dict = field(default_factory=lambda: {
        "n_estimators": 30, "max_depth": 4, "learning_rate": 0.1,
        "subsample": 0.8, "reg_lambda": 1.0,
    })
    max_rows: int = 120
    random_state: int = 0


@dataclass
class SelectionResult:
    """The per-scenario feature-selection outcome."""

    final_features: list[str]
    """The union vector, FRA-ranked features first (Table 1 column)."""

    fra: FRAResult
    shap_order: list[str]
    """All candidate features ranked by mean |SHAP| (descending)."""

    overlap_top100: int
    """|SHAP top-100 ∩ FRA survivors| — the paper's ~78 validation stat."""

    @property
    def n_features(self) -> int:
        """Number of features."""
        return len(self.final_features)


def shap_ranking(X, y, feature_names,
                 config: SHAPConfig | None = None) -> list[str]:
    """Rank all candidate features by global SHAP importance."""
    config = config if config is not None else SHAPConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    names = list(feature_names)
    if X.shape[1] != len(names):
        raise ValueError("X width must match feature_names length")
    with span("selection.shap", n_candidates=len(names),
              max_rows=config.max_rows):
        model = fit_cached(GradientBoostingRegressor(
            random_state=config.random_state, **config.gb_params
        ), X, y, tag="selection.shap_gb")
        importance = shap_importance(
            model, X, max_samples=config.max_rows,
            random_state=config.random_state,
        )
        order = np.argsort(-importance, kind="stable")
        return [names[i] for i in order]


def select_final_features(
    X,
    y,
    feature_names,
    fra_config: FRAConfig | None = None,
    shap_config: SHAPConfig | None = None,
    top_k: int = 75,
    fra_result: FRAResult | None = None,
) -> SelectionResult:
    """Run FRA + SHAP and take the union of their top-``top_k`` features.

    ``fra_result`` short-circuits the FRA run when the caller already has
    one (the pipeline reuses it across analyses).
    """
    with span("selection.select", top_k=top_k):
        if fra_result is None:
            fra_result = fra_reduce(X, y, feature_names, fra_config)
        shap_order = shap_ranking(X, y, feature_names, shap_config)

        fra_top = fra_result.selected[:top_k]
        shap_top = shap_order[:top_k]
        # Union, preserving FRA order first then SHAP-only additions.
        final = list(fra_top)
        seen = set(fra_top)
        for name in shap_top:
            if name not in seen:
                final.append(name)
                seen.add(name)

        overlap = len(set(shap_order[:100]) & set(fra_result.selected))
    metrics = current_metrics()
    metrics.histogram("selection.shap_overlap").observe(overlap)
    metrics.histogram("selection.final_size").observe(len(final))
    return SelectionResult(
        final_features=final,
        fra=fra_result,
        shap_order=shap_order,
        overlap_top100=overlap,
    )
