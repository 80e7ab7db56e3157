"""The paper's contribution: Crypto100, FRA, and the diversity study."""

from ..categories import CATEGORY_LABELS, DataCategory
from .category_analysis import (
    CategoryProfile,
    analyze_all_categories,
    analyze_category,
)
from .cleaning import CleaningReport, clean_features
from .contribution import contribution_factors, contribution_table
from .crypto100 import (
    DEFAULT_POWER,
    crypto100_from_caps,
    crypto100_index,
    scaling_factor_sweep,
    tracking_distance,
    tune_scaling_power,
)
from .fra import FRAConfig, FRAResult, fra_reduce
from .horizons import (
    LONG_TERM_WINDOWS,
    SHORT_TERM_WINDOWS,
    HorizonGroup,
    merge_group,
    rf_feature_importance,
    top_features,
    unique_features,
)
from .improvement import (
    ImprovementConfig,
    ScenarioImprovement,
    average_by_category,
    average_by_window,
    evaluate_feature_set,
    overall_average,
    scenario_improvements,
)
from .pipeline import (
    ExperimentConfig,
    ExperimentResults,
    ScenarioArtifacts,
    ScenarioFailure,
    run_experiment,
)
from .reporting import (
    format_table,
    render_contributions,
    render_improvement_by_category,
    render_improvement_by_window,
    render_report,
    render_series,
    render_table1,
    render_top_features,
    render_unique_features,
)
from .robustness import StabilityReport, fra_stability, jaccard
from .scenarios import (
    PERIODS,
    PREDICTION_WINDOWS,
    Scenario,
    ScenarioInfo,
    build_all_scenarios,
    build_scenario,
    scenario_key,
)
from .selection import (
    SelectionResult,
    SHAPConfig,
    select_final_features,
    shap_ranking,
)

__all__ = [
    "CATEGORY_LABELS",
    "CategoryProfile",
    "CleaningReport",
    "DEFAULT_POWER",
    "DataCategory",
    "ExperimentConfig",
    "ExperimentResults",
    "FRAConfig",
    "FRAResult",
    "HorizonGroup",
    "ImprovementConfig",
    "LONG_TERM_WINDOWS",
    "PERIODS",
    "PREDICTION_WINDOWS",
    "SHAPConfig",
    "SHORT_TERM_WINDOWS",
    "Scenario",
    "ScenarioArtifacts",
    "ScenarioFailure",
    "ScenarioImprovement",
    "ScenarioInfo",
    "SelectionResult",
    "StabilityReport",
    "analyze_all_categories",
    "analyze_category",
    "average_by_category",
    "average_by_window",
    "build_all_scenarios",
    "build_scenario",
    "clean_features",
    "contribution_factors",
    "contribution_table",
    "crypto100_from_caps",
    "crypto100_index",
    "evaluate_feature_set",
    "format_table",
    "fra_reduce",
    "fra_stability",
    "jaccard",
    "merge_group",
    "overall_average",
    "render_contributions",
    "render_improvement_by_category",
    "render_improvement_by_window",
    "render_report",
    "render_series",
    "render_table1",
    "render_top_features",
    "render_unique_features",
    "rf_feature_importance",
    "run_experiment",
    "scaling_factor_sweep",
    "scenario_improvements",
    "scenario_key",
    "select_final_features",
    "shap_ranking",
    "top_features",
    "tracking_distance",
    "tune_scaling_power",
    "unique_features",
]
