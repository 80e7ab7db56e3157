"""repro — reproduction of "From On-chain to Macro: Assessing the
Importance of Data Source Diversity in Cryptocurrency Market Forecasting"
(Demosthenous, Georgiou, Polydorou; VLDB 2024 Workshop FAB).

Quickstart::

    from repro import ExperimentConfig, run_experiment

    results = run_experiment(ExperimentConfig.fast())
    print(results.table1_vector_sizes())
    print(results.table5_improvement_by_window("2017"))

Subpackages
-----------
``repro.frame``
    Columnar daily-time-series substrate (pandas stand-in).
``repro.ml``
    Trees, forests, boosting, CV/grid search, MDI/PFI, exact TreeSHAP
    (scikit-learn / XGBoost / shap stand-in).
``repro.indicators``
    Technical-analysis indicators derived from BTC market data.
``repro.synth``
    Seeded synthetic market simulator replacing the paper's API pulls.
``repro.core``
    The paper's contribution: the Crypto100 index, the Feature Reduction
    Algorithm, and the data-source-diversity experiments.
"""

from .categories import CATEGORY_LABELS, DataCategory
from .core import (
    ExperimentConfig,
    ExperimentResults,
    FRAConfig,
    FRAResult,
    ImprovementConfig,
    Scenario,
    ScenarioInfo,
    SelectionResult,
    SHAPConfig,
    build_all_scenarios,
    build_scenario,
    crypto100_index,
    fra_reduce,
    run_experiment,
    select_final_features,
)
from .synth import RawDataset, SimulationConfig, generate_raw_dataset

__version__ = "1.0.0"

__all__ = [
    "CATEGORY_LABELS",
    "DataCategory",
    "ExperimentConfig",
    "ExperimentResults",
    "FRAConfig",
    "FRAResult",
    "ImprovementConfig",
    "RawDataset",
    "SHAPConfig",
    "Scenario",
    "ScenarioInfo",
    "SelectionResult",
    "SimulationConfig",
    "__version__",
    "build_all_scenarios",
    "build_scenario",
    "crypto100_index",
    "fra_reduce",
    "generate_raw_dataset",
    "run_experiment",
    "select_final_features",
]
