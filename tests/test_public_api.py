"""Public-API surface tests: every advertised name exists and imports.

Guards against __all__ drift — a name exported but deleted, or defined
but missing from __all__ in the package fronts users see.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + [
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
]


@pytest.mark.parametrize("package", PACKAGES)
class TestPublicSurface:
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_all_sorted_for_readability(self, package):
        module = importlib.import_module(package)
        exported = [n for n in module.__all__ if n != "__version__"]
        assert exported == sorted(exported), (
            f"{package}.__all__ is not alphabetically sorted"
        )

    def test_docstring_present(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__) > 40


class TestTopLevelConveniences:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_key_workflow_names(self):
        import repro

        for name in ("SimulationConfig", "generate_raw_dataset",
                     "build_scenario", "select_final_features",
                     "run_experiment", "ExperimentConfig",
                     "crypto100_index", "DataCategory"):
            assert hasattr(repro, name)

    def test_public_docstrings_on_key_classes(self):
        from repro import ExperimentConfig, Scenario, SimulationConfig
        from repro.core.fra import fra_reduce
        from repro.ml import RandomForestRegressor, TreeExplainer

        for obj in (ExperimentConfig, Scenario, SimulationConfig,
                    fra_reduce, RandomForestRegressor, TreeExplainer):
            assert obj.__doc__ and len(obj.__doc__) > 30
