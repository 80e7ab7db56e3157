"""Smoke tests: every example script runs end-to-end on a small seed.

The examples are user-facing documentation; they must never rot. Each is
executed in-process (import + main) against the default seed but with a
monkeypatched fast simulation so the whole module stays quick.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.synth import SimulationConfig

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_SIM = SimulationConfig(
    start="2016-06-01", end="2020-06-30", seed=42, n_assets=105,
)


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def fast_simulation(monkeypatch):
    """Force every example onto a small, fast simulation window."""
    import repro.synth.config as config_mod

    original = config_mod.SimulationConfig

    def small_config(*args, **kwargs):
        kwargs.setdefault("start", FAST_SIM.start)
        kwargs.setdefault("end", FAST_SIM.end)
        kwargs.setdefault("n_assets", FAST_SIM.n_assets)
        return original(*args, **kwargs)

    for target in (
        "repro.synth.config.SimulationConfig",
        "repro.synth.SimulationConfig",
        "repro.SimulationConfig",
    ):
        module_name, attr = target.rsplit(".", 1)
        monkeypatch.setattr(sys.modules[module_name], attr, small_config)


class TestExamples:
    def test_examples_exist(self):
        names = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
        assert {"quickstart", "crypto100_index", "horizon_study"} <= names

    def test_crypto100_index_example(self, capsys):
        load_example("crypto100_index").main(seed=42)
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "best power by tracking distance" in out

    def test_quickstart_example(self, capsys):
        load_example("quickstart").main(seed=42)
        out = capsys.readouterr().out
        assert "final vector" in out
        assert "improvement of diverse over technical-only" in out

    def test_horizon_study_example(self, capsys):
        load_example("horizon_study").main(seed=42)
        out = capsys.readouterr().out
        assert "Share of total model importance" in out
        assert "w=180" in out

    def test_feature_engineering_example(self, capsys):
        load_example("feature_engineering").main(seed=42)
        out = capsys.readouterr().out
        assert "Cross-category feature engineering" in out
        assert "MVRV-style ratio" in out

    def test_category_deep_dive_example(self, capsys):
        load_example("category_deep_dive").main(seed=42)
        out = capsys.readouterr().out
        assert "Standalone predictive power" in out
        assert "Top 5 features inside each category" in out
